"""Exact abelian knot invariants and cyclic branched cover asymptotics.

The package computes, from an integer Seifert matrix: the symmetrized
Alexander polynomial, equivariant (Tristram-Levine) signatures, the
Hermitian clover form and its cycle substitutions, homology torsion
orders and total signatures of the p-fold cyclic branched covers, their
growth rates (Mahler measure, signature average), and the Casson-Walker
combination with a rational 2-loop class.  A small engine for beaded
trivalent graphs machine-checks the compatibility of lifting diagrams to
cyclic covers with taking residues of their rational symbols.

Exact arithmetic everywhere a theorem is checked; floating point only in
clearly flagged numeric paths (root finding, the closed-form torus
average of a rational 2-loop class) and in oracles (eigenvalues at
irrational points of the unit circle, which every signature also gets
exactly).

numpy is imported only inside the functions that use it, never at module
scope: importing the package or its CLI loads no numpy, and neither do
``branched``, ``signature``, ``liftres`` and ``residue`` on a polynomial
class.  The Mahler measure (``alexander``, ``growth``), the pole finder
of a rational class's torus average and ``selftest`` load it at first
use; nothing loads ``numpy.fft``.
"""

# each module's __all__ is the one list of its public names
from .exactalg import *
from .lambdamat import *
from .seifert import *
from .branched import *
from .theta import *
from .graphs import *

__version__ = "0.1.0"
