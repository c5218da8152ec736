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
clearly flagged numeric paths (root finding, the FFT torus average of a
rational 2-loop class) and in oracles (eigenvalues at irrational points
of the unit circle, which every signature also gets exactly).
"""

from .exactalg import (
    LaurentPoly,
    RatFun,
    SingularAtOne,
    cyclotomic_norm,
    denominator_to_tp,
    mahler_measure,
    poly_gcd,
    regular_at_p,
    resultant,
    wheels_coefficients,
)
from .lambdamat import (
    AtOne,
    LambdaMatrix,
    NotHermitian,
    SingularEvaluation,
    normalized_determinant,
    signature_exact,
    subst_cycle,
    subst_twisted,
    twisted_cycle_matrix,
    varsigma_at,
    varsigma_p,
)
from .seifert import (
    Knot,
    KnotRecord,
    NotUnimodularAtOne,
    OddSize,
    alexander,
    clover_matrix,
    congruence_identity_check,
    corpus_records,
    random_seifert,
    signature_function,
    validate_seifert,
)
from .branched import (
    BranchedReport,
    NotPRegular,
    branched_report,
    casson_growth,
    casson_walker,
    is_p_regular,
    signature_average,
    torsion_growth,
    torsion_order,
    total_sigma_p,
)
from .theta import (
    QSingularAtP,
    SingularOnTorus,
    ThetaClass,
    res_p_theta,
    torus_average,
)
from .graphs import (
    BeadedGraph,
    TooLarge,
    automorphisms,
    count_admissible,
    disjoint_union,
    eyes_graph,
    liftres_check,
    liftres_sweep,
    phi_R,
    res_p_graph,
    theta_graph,
)

__version__ = "0.1.0"
