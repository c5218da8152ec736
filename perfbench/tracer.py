"""Span tracer wrapped around the package's public functions from outside.

``Tracer.install()`` replaces every module-level binding of each traced
function in the loaded ``knotcovers`` modules, including the copies made
by ``from .x import f`` (``branched.alexander``, ``cli.alexander``,
``acceptance.varsigma_at``, ...), plus the ``LambdaMatrix.det`` method.
Each call records a span (name, start, end, parent) in memory;
``uninstall()`` puts every original back.  ``dump()`` writes the spans
and the exact counters out when the run ends, and ``summarize()`` turns
such a dump into per-function calls and self time (the span minus the
part its child spans cover).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

# module -> public functions ("Class.method" for methods)
TARGETS = {
    "exactalg": ["cyclotomic_norm", "resultant", "mahler_measure", "regular_at_p"],
    "lambdamat": [
        "LambdaMatrix.det",
        "rational_det",
        "signature_exact",
        "subst_cycle",
        "varsigma_p",
        "varsigma_at",
        "complex_signature",
    ],
    "seifert": [
        "validate_seifert",
        "alexander",
        "clover_matrix",
        "sigma_at_omega",
        "signature_function",
    ],
    "branched": [
        "is_p_regular",
        "total_sigma_p",
        "torsion_order",
        "torsion_growth",
        "signature_average",
        "casson_growth",
        "branched_report",
    ],
    "theta": ["res_p_theta", "torus_average"],
    "graphs": ["automorphisms", "count_admissible", "liftres_sweep", "liftres_check"],
    "cli": ["main"],
    "acceptance": ["run_selftest"],
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]
MARK = "__perfbench_span__"


def _matrix_key(rows):
    entries = rows.entries if hasattr(rows, "entries") else rows
    return tuple(tuple(Fraction(x) for x in row) for row in entries)


class Tracer:
    def __init__(self):
        self.names: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._seen: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- counters recorded at the call boundary -----------------------------

    def _repeat(self, name, key):
        seen = self._seen[name]
        if key in seen:
            self.counters[name + ".repeats"] += 1
        else:
            seen.add(key)

    def _before(self, name, args):
        if name == "seifert.alexander":
            self._repeat(name, tuple(tuple(int(x) for x in row) for row in args[0]))
        elif name == "lambdamat.signature_exact":
            key = _matrix_key(args[0])
            self._repeat(name, key)
            self.counters[name + ".dim3"] += len(key) ** 3
        elif name == "lambdamat.rational_det":
            self.counters[name + ".dim3"] += len(args[0]) ** 3

    def _after(self, name, result):
        if name == "exactalg.cyclotomic_norm":
            self.counters[name + ".out_bits"] += abs(result.numerator).bit_length()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, idx: int, fn):
        name = SPAN_NAMES[idx]
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._before(name, args)
            i = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            self._after(name, result)
            return result

        setattr(traced, MARK, name)
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "knotcovers" or n.startswith("knotcovers.")]
        for idx, full in enumerate(SPAN_NAMES):
            modname, attr = full.split(".", 1)
            module = sys.modules["knotcovers." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner)[meth]
                self._restore.append((owner, meth, original))
                setattr(owner, meth, self._wrap(idx, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(idx, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": SPAN_NAMES,
                    "spans": [self.names, self.starts, self.ends, self.parents],
                    "counters": dict(self.counters),
                },
                fh,
            )


def wrapped_bindings() -> list[str]:
    """Every binding in the loaded knotcovers modules that is a tracer
    wrapper; empty when nothing is traced."""
    found = []
    for n, m in list(sys.modules.items()):
        if n == "knotcovers" or n.startswith("knotcovers."):
            for key, value in vars(m).items():
                if hasattr(value, MARK):
                    found.append(f"{n}.{key}")
                elif isinstance(value, type):
                    found += [f"{n}.{key}.{a}" for a, v in vars(value).items() if hasattr(v, MARK)]
    return found


def summarize(dump: dict) -> dict[str, dict[str, float]]:
    """{span name: {"calls", "self_s"}} from one dump."""
    names, starts, ends, parents = dump["spans"]
    child = [0.0] * len(names)
    for i, par in enumerate(parents):
        if par >= 0:
            child[par] += ends[i] - starts[i]
    out = {name: {"calls": 0, "self_s": 0.0} for name in dump["names"]}
    for i, idx in enumerate(names):
        rec = out[dump["names"][idx]]
        rec["calls"] += 1
        rec["self_s"] += ends[i] - starts[i] - child[i]
    return out
