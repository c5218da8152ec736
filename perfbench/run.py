"""knotcovers benchmark: CLI workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload covers --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  A run makes a fixed number of passes:
as many as fit in ``--seconds`` at the pass cost the workload had on the
baseline machine (at least one), so two commits given the same seed and
seconds run the same inputs.  Only on a host far slower than that does
the run stop early, after ``OVERRUN`` times ``--seconds``.  A pass is the
workload's set of ops, generated from (seed, pass index) by ``gen``, and
executed by a fresh worker process (``worker.py``) that imports
``knotcovers.cli`` and calls ``cli.main(argv)`` once per op: a closed
loop with one client.  Each op's output is then checked by ``oracle``,
outside the timed region.

The host's speed drifts by a third or more within a few minutes, in
CPU time as much as in wall time, so raw seconds of two runs minutes
apart cannot be compared.  Each worker therefore also times a fixed
reference computation of its own, no package code, three times after it
starts and after every op (``worker.make_probe``).  The run's timings
are scaled by ``REF_S`` over the mean of all its probe timings:
seconds as they would read on a host running the reference at its
baseline speed.  Probes are pooled over the whole run because the
host's speed also jumps by a third from one 10 ms to the next, so a
single probe says little about the op next to it; the mean follows the
share of slow stretches, as the ops' own times do.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``wall_s``      median over passes of the wall time of all of a pass's
                  ops, scaled;
* ``setup_s``     median over 16 worker starts spread over the run of the
                  time from spawning a worker to ``knotcovers.cli``
                  imported, what every CLI invocation pays first, scaled;
* ``peak_rss_mb`` median over passes of the worker's ``ru_maxrss``;
* ``ok_frac``     ops that exited 0 with correct output / ops attempted
                  (1 - failed fraction; a failed op exited non-zero,
                  raised, or printed a value the oracle rejects).

The medians as measured go to stderr.  With ``--trace 1`` each pass runs twice,
untraced then traced by ``tracer``, over half as many passes, and the
run reports per-layer calls and self time for every traced function,
per-module self time, exact counters, selftest's own per-criterion
seconds and the tracing overhead.  Spans are kept in ``.perfbench-out/``.

The last line of stdout is one JSON object: ``correct`` (no op printed a
wrong answer), ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 whenever the run completed, also when ops failed; 2 for a bad
invocation or a directory without the package sources; 1 when a worker
could not be run; 143 on SIGTERM, after its worker is stopped.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen
import oracle
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"
OUTDIR = ROOT / ".perfbench-out"

WORKLOADS = ("covers", "growth", "liftres", "verify")
# Nominal seconds per pass (its worker start, ops and probes) and per
# bare worker start, from the baseline machine (BASELINE.md).  They only
# fix the number of passes for a given --seconds.
PASS_S = {"covers": 2.4, "growth": 3.2, "liftres": 3.5, "verify": 16.0}
SETUP_S = 0.3
SETUP_SAMPLES = 16
OVERRUN = 1.4  # no pass starts after OVERRUN * --seconds
RUN_DEADLINE_S = 170.0  # every worker is killed by then

# Mean seconds of one timing of the worker's probe (its reference
# computation) on the baseline machine.
REF_S = 0.0080

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
CRITERIA = range(1, 13)
COUNTERS = {
    "seifert.alexander.repeat_frac": "ratio",
    "lambdamat.signature_exact.repeat_frac": "ratio",
    "exactalg.cyclotomic_norm.out_bits": "bits",
    "lambdamat.signature_exact.dim3": "count",
    "lambdamat.rational_det.dim3": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in tracer.SPAN_NAMES:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for module in tracer.TARGETS:
        units[module + ".self_s"] = "s"
    units.update(COUNTERS)
    for n in CRITERIA:
        units["acceptance.criterion_%02d_s" % n] = "s"
    units["trace_overhead_frac"] = "ratio"
    return units


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an op failure)."""


def run_worker(argvs: list[list[str]], trace_path: Path | None, deadline: float, work: Path) -> dict:
    """Spawn a worker and run the ops one by one.  Returns the worker's
    final report plus ``setup_s``, ``ops`` (each op's result, with its
    seconds ``s``) and ``probes``, the seconds of every timing of the
    reference computation the worker made: after its start and after
    each op."""
    # the package must run with Python's default int digit limit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    work.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    with open(work / "worker.err", "w+") as err, subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(SRC)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=err,
        text=True,
        cwd=ROOT,
        env=env,
    ) as proc:
        # a blocked read ends when the worker is killed at the deadline
        killer = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
        killer.start()

        def ask(request):
            proc.stdin.write(json.dumps(request) + "\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
            if not line:
                proc.wait()
                err.seek(0)
                raise BenchError("worker exited %s: %s" % (proc.returncode, err.read()[-2000:]))
            return json.loads(line)

        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            if ready.strip() != "ready":
                proc.wait()
                err.seek(0)
                raise BenchError("worker did not start: %s" % err.read()[-2000:])
            probes = ask({"trace": str(trace_path) if trace_path else None})["probe"]
            results = []
            for argv in argvs:
                results.append(ask(argv))
                probes += results[-1].pop("probe")
            report = ask(None)
            proc.stdin.close()
            proc.wait()
        except OSError as e:
            raise BenchError("worker stopped: %s" % e) from None
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if time.perf_counter() >= deadline:
        raise BenchError("worker ran past the run deadline")
    report.update(setup_s=setup, probes=probes, ops=results)
    return report


class Tally:
    """Ops attempted and failed, judged by ``oracle.check_op``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # exited 0 but printed a value the oracle rejects
        self.reasons: list[str] = []

    def add(self, ops, report):
        for op, r in zip(ops, report["ops"]):
            verdict = oracle.check_op(op, r["rc"], r["stdout"])
            self.attempted += 1
            if verdict is None:
                continue
            self.failed += 1
            if r["rc"] == 0:
                self.wrong += 1
            err = r["stderr"].strip().splitlines()
            self.reasons.append(
                "%s: %s%s" % (op.argv[0], verdict, " (%s)" % err[-1] if err else "")
            )


def pass_count(workload: str, seconds: float) -> int:
    """Passes in a run: as many as fit in ``seconds`` at the baseline's
    pass and set-up costs.  It depends on nothing measured, so every
    commit runs the same inputs."""
    budget = seconds - max(0, SETUP_SAMPLES - int(seconds / PASS_S[workload])) * SETUP_S
    return max(1, int(budget / PASS_S[workload]))


def run_passes(workload: str, seed: int, seconds: float, trace: bool, work: Path, deadline: float, tally: Tally):
    """Run the workload's passes and return what the workers reported.

    Each pass runs in a fresh untraced worker.  With ``trace`` it runs
    again in a traced one, on the same inputs, and half as many passes
    are made.  Without, bare workers are started in the gaps before,
    between and after passes until ``SETUP_SAMPLES`` set-ups are timed,
    so that set-up is sampled over the whole run."""
    passes = pass_count(workload, seconds / 2 if trace else seconds)
    extra = 0 if trace else max(0, SETUP_SAMPLES - passes)
    gaps = passes + 1
    cutoff = time.perf_counter() + OVERRUN * seconds
    out = {"setups": [], "probes": [], "plain": [], "traced": [], "dumps": []}
    seen: set = set()
    for i in range(gaps):
        for _ in range(extra * (i + 1) // gaps - extra * i // gaps):
            bare = run_worker([], None, deadline, work)
            out["setups"].append(bare["setup_s"])
            out["probes"] += bare["probes"]
        if i == passes or (i and time.perf_counter() > cutoff):
            break
        ops = gen.make_pass(workload, seed, i, work / ("p%d" % i), seen)
        argvs = [op.argv for op in ops]
        plain = run_worker(argvs, None, deadline, work)
        if plain["wrapped"]:
            raise BenchError("untraced worker has wrapped functions: %s" % plain["wrapped"])
        tally.add(ops, plain)
        out["setups"].append(plain["setup_s"])
        out["probes"] += plain["probes"]
        out["plain"].append((ops, plain))
        print(
            "pass %d: ops %.3f s, set-up %.3f s, probe %.5f s, %.1f MB"
            % (i, sum(r["s"] for r in plain["ops"]), plain["setup_s"],
               statistics.median(plain["probes"]), plain["peak_rss_mb"]),
            file=sys.stderr,
        )
        if trace:
            OUTDIR.mkdir(exist_ok=True)
            path = OUTDIR / ("trace-%s-seed%d-pass%d.json" % (workload, seed, i))
            traced = run_worker(argvs, path, deadline, work)
            tally.add(ops, traced)
            out["traced"].append(traced)
            with open(path) as fh:
                out["dumps"].append(json.load(fh))
    return out


def reference_seconds(reports) -> float:
    """Seconds of all the ops in ``reports``, scaled by the mean of those
    workers' own probes: the traced and untraced workers of a pass run
    at different moments, on a host whose speed drifts."""
    probes = [t for rep in reports for t in rep["probes"]]
    return sum(r["s"] for rep in reports for r in rep["ops"]) * REF_S / statistics.fmean(probes)


def end_to_end(out, tally: Tally) -> dict[str, float]:
    plain = [report for _, report in out["plain"]]
    wall = statistics.median(sum(r["s"] for r in p["ops"]) for p in plain)
    setup = statistics.median(out["setups"])
    probe = statistics.fmean(out["probes"])
    print(
        "as measured: wall %.4f s, set-up %.4f s, probe %.5f s (reference %.5f s); %d passes, %d set-ups, %d probes"
        % (wall, setup, probe, REF_S, len(plain), len(out["setups"]), len(out["probes"])),
        file=sys.stderr,
    )
    return {
        "wall_s": wall * REF_S / probe,
        "setup_s": setup * REF_S / probe,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }


def per_layer(out) -> dict[str, float]:
    spans = {name: {"calls": 0, "self_s": 0.0} for name in tracer.SPAN_NAMES}
    counters: dict[str, int] = {}
    for dump in out["dumps"]:
        for name, rec in tracer.summarize(dump).items():
            spans[name]["calls"] += rec["calls"]
            spans[name]["self_s"] += rec["self_s"]
        for key, value in dump["counters"].items():
            counters[key] = counters.get(key, 0) + value
    criteria: dict[int, list[float]] = {n: [] for n in CRITERIA}
    for ops, report in out["plain"]:
        for op, r in zip(ops, report["ops"]):
            if op.kind == "selftest":
                for n, s in oracle.criterion_seconds(r["stdout"]).items():
                    criteria[n].append(s)

    values = {}
    for name in tracer.SPAN_NAMES:
        values[name + ".calls"] = spans[name]["calls"]
        values[name + ".self_s"] = spans[name]["self_s"]
    for module in tracer.TARGETS:
        values[module + ".self_s"] = sum(
            rec["self_s"] for name, rec in spans.items() if name.split(".")[0] == module
        )
    for name in ("seifert.alexander", "lambdamat.signature_exact"):
        calls = spans[name]["calls"]
        values[name + ".repeat_frac"] = counters.get(name + ".repeats", 0) / calls if calls else 0.0
    for key in ("exactalg.cyclotomic_norm.out_bits", "lambdamat.signature_exact.dim3", "lambdamat.rational_det.dim3"):
        values[key] = counters.get(key, 0)
    for n, secs in criteria.items():
        values["acceptance.criterion_%02d_s" % n] = statistics.mean(secs) if secs else 0.0
    untraced = [report for _, report in out["plain"]]
    values["trace_overhead_frac"] = reference_seconds(out["traced"]) / reference_seconds(untraced) - 1.0
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "knotcovers" / "cli.py").is_file():
        print("error: no package sources at %s; run from a knotcovers checkout" % SRC, file=sys.stderr)
        return 2

    # on SIGTERM, unwind through the finally blocks that stop the workers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.perf_counter() + RUN_DEADLINE_S
    work = WORKDIR / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    tally = Tally()
    try:
        out = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), work, deadline, tally)
        if args.trace:
            values, units = per_layer(out), per_layer_units()
        else:
            values, units = end_to_end(out, tally), END_TO_END
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for reason in tally.reasons[:10]:
        print("failed op: %s" % reason, file=sys.stderr)
    for name, unit in units.items():
        print("%s %s = %.6g %s" % (args.workload, name, values[name], unit))
    print(
        json.dumps(
            {
                "correct": tally.wrong == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
