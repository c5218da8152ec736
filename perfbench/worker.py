"""One benchmark client: a fresh process that imports the CLI and runs ops.

    python3 worker.py SRC_DIR

Protocol on stdin/stdout, one JSON line each way: after
``import knotcovers.cli`` the worker prints ``ready``.  It then reads
``{"trace": PATH or null}``, and after that one request per line: an
argv list runs ``cli.main(argv)`` and is answered with the op's exit
code, captured output and seconds; ``null`` ends the pass and is
answered with the process's peak RSS and the bindings the tracer has
wrapped.  Ops run one after another, each sent only when the previous
one has answered: a closed loop with one client.  With a trace path the
tracer is installed first and its spans written there at the end;
without one, ``wrapped`` must come back empty.  The worker refuses to
start unless Python's int digit limit is at its default, so the
big-integer defect the ``growth`` workload shows cannot be hidden.
"""

import contextlib
import io
import json
import random
import resource
import sys
import time
import traceback

if sys.get_int_max_str_digits() != sys.int_info.default_max_str_digits:
    sys.exit("worker: the int digit limit is not Python's default; unset PYTHONINTMAXSTRDIGITS and -X int_max_str_digits")
sys.path.insert(0, sys.argv[1])
from knotcovers import cli  # noqa: E402


def run_op(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:  # argparse rejects the command line
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:  # noqa: BLE001 - a crash is a failed op, keep going
        rc = -1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:], "s": seconds}


def make_probe():
    """A function timing a fixed reference computation three times and
    returning the seconds of each: the oracle's exact integer code on a
    fixed genus-3 matrix, no package code."""
    import gen
    import oracle

    A = gen.seifert(random.Random("perfbench-reference"), 3)

    def probe():
        times = []
        for _ in range(3):
            start = time.perf_counter()
            oracle.beta_series(A, range(2, 40))
            oracle.alexander_coeffs(A)
            times.append(time.perf_counter() - start)
        return times

    return probe


def reply(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main():
    print("ready", flush=True)
    import tracer as tracing  # after "ready": not part of set-up time

    probe = make_probe()
    trace_path = json.loads(sys.stdin.readline())["trace"]
    reply({"probe": probe()})
    tracer = None
    if trace_path:
        tracer = tracing.Tracer()
        tracer.install()
    digits = sys.get_int_max_str_digits()
    for line in sys.stdin:
        argv = json.loads(line)
        if argv is None:
            break
        if sys.get_int_max_str_digits() != digits:
            raise RuntimeError("the int digit limit changed while the package ran")
        result = run_op(argv)
        result["probe"] = probe()
        reply(result)
    wrapped = tracing.wrapped_bindings()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(trace_path)
    reply({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "wrapped": wrapped})


if __name__ == "__main__":
    main()
