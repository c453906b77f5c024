"""Benchmark work that needs a fresh interpreter.

    python3 bench/child.py setup WORKLOAD SEED SCALE
        import plus the first call of each distinct call key; prints
        {"setup_s": .., "calls": .., "failed": ..}
    python3 bench/child.py qft [--trace-out FILE] ARGS...
        `qft ARGS...` through quickfourier.cli.main; with --trace-out the
        package is wrapped first and the spans are saved to FILE (.npz).
        The first line of stderr is "imported T", T being time.perf_counter()
        right after `import quickfourier`.  On Linux that clock is
        CLOCK_MONOTONIC, shared by all processes, so the caller subtracts its
        own start time to get interpreter start plus import.

Only the standard library is imported at module level, so the caller's
import timing starts from a clean interpreter.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def use_checkout_source():
    """Import quickfourier from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "quickfourier", "__init__.py")):
        raise SystemExit(f"error: no quickfourier package under {SRC}")
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def timed_setup(workload, seed, scale_name, before_calls=None):
    """Seconds for `import quickfourier` plus the first call of each key.

    Returns (seconds, calls made, calls that failed the gate).  The
    before_calls hook receives the imported package; the traced run uses
    it to install its wrappers.
    """
    use_checkout_source()
    t0 = time.perf_counter()
    import quickfourier
    spent = time.perf_counter() - t0
    if not os.path.realpath(quickfourier.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"error: quickfourier imported from {quickfourier.__file__}")
    import workloads
    from quickfourier import classical, costmodel, improved

    modules = {"classical": classical, "improved": improved}
    calls = workloads.setup_calls(workload, seed, workloads.SCALES[scale_name], costmodel)
    if before_calls is not None:
        before_calls(quickfourier)
    failed = 0
    for c in calls:
        counter = quickfourier.OpCounter()
        seconds, out = workloads.timed_call(c, modules, counter)
        spent += seconds
        if workloads.check_call(c, out, counter, workloads.oracle(c.transform, c.x)):
            failed += 1
    return spent, len(calls), failed


def run_qft(args):
    use_checkout_source()
    trace_out = None
    if args[:1] == ["--trace-out"]:
        trace_out, args = args[1], args[2:]
    import quickfourier

    print(f"imported {time.perf_counter()!r}", file=sys.stderr, flush=True)
    from quickfourier import cli

    if trace_out is None:
        return cli.main(args)
    import numpy as np
    import tracing

    tracer = tracing.Tracer(quickfourier)
    tracer.install()
    try:
        code = cli.main(args)
    finally:
        tracer.uninstall()
    np.savez(trace_out, **tracer.record())
    return code


def main(argv):
    mode = argv[0] if argv else ""
    if mode == "setup":
        workload, seed, scale = argv[1], int(argv[2]), argv[3]
        spent, calls, failed = timed_setup(workload, seed, scale)
        print(json.dumps({"setup_s": spent, "calls": calls, "failed": failed}))
        return 0
    if mode == "qft":
        return run_qft(argv[1:])
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
