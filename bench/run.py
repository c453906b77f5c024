"""quickfourier benchmark.

    python3 bench/run.py --workload {single,batch,survey} --seed N --seconds S --trace {0,1}

Runs one workload against the public API as a closed loop from one
calling thread, checks every output, prints one line per metric and, as
the last line, a JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 a run
alternates untraced and traced passes and reports the per-layer split.
See bench/README.md for the workloads, units and what each metric shows.
"""

import os
import time

START = time.perf_counter()

# BLAS stays on one thread in this process and in every child: the load is
# one calling thread, and BLAS worker threads would take the other cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402  (standard library only)

ROOT = child.ROOT
OUT = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("single", "batch", "survey")
QFT_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s", "latency_ms_p50": "ms", "latency_ms_p90": "ms", "pass_s": "s",
    "mflops": "Mflop/s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "counting.helper_calls": "count", "counting.helper_ms": "ms",
    "counting.rows_like_calls": "count", "counting.alloc_mb_computed": "MB",
    "counting.adds": "count", "counting.muls": "count",
    "counting.half_secants_calls": "count", "counting.half_secants_ms": "ms",
    "counting.half_secants_repeat_ratio": "ratio", "counting.table_build_ms": "ms",
    "elaborations.time_split_calls": "count", "elaborations.harmonic_split_calls": "count",
    "elaborations.self_ms": "ms",
    "classical.calls": "count", "classical.self_ms": "ms",
    "classical.kernel_calls_per_call": "count",
    "improved.calls": "count", "improved.self_ms": "ms",
    "improved.kernel_calls_per_call": "count",
    "shared.packing_ms": "ms", "shared.driver_self_ms": "ms",
    "reference.calls": "count", "reference.ms": "ms",
    "costmodel.measured_cost_calls": "count", "costmodel.self_ms": "ms",
    "tree.build_ms": "ms", "tree.audit_ms": "ms", "taxonomy.storage_sizes_calls": "count",
    "accuracy.self_ms": "ms", "cli.self_ms": "ms",
    "yardstick.numpy_us_p50": "us", "yardstick.slowdown_p50": "ratio",
    "trace.overhead_ratio": "ratio",
}


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, reason):
        self.attempted += 1
        if reason:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy as np
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "numpy": np.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "cpu": cpu, "python": sys.version.split()[0]}


def summarize(passes):
    """(p50, p90, mean pass) in seconds, from passes[i][j], the time of
    call j of the call list in pass i.

    Each call's latency is its mean over the passes, and p50/p90 are taken
    across the calls of the list.  The machine this was tuned on switches
    between two speeds about 1.65x apart for seconds at a time; a pooled
    quantile or a median of pass times reads whichever speed held for more
    than half of a run and jumps between runs, while a mean moves in
    proportion to the share of slow time.
    """
    q = statistics.quantiles([statistics.fmean(c) for c in zip(*passes)], n=10)
    return q[4], q[8], statistics.fmean(sum(p) for p in passes)


def laps(start, seconds):
    """Count loop laps until another would end past start + seconds.

    The lap length is taken as the median of the laps so far; the first
    lap always runs.
    """
    end = start + seconds
    times = []
    t = time.perf_counter()
    while True:
        yield len(times)
        now = time.perf_counter()
        times.append(now - t)
        t = now
        if now + statistics.median(times) > end:
            return


def due_times(start, seconds, count):
    """count moments spread evenly over a run, at which the set-ups done in
    fresh children fall due.

    Interleaved with the passes, their median sees the same mix of the
    machine's fast and slow spells as the pass times do; set-ups done
    back to back at the start would see a second or two of it.
    """
    return [start + seconds * (k + 1) / (count + 1) for k in range(count)]


def spawn_setup(workload, seed, scale_name):
    proc = subprocess.run([sys.executable, CHILD, "setup", workload, str(seed), scale_name],
                          capture_output=True, text=True, cwd=ROOT, timeout=QFT_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    return rec["setup_s"], rec["calls"], rec["failed"]


# -- single and batch: calls in this process ----------------------------------

def run_pass(calls, modules, workloads, tally, tracer=None):
    """Time every call once; check each outside the timed region."""
    from quickfourier import OpCounter

    lat, numpy_s = [], []
    for i, c in enumerate(calls):
        counter = OpCounter()
        if tracer is not None:
            tracer.call_id = i
        seconds, out = workloads.timed_call(c, modules, counter)
        lat.append(seconds)
        t0 = time.perf_counter()
        want = workloads.oracle(c.transform, c.x)
        numpy_s.append(time.perf_counter() - t0)
        tally.add(workloads.check_call(c, out, counter, want))
    return lat, numpy_s


def call_peak_mb(calls, modules, workloads):
    """Largest memory one library call holds at its peak, in MiB.

    Each distinct call key runs once more, untimed, under tracemalloc,
    which sees NumPy's array buffers as well as Python objects.  The peak
    is taken above what was allocated before the call, so the benchmark's
    own inputs and its checker do not count.
    """
    from quickfourier import OpCounter

    firsts = {}
    for c in calls:
        firsts.setdefault(c.key, c)
    peak = 0
    tracemalloc.start()
    try:
        for c in firsts.values():
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _, out = workloads.timed_call(c, modules, OpCounter())
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            del out
    finally:
        tracemalloc.stop()
    return peak / 2**20


def run_inprocess(workload, seed, start, seconds, trace, scale_name):
    tally = Tally()
    tracer = None
    setup_record = None

    def install(package):
        # imported here: numpy must not be loaded before the timed import
        import tracing

        nonlocal tracer
        tracer = tracing.Tracer(package)
        tracer.install()

    try:
        spent, n, bad = child.timed_setup(workload, seed, scale_name,
                                          install if trace else None)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        setup_record = tracer.record()
        tracer.clear()
    import tracing as tracing_mod
    import workloads
    from quickfourier import classical, costmodel, improved

    scale = workloads.SCALES[scale_name]
    setups = [spent]
    tally.attempted += n
    tally.failed += bad
    due = [] if trace else due_times(start, seconds, scale.setup_repeats - 1)

    def setup_in_child():
        spent, n, bad = spawn_setup(workload, seed, scale_name)
        setups.append(spent)
        tally.attempted += n
        tally.failed += bad
    build = workloads.single_calls if workload == "single" else workloads.batch_calls
    calls = build(seed, scale, costmodel)
    modules = {"classical": classical, "improved": improved}
    pass_flops = sum(c.flops for c in calls)
    want_adds = sum(c.adds for c in calls)
    want_muls = sum(c.muls for c in calls)

    passes, numpy_s, pass_s = [], [], []
    traced_s, layer_runs, last = [], [], None
    problems = []
    rss_mb = None
    for lap in laps(start, seconds):
        l, ns = run_pass(calls, modules, workloads, tally)
        passes.append(l)
        numpy_s += ns
        pass_s.append(sum(l))
        while due and time.perf_counter() >= due[0]:
            due.pop(0)
            setup_in_child()
        if not trace:
            # after one pass, so the caches hold what a pass leaves in them
            # (the first calls of set-up leave a seed-dependent state), and
            # within --seconds
            if lap == 0:
                rss_mb = call_peak_mb(calls, modules, workloads)
            continue
        tracer.clear()
        tracer.install()
        try:
            l, _ = run_pass(calls, modules, workloads, tally, tracer)
        finally:
            tracer.uninstall()
        traced_s.append(sum(l))
        last = tracer.record()
        m = tracing_mod.layer_metrics(last)
        helper = (m["counting.adds"], m["counting.muls"])
        counted = tracer.counter_totals()
        if not helper == counted == (want_adds, want_muls):
            problems.append(f"trace counts {helper}, OpCounters {counted}, "
                            f"closed forms {(want_adds, want_muls)} disagree")
        layer_runs.append(m)
        tracer.clear()
    for _ in due:  # not yet due when the last pass ended
        setup_in_child()

    result = {"setups": setups, "passes": passes, "pass_s": pass_s, "pass_flops": pass_flops,
              "tally": tally, "problems": problems, "rss_mb": rss_mb,
              "samples": f"{len(passes)} passes of {len(calls)} calls"}
    if trace:
        layers = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
        layers["counting.table_build_ms"] = tracing_mod.layer_metrics(setup_record)[
            "counting.table_build_ms"]
        layers["yardstick.numpy_us_p50"] = statistics.median(numpy_s) * 1e6
        layers["yardstick.slowdown_p50"] = statistics.median(
            a / b for a, b in zip((t for p in passes for t in p), numpy_s))
        layers["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(pass_s)
        result["layers"] = layers
        result["spans"] = last
    return result


# -- survey: one fresh interpreter per qft run ---------------------------------

def pop_import_stamp(proc):
    """Remove the child's "imported T" line from proc.stderr; return T, or
    None when the child failed before it."""
    first, _, rest = proc.stderr.partition("\n")
    if not first.startswith("imported "):
        return None
    proc.stderr = rest
    return float(first.split()[1])


def run_survey(seed, start, seconds, trace, scale_name):
    import numpy as np
    import tracing as tracing_mod

    setups = []
    child.use_checkout_source()
    import workloads

    scale = workloads.SCALES[scale_name]
    from quickfourier import costmodel

    os.makedirs(OUT, exist_ok=True)
    signal = workloads.survey_signal(seed, scale)
    input_path = os.path.join(OUT, f"survey-{seed}-dct0.txt")
    np.savetxt(input_path, signal, fmt="%.17g")
    runs = workloads.survey_runs(seed, scale, input_path)
    trace_dir = os.path.join(OUT, f"survey-{seed}-spans")
    accuracy_flops = scale.accuracy_trials * sum(
        sum(costmodel.predicted_cost(a, "cdft", N)) for a in workloads.ALGORITHMS
        for N in scale.accuracy_sizes)
    tally = Tally()
    problems = []

    def sweep(traced):
        lat, flops, records, dct_s = [], 0, [], None
        if traced:
            os.makedirs(trace_dir, exist_ok=True)
        for i, argv in enumerate(runs):
            cmd = [sys.executable, CHILD, "qft"]
            span_file = os.path.join(trace_dir, f"{i}.npz")
            if traced:
                cmd += ["--trace-out", span_file]
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(cmd + argv, capture_output=True, text=True,
                                      cwd=ROOT, timeout=QFT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc = None
            lat.append(time.perf_counter() - t0)
            if proc is None:
                tally.add(f"{argv[0]}: timed out")
                continue
            stamp = pop_import_stamp(proc)
            if stamp is not None and not traced:
                setups.append(stamp - t0)
            reason, reported = workloads.check_survey_run(argv, proc, scale, costmodel, signal)
            tally.add(reason and f"{' '.join(argv[:3])}: {reason}")
            flops += reported
            if argv[0] == "transform" and not reason:
                dct_s = lat[-1]
            if traced and proc.returncode == 0:
                with np.load(span_file) as f:
                    rec = {k: f[k] for k in f.files}
                rec["call"] = np.full_like(rec["call"], i)
                records.append(rec)
                helper = (int(rec["adds"].sum()), int(rec["muls"].sum()))
                counted = tuple(int(v) for v in rec["totals"][:2])
                expected = reported or (accuracy_flops if argv[0] == "accuracy" else None)
                if helper != counted or (expected is not None and sum(helper) != expected):
                    problems.append(f"{argv[0]}: trace counts {helper}, OpCounters "
                                    f"{counted}, expected flops {expected}")
        if traced:
            shutil.rmtree(trace_dir, ignore_errors=True)
        return lat, flops, records, dct_s

    passes, pass_s, flops_per_sweep = [], [], []
    traced_s, layer_runs, last = [], [], None
    numpy_s, slowdown = [], []
    for _ in laps(start, seconds):
        l, flops, _, dct_s = sweep(False)
        passes.append(l)
        pass_s.append(sum(l))
        flops_per_sweep.append(flops)
        if not trace:
            continue
        t0 = time.perf_counter()
        workloads.oracle("dct0", signal)
        numpy_s.append(time.perf_counter() - t0)
        if dct_s is not None:
            slowdown.append(dct_s / numpy_s[-1])
        l, _, records, _ = sweep(True)
        traced_s.append(sum(l))
        last = tracing_mod.merge(records)
        layer_runs.append(tracing_mod.layer_metrics(last))

    result = {"setups": setups, "passes": passes, "pass_s": pass_s,
              "pass_flops": statistics.median(flops_per_sweep), "tally": tally,
              "problems": problems,
              "samples": f"{len(passes)} sweeps of {len(runs)} qft runs"}
    if trace:
        layers = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
        layers["yardstick.numpy_us_p50"] = statistics.median(numpy_s) * 1e6
        layers["yardstick.slowdown_p50"] = statistics.median(slowdown) if slowdown else 0.0
        layers["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(pass_s)
        result["layers"] = layers
        result["spans"] = last
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return result


# -- report ---------------------------------------------------------------------

def measure(workload, seed, seconds, trace, scale_name="full", start=None):
    """Run one workload until start + seconds (start defaults to now; set-up
    counts within the time); returns (result line dict, human-readable lines)."""
    if start is None:
        start = time.perf_counter()
    if workload == "survey":
        r = run_survey(seed, start, seconds, trace, scale_name)
    else:
        r = run_inprocess(workload, seed, start, seconds, trace, scale_name)
    tally = r["tally"]
    env = environment()
    lines = [f"workload={workload} seed={seed} seconds={seconds} trace={trace}",
             "env " + " ".join(f"{k}={v}" for k, v in env.items())]
    if trace:
        values = r["layers"]
        units = PER_LAYER_UNITS
    else:
        p50, p90, pass_s = summarize(r["passes"])
        values = {"setup_s": statistics.median(r["setups"]), "latency_ms_p50": p50 * 1e3,
                  "latency_ms_p90": p90 * 1e3, "pass_s": pass_s,
                  "mflops": r["pass_flops"] / pass_s / 1e6, "peak_rss_mb": r["rss_mb"]}
        units = END_TO_END_UNITS
        beyond = len(r["passes"]) * sum(
            1 for c in zip(*r["passes"]) if statistics.fmean(c) * 1e3 > values["latency_ms_p90"])
        lines.append(f"samples {r['samples']}; {beyond} timed samples in the calls beyond "
                     f"p90; set-ups {len(r['setups'])}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    for k in units:
        lines.append(f"{k:36s} {values[k]:.6g} {units[k]}")
    lines.append(f"{'error_rate':36s} {tally.failed / max(1, tally.attempted):.6g} "
                 f"failed/attempted ({tally.failed}/{tally.attempted})")
    for reason in tally.reasons + r["problems"]:
        lines.append(f"FAILED {reason}")
    if trace:
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.join(OUT, f"{workload}-{seed}-trace")
        import numpy as np
        np.savez_compressed(stem + ".npz", **r["spans"])
        with open(stem + ".json", "w") as fh:
            json.dump({"env": env, "metrics": metrics}, fh, indent=1)
        lines.append(f"spans of the last traced pass: {os.path.relpath(stem, ROOT)}.npz")
    result = {"correct": tally.failed == 0 and not r["problems"],
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    child.use_checkout_source()
    result, lines = measure(args.workload, args.seed, args.seconds, args.trace, start=START)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
