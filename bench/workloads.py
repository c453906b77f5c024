"""Workload definitions: call lists, generated inputs and the correctness gate.

Everything here is derived from the workload seed.  The library receives
only the generated arrays; which calls run, in which order and on which
data is decided here.
"""

import itertools
import time
from dataclasses import dataclass

import numpy as np

ALGORITHMS = ("classical", "improved")
TRANSFORMS = ("cdft", "rdft", "dct0", "dst0")
BATCH_TRANSFORMS = ("cdft", "rdft")
BATCH_DTYPES = ("float64", "float32")

# (algorithm, transform) pairs whose operation count has a closed form in
# costmodel.predicted_cost
CLOSED_FORMS = (("classical", "cdft"),) + tuple(("improved", t) for t in TRANSFORMS)

# (adds, muls) per signal for the classical transforms that have no closed
# form, measured once from the seed code and committed: a change that moves
# any of them fails the gate
CLASSICAL_COUNTS = {
    "rdft": {8: (20, 2), 16: (66, 11), 32: (186, 37), 64: (482, 105),
             128: (1186, 273), 256: (2818, 673), 512: (6530, 1601),
             1024: (14850, 3713), 2048: (33282, 8449), 4096: (73730, 18945)},
    "dct0": {8: (10, 1), 16: (32, 6), 32: (88, 20), 64: (224, 56),
             128: (544, 144), 256: (1280, 352), 512: (2944, 832),
             1024: (6656, 1920), 2048: (14848, 4352), 4096: (32768, 9728)},
    "dst0": {8: (4, 1), 16: (20, 5), 32: (68, 17), 64: (196, 49),
             128: (516, 129), 256: (1284, 321), 512: (3076, 769),
             1024: (7172, 1793), 2048: (16388, 4097), 4096: (36868, 9217)},
}

# relative RMS bounds of the gate: the acceptance battery's float64 bound,
# and 100 float32 epsilons for single precision
TOLERANCE = {"float64": 1e-11, "float32": 100 * float(np.finfo(np.float32).eps)}


@dataclass(frozen=True)
class Scale:
    """Problem sizes of the three workloads."""

    single_sizes: tuple = (64, 256, 1024, 4096)
    batch_sizes: tuple = (256, 4096)
    batch_bytes: int = 6 << 20  # per input; above a core's L2 (2 MiB on the Xeon it was tuned on)
    cost_sizes: tuple = tuple(1 << p for p in range(2, 12))
    tree_n: int = 1024
    accuracy_sizes: tuple = (256,)
    accuracy_trials: int = 8
    transform_n: int = 16384
    setup_repeats: int = 7  # set-ups per run for single and batch


SCALES = {
    "full": Scale(),
    # tiny sizes for the benchmark's own smoke test
    "tiny": Scale(single_sizes=(16, 32), batch_sizes=(16, 32), batch_bytes=16 << 10,
                  cost_sizes=(4, 8, 16), tree_n=16, accuracy_sizes=(16,),
                  accuracy_trials=2, transform_n=64, setup_repeats=2),
}


def stored_length(transform, N):
    return {"cdft": N, "rdft": N, "dct0": N // 2 + 1, "dst0": N // 2 - 1}[transform]


def make_input(rng, transform, N, dtype, cols=None):
    """Uniform(-0.5, 0.5) samples; complex for cdft.  cols=None gives a 1-D signal."""
    shape = (stored_length(transform, N),) + (() if cols is None else (cols,))
    if transform == "cdft":
        cdtype = np.complex64 if dtype == "float32" else np.complex128
        z = rng.uniform(-0.5, 0.5, shape) + 1j * rng.uniform(-0.5, 0.5, shape)
        return z.astype(cdtype)
    return rng.uniform(-0.5, 0.5, shape).astype(dtype)


def expected_counts(costmodel, algorithm, transform, N):
    """(adds, muls) one signal must cost: the closed form, else the committed table."""
    if (algorithm, transform) in CLOSED_FORMS:
        return costmodel.predicted_cost(algorithm, transform, N)
    return CLASSICAL_COUNTS[transform][N]


@dataclass(eq=False)
class Call:
    """One library call: which entry point, on which generated input."""

    algorithm: str
    transform: str
    N: int
    dtype: str
    x: np.ndarray
    adds: int = 0  # expected, for all columns
    muls: int = 0

    @property
    def key(self):
        return (self.algorithm, self.transform, self.N, self.dtype)

    @property
    def flops(self):
        return self.adds + self.muls


def _finish(calls, costmodel):
    for c in calls:
        cols = 1 if c.x.ndim == 1 else c.x.shape[1]
        adds, muls = expected_counts(costmodel, c.algorithm, c.transform, c.N)
        c.adds, c.muls = adds * cols, muls * cols
    return calls


def single_calls(seed, scale, costmodel):
    """One float64 signal per call: each (algorithm, transform, N) once per
    pass, in a seeded order."""
    rng = np.random.default_rng(seed)
    keys = list(itertools.product(ALGORITHMS, TRANSFORMS, scale.single_sizes))
    order = rng.permutation(len(keys))
    calls = [Call(a, t, N, "float64", make_input(rng, t, N, "float64"))
             for a, t, N in (keys[i] for i in order)]
    return _finish(calls, costmodel)


def batch_calls(seed, scale, costmodel):
    """Columns of an (N, cols) array per call: each (algorithm, transform,
    dtype, N) once per pass, in a seeded order; cols makes each input
    batch_bytes."""
    rng = np.random.default_rng(seed)
    keys = list(itertools.product(ALGORITHMS, BATCH_TRANSFORMS, BATCH_DTYPES,
                                  scale.batch_sizes))
    order = rng.permutation(len(keys))
    calls = []
    for a, t, d, N in (keys[i] for i in order):
        sample_bytes = np.dtype(d).itemsize * (2 if t == "cdft" else 1)
        cols = max(1, scale.batch_bytes // (stored_length(t, N) * sample_bytes))
        calls.append(Call(a, t, N, d, make_input(rng, t, N, d, cols)))
    return _finish(calls, costmodel)


def setup_calls(workload, seed, scale, costmodel):
    """First call of each distinct (algorithm, transform, N, dtype).

    Tables depend on the key and not on the column count, so batch set-up
    uses one-column inputs: set-up time then measures table and cache
    building rather than a pass of arithmetic.
    """
    rng = np.random.default_rng([seed, 1])
    if workload == "single":
        keys = [(a, t, N, "float64", None) for a, t, N in
                itertools.product(ALGORITHMS, TRANSFORMS, scale.single_sizes)]
    else:
        keys = [(a, t, N, d, 1) for a, t, d, N in
                itertools.product(ALGORITHMS, BATCH_TRANSFORMS, BATCH_DTYPES,
                                  scale.batch_sizes)]
    calls = [Call(a, t, N, d, make_input(rng, t, N, d, cols)) for a, t, N, d, cols in keys]
    return _finish(calls, costmodel)


# -- correctness gate ---------------------------------------------------------

def oracle(transform, x):
    """numpy.fft spectrum of the same input, in double precision.

    dct0/dst0 samples sit in a zero-padded length-N buffer whose real FFT
    has the cosine sums as its real part and minus the sine sums as its
    imaginary part.
    """
    wide = np.complex128 if np.iscomplexobj(x) else np.float64
    x = x.astype(wide)
    if transform == "cdft":
        return np.fft.fft(x, axis=0)
    if transform == "rdft":
        return np.fft.rfft(x, axis=0)
    if transform == "dct0":
        N = 2 * (x.shape[0] - 1)
        buf = np.zeros((N,) + x.shape[1:])
        buf[:N // 2 + 1] = x
        return np.fft.rfft(buf, axis=0).real
    N = 2 * (x.shape[0] + 1)
    buf = np.zeros((N,) + x.shape[1:])
    buf[1:N // 2] = x
    return -np.fft.rfft(buf, axis=0).imag[1:N // 2]


def relative_rms(got, want):
    """Largest per-column RMS error over RMS of the reference."""
    got = np.asarray(got, dtype=np.complex128)
    want = np.asarray(want, dtype=np.complex128)
    num = np.sqrt(np.mean(np.abs(got - want) ** 2, axis=0))
    den = np.sqrt(np.mean(np.abs(want) ** 2, axis=0))
    return float(np.max(num / den))


def timed_call(call, modules, counter):
    """(seconds, output) of one library call; the output is the exception
    when the call raised one."""
    fn = getattr(modules[call.algorithm], call.transform)
    t0 = time.perf_counter()
    try:
        out = fn(call.x, counter=counter)
    except Exception as exc:  # a failing call is counted, never fatal
        out = exc
    return time.perf_counter() - t0, out


def check_call(call, out, counter, want):
    """None when the output matches the oracle spectrum want and the counts
    are right, else the reason."""
    if isinstance(out, Exception):
        return f"{call.key}: {out!r}"
    if not isinstance(out, np.ndarray) or out.shape != want.shape:
        return f"output shape {getattr(out, 'shape', None)} != {want.shape}"
    err = relative_rms(out, want)
    if not err <= TOLERANCE[call.dtype]:
        return f"relative RMS error {err:.3g} > {TOLERANCE[call.dtype]:.3g}"
    if (counter.adds, counter.muls) != (call.adds, call.muls):
        return (f"counted ({counter.adds}, {counter.muls}) != "
                f"expected ({call.adds}, {call.muls})")
    return None


# -- survey -------------------------------------------------------------------

def survey_runs(seed, scale, input_path):
    """The research sweep as qft argument lists, in a seeded order."""
    sizes = ",".join(str(n) for n in scale.cost_sizes)
    runs = [["cost-table", "--algorithm", a, "--transform", t, "--sizes", sizes]
            for a, t in CLOSED_FORMS]
    runs += [["tree", "--algorithm", a, "--n", str(scale.tree_n)] for a in ALGORITHMS]
    runs.append(["accuracy", "--sizes", ",".join(str(n) for n in scale.accuracy_sizes),
                 "--trials", str(scale.accuracy_trials), "--seed", str(seed)])
    runs.append(["selftest"])
    runs.append(["transform", "--transform", "dct0", "--input", input_path, "--counts"])
    rng = np.random.default_rng(seed)
    return [runs[i] for i in rng.permutation(len(runs))]


def survey_signal(seed, scale):
    """Input of the sweep's cold dct0 transform: s(0)..s(N/2)."""
    return make_input(np.random.default_rng([seed, 2]), "dct0", scale.transform_n, "float64")


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def check_survey_run(argv, proc, scale, costmodel, signal):
    """(failure reason or None, counted flops the run reported)."""
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}", 0
    command = argv[0]
    out = proc.stdout
    try:
        if command == "cost-table":
            header, rows = _csv_rows(out)
            if header[:7] != ["algorithm", "transform", "N", "adds_pred", "adds_meas",
                              "muls_pred", "muls_meas"]:
                return f"unexpected cost-table header {header}", 0
            if [int(r[2]) for r in rows] != list(scale.cost_sizes):
                return "cost-table rows do not cover the requested sizes", 0
            flops = 0
            for r in rows:
                a_pred, a_meas, m_pred, m_meas = (int(v) for v in r[3:7])
                if (a_pred, m_pred) != (a_meas, m_meas):
                    return f"cost-table disagrees with the closed form at N={r[2]}", 0
                flops += a_meas + m_meas
            return None, flops
        if command == "tree":
            lines = out.splitlines()
            want = f"{argv[2]} cdft N={scale.tree_n}"
            if not lines or lines[0] != want or not lines[-1].startswith("* ="):
                return f"tree dump does not start with {want!r}", 0
            return None, 0
        if command == "accuracy":
            header, rows = _csv_rows(out)
            if header != ["algorithm", "N", "trials", "mean_rel_rms_error"]:
                return f"unexpected accuracy header {header}", 0
            if len(rows) != 2 * len(scale.accuracy_sizes):
                return "accuracy rows missing", 0
            for r in rows:
                err = float(r[3])
                if not 0 < err <= TOLERANCE["float32"]:
                    return f"float32 error {err} out of range", 0
            return None, 0
        if command == "selftest":
            lines = out.splitlines()
            if not lines or lines[-1] != "selftest passed":
                return "selftest did not pass", 0
            return None, 0
        # transform
        got = np.array([float(v) for v in out.split()])
        want = oracle("dct0", signal)
        if got.shape != want.shape:
            return f"dct0 output has {got.size} values, not {want.size}", 0
        err = relative_rms(got, want)
        if not err <= TOLERANCE["float64"]:
            return f"dct0 relative RMS error {err:.3g}", 0
        counts = dict(tok.split("=") for tok in proc.stderr.split())
        adds, muls = int(counts["adds"]), int(counts["muls"])
        if (adds, muls) != costmodel.predicted_cost("improved", "dct0", scale.transform_n):
            return f"dct0 counted ({adds}, {muls}) != closed form", 0
        return None, adds + muls
    except (ValueError, IndexError, KeyError) as exc:
        return f"unparseable {command} output: {exc}", 0
