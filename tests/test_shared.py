"""Level scheduler and shared drivers: column stacking, memory, step tables."""

import contextlib
import functools
import importlib
import pkgutil
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quickfourier
from quickfourier import classical, costmodel, counting, improved, reference, shared, tree
from quickfourier.counting import OpCounter, TrigTable
from quickfourier.shared import Step, run_levels
from quickfourier.taxonomy import lk, ln, stored_length

MODULES = {"classical": classical, "improved": improved}


def signals(transform, N, cols, dtype, seed):
    rng = np.random.default_rng(seed)
    shape = (stored_length(transform, N), cols)
    x = rng.uniform(-0.5, 0.5, shape).astype(dtype)
    if transform == "cdft":
        x = x + 1j * rng.uniform(-0.5, 0.5, shape).astype(dtype)
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("transform", ["cdft", "rdft", "dct0", "dst0"])
@pytest.mark.parametrize("algorithm", sorted(MODULES))
@settings(max_examples=12, deadline=None, database=None)
@given(lg=st.integers(2, 12), cols=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
@example(lg=2, cols=3, seed=0)
@example(lg=12, cols=2, seed=1)
def test_batched_equals_per_column(algorithm, transform, dtype, lg, cols, seed):
    # stacking subproblems as columns is sound only if a column's result
    # and count do not depend on what sits in the other columns
    fn = getattr(MODULES[algorithm], transform)
    x = signals(transform, 1 << lg, cols, dtype, seed)
    batched_counter = OpCounter()
    batched = fn(x, table=TrigTable(dtype=dtype), counter=batched_counter)
    singles, counts = [], set()
    for j in range(cols):
        counter = OpCounter()
        singles.append(fn(x[:, j], table=TrigTable(dtype=dtype), counter=counter))
        counts.add((counter.adds, counter.muls))
    assert batched.dtype == singles[0].dtype
    assert np.array_equal(batched, np.stack(singles, axis=1))
    (adds, muls), = counts
    assert (batched_counter.adds, batched_counter.muls) == (cols * adds, cols * muls)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_default_table_calls_leave_no_table_behind(dtype):
    # a table kept by a module would be shared by every call in the
    # process, and its log would mix the footprints of unrelated runs
    for module in MODULES.values():
        for transform in ("cdft", "rdft", "dct0", "dst0"):
            getattr(module, transform)(signals(transform, 64, 2, dtype, 3))
    modules = [quickfourier] + [importlib.import_module(f"quickfourier.{m.name}")
                                for m in pkgutil.iter_modules(quickfourier.__path__)]
    for mod in modules:
        for name, value in vars(mod).items():
            held = value.values() if isinstance(value, dict) else (value,)
            assert not any(isinstance(v, TrigTable) for v in held), f"{mod.__name__}.{name}"


def test_threads_with_their_own_tables_log_only_their_own_runs():
    # threads that race to fill the shared constant cache must each get
    # the bits of a run alone and a log of exactly that run's N/4 constants;
    # more threads than a small runner has cores, switching often
    sizes = (64, 128, 256, 512)
    inputs = {N: signals("cdft", N, 1, np.float64, N)[:, 0] for N in sizes}
    alone = {N: improved.cdft(x, table=TrigTable()) for N, x in inputs.items()}

    def runs(N):
        table, seen = TrigTable(), []
        for _ in range(25):
            table.reset_log()
            out = improved.cdft(inputs[N], table=table)
            seen.append((table.touched_count(), out.tobytes() == alone[N].tobytes()))
        return seen

    counting._VECTORS.clear()  # a cold cache, so the threads fill it concurrently
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(sizes)) as pool:
            futures = {N: pool.submit(runs, N) for N in sizes}
            results = {N: f.result(timeout=120) for N, f in futures.items()}
    finally:
        sys.setswitchinterval(interval)
    for N, seen in results.items():
        assert seen == [(N // 4, True)] * 25, f"N={N}"


# peak of one call over the input's bytes: cdft folds its input's float
# view without a copy, forms its sine fold only once the cosine recursion
# has returned, forward steps write their children into their groups'
# buffers, a time split's even child is a buffer of its own, so no view
# pins its mother, and conversions run in their child's slot; what is left
# is the output beside the two real half spectra, 2.0 times the input
PEAK_BOUND = {"cdft": 2.05, "rdft": 2.05}


def peak_ratio(algorithm, transform, shape):
    """tracemalloc peak of one float64 call over its input's bytes."""
    x = signals(transform, shape[0], shape[1], np.float64, 7)
    return call_peak(getattr(MODULES[algorithm], transform), x) / x.nbytes


def call_peak(fn, x):
    """tracemalloc peak of one call of fn on x with a float64 table, in bytes."""
    table = TrigTable(dtype=np.float64)
    fn(x[:, :1], table=table)  # constants are built once, outside the measurement
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(x, table=table)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert out.shape[1] == x.shape[1]
    return peak


@pytest.mark.parametrize("shape", [(1024, 64), (256, 256), (4096, 16), (64, 1024)])
@pytest.mark.parametrize("transform", sorted(PEAK_BOUND))
@pytest.mark.parametrize("algorithm", sorted(MODULES))
def test_peak_memory_of_one_call(algorithm, transform, shape):
    # a scheduler that kept spent buffers or read spectra alive would
    # exceed this bound
    assert peak_ratio(algorithm, transform, shape) <= PEAK_BOUND[transform]


# one column, or a few columns at small N: Python objects, small
# temporaries and slotted buffers allocated at their group's first
# producer weigh more beside so few samples
NARROW_PEAK_BOUND = 2.6


@pytest.mark.parametrize("shape", [(4096, 1), (64, 16)])
@pytest.mark.parametrize("transform", sorted(PEAK_BOUND))
def test_improved_holds_no_more_than_classical(transform, shape):
    # the paper's storage claim: the improved recursion converts in its
    # child's slot and never forms a signal with an extra harmonic cell,
    # so it must not hold more than the classical one
    improved_ratio = peak_ratio("improved", transform, shape)
    classical_ratio = peak_ratio("classical", transform, shape)
    assert improved_ratio <= classical_ratio <= NARROW_PEAK_BOUND


# float64 inputs of 8 MiB: eight column blocks each, so a call holds its
# output, about the input's bytes, plus one block's working set, in which
# every block after the first writes its spectra straight into the output
WIDE_SHAPES = {"cdft": (1024, 512), "rdft": (1024, 1024)}


@pytest.mark.parametrize("transform", sorted(WIDE_SHAPES))
@pytest.mark.parametrize("algorithm", sorted(MODULES))
def test_peak_memory_of_a_wide_call(algorithm, transform):
    # a wide call must not hold every level of all its columns at once
    rows, cols = WIDE_SHAPES[transform]
    itemsize = np.dtype(np.complex128 if transform == "cdft" else np.float64).itemsize
    assert cols >= 4 * shared._block_width(rows, cols, itemsize)
    assert peak_ratio(algorithm, transform, WIDE_SHAPES[transform]) <= 1.20


# the copy, both folds and the buffers NumPy's iterator takes for the
# fold's row-reversed operand, shared.UFUNC_BUFSIZE elements each
COPIED_BLOCK_PEAK_BOUND = 2.05


@pytest.mark.parametrize("algorithm", sorted(MODULES))
def test_cdft_drops_a_copied_block_before_the_recursions(algorithm):
    # a block that has to be copied, here for its Fortran order, is folded
    # for both recursions at once and dropped: held through the cosine
    # recursion it would add half its bytes to the peak
    z = np.asfortranarray(signals("cdft", 1024, 64, np.float64, 7))
    assert call_peak(MODULES[algorithm].cdft, z) / z.nbytes <= COPIED_BLOCK_PEAK_BOUND


@pytest.mark.parametrize("algorithm", sorted(MODULES))
def test_cdft_casts_real_samples_block_by_block(algorithm):
    # a complex copy of the whole input, made before the blocks run, would
    # hold twice a float64 input's bytes on top of the blocks' peak
    fn = MODULES[algorithm].cdft
    z = signals("cdft", *WIDE_SHAPES["cdft"], np.float64, 7)
    assert call_peak(fn, np.ascontiguousarray(z.real)) <= 1.25 * call_peak(fn, z)


@pytest.mark.parametrize("transform", sorted(PEAK_BOUND))
def test_peak_memory_when_the_caller_holds_arguments(transform, monkeypatch):
    # CPython before 3.11 keeps each argument alive in the caller's frame
    # until the call returns, and so does this wrapper: the buffers handed
    # to run_levels must still be freed as early as without it
    plain = peak_ratio("classical", transform, (256, 256))
    run = shared.run_levels
    monkeypatch.setattr(shared, "run_levels", lambda *args: run(*args))
    assert peak_ratio("classical", transform, (256, 256)) <= 1.01 * plain


LAYOUTS = {
    "fortran": np.asfortranarray,
    "column_strided": lambda x: x[:, ::2],
    "row_reversed": lambda x: x[::-1],
    "reversed_and_strided": lambda x: x[::-1, ::3],
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("transform,dtype", [
    ("cdft", np.float32), ("cdft", np.float64), ("rdft", np.float32), ("rdft", np.float64)])
@pytest.mark.parametrize("algorithm", sorted(MODULES))
def test_input_layout_does_not_matter(algorithm, transform, dtype, layout):
    # the boundary reads the caller's array as it is laid out: a strided or
    # reversed view must give the bits and counts of its contiguous copy
    fn = getattr(MODULES[algorithm], transform)
    x = LAYOUTS[layout](signals(transform, 64, 7, dtype, 5))
    results = []
    for values in (x, np.ascontiguousarray(x)):
        counter = OpCounter()
        results.append((fn(values, table=TrigTable(dtype=dtype), counter=counter),
                        counter.adds, counter.muls))
    (got, *got_counts), (want, *want_counts) = results
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got_counts == want_counts


ENTRY_POINTS = [(a, t) for a in sorted(MODULES) for t in ("cdft", "rdft", "dct0", "dst0")]


def traced_call(fn, values, dtype):
    """(output, (adds, muls), sorted constants touched) of one call."""
    table, counter = TrigTable(dtype=dtype), OpCounter()
    out = fn(values, table=table, counter=counter)
    return out, (counter.adds, counter.muls), sorted(table.touched)


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("algorithm,transform", ENTRY_POINTS)
def test_column_blocks_match_the_whole_width_call(algorithm, transform, dtype, layout,
                                                  ndim, monkeypatch):
    # blocks of three or four columns, so every 2-D call ends in a partial
    # block: every column must come out once, with the bits, counts and
    # constants of a call that runs all its columns at once
    fn = getattr(MODULES[algorithm], transform)
    x = LAYOUTS[layout](signals(transform, 64, 20, dtype, 8))
    if ndim == 1:
        x = x[:, 0]
    want = traced_call(fn, x, dtype)
    rows, itemsize = x.shape[0], x.dtype.itemsize
    monkeypatch.setattr(shared, "BLOCK_BYTES", 3 * rows * itemsize)
    monkeypatch.setattr(shared, "MIN_BLOCK_ROW_BYTES", 1)
    assert shared._block_width(rows, 20, itemsize) == 3
    got = traced_call(fn, x, dtype)
    assert got[0].dtype == want[0].dtype
    assert got[0].shape == want[0].shape
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]


@contextlib.contextmanager
def caller_bufsize(size):
    """The caller's ufunc buffer size set to size, and restored on exit."""
    old = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(old)


@pytest.mark.parametrize("blocks", [1, 7])
@pytest.mark.parametrize("algorithm,transform", ENTRY_POINTS)
def test_calls_run_at_their_own_ufunc_buffer_size(algorithm, transform, blocks, monkeypatch):
    # every call runs its ufuncs with shared.UFUNC_BUFSIZE and hands the
    # caller's size back, whatever it was; no size changes a bit of a
    # result, a count or a constant footprint
    fn = getattr(MODULES[algorithm], transform)
    x = signals(transform, 256, 20, np.float64, 12)
    if blocks > 1:
        rows, itemsize = x.shape[0], x.dtype.itemsize
        monkeypatch.setattr(shared, "BLOCK_BYTES", 3 * rows * itemsize)
        monkeypatch.setattr(shared, "MIN_BLOCK_ROW_BYTES", 1)
    seen = []
    run = shared.run_levels

    def spy(*args):
        seen.append(np.getbufsize())
        return run(*args)

    monkeypatch.setattr(shared, "run_levels", spy)
    results = []
    for size in (64, np.getbufsize(), 65536):
        with caller_bufsize(size):
            results.append(traced_call(fn, x, np.float64))
            assert np.getbufsize() == size
    assert len(seen) == 3 * blocks * (2 if transform in ("cdft", "rdft") else 1)
    assert set(seen) == {shared.UFUNC_BUFSIZE}
    (want, *want_rest), *others = results
    for got, *rest in others:
        assert got.tobytes() == want.tobytes()
        assert rest == want_rest


@pytest.mark.parametrize("algorithm,transform", ENTRY_POINTS)
def test_a_failing_call_restores_the_buffer_size(algorithm, transform, monkeypatch):
    # a call refused at its input, and one that fails inside its blocks,
    # leave the caller's size as it was
    fn = getattr(MODULES[algorithm], transform)
    with caller_bufsize(65536):
        with pytest.raises(ValueError):
            fn(np.zeros((4, 1, 1)))
        assert np.getbufsize() == 65536

        def fail(*args):
            raise ValueError("inside the blocks")

        monkeypatch.setattr(shared, "run_levels", fail)
        with pytest.raises(ValueError, match="inside the blocks"):
            fn(signals(transform, 64, 3, np.float64, 1))
        assert np.getbufsize() == 65536


def test_threads_keep_their_own_buffer_sizes():
    # np.setbufsize is per thread, and from NumPy 2.0 per context: calls
    # running at once in more threads than a small runner has cores must
    # not hand one thread's size to another
    sizes = (64, 256, np.getbufsize(), 65536)
    x = signals("cdft", 256, 3, np.float64, 2)
    want = improved.cdft(x).tobytes()
    start = threading.Barrier(len(sizes))

    def runs(size):
        with caller_bufsize(size):
            start.wait(timeout=60)
            seen = []
            for _ in range(40):
                out = improved.cdft(x)
                seen.append((np.getbufsize(), out.tobytes() == want))
            return seen

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(sizes)) as pool:
            results = list(pool.map(runs, sizes, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for size, seen in zip(sizes, results):
        assert seen == [(size, True)] * 40, size


@pytest.mark.parametrize("sample", [np.bool_, np.int8, np.int64, np.uint16, np.float16])
@pytest.mark.parametrize("algorithm,transform", ENTRY_POINTS)
def test_other_real_samples_work_in_float64(algorithm, transform, sample):
    # the documented promotion: a real sample type other than float32 or
    # float64 gives the result of the same values as float64
    fn = getattr(MODULES[algorithm], transform)
    x = np.random.default_rng(9).integers(0, 4, (stored_length(transform, 32), 3))
    x = x.astype(sample)
    got, want = fn(x), fn(x.astype(np.float64))
    assert got.dtype == (np.complex128 if transform in ("cdft", "rdft") else np.float64)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("N", [4, 8, 64, 256])
@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("algorithm,transform", ENTRY_POINTS)
def test_the_callers_array_is_never_written(algorithm, transform, dtype, layout, ndim, N):
    # conversions run in place in buffers the scheduler owns; the caller's
    # samples, which dct0 and dst0 hand to the recursion as its root, must
    # come back untouched, and a read-only array must give the same bits
    fn = getattr(MODULES[algorithm], transform)
    frame = signals(transform, N, 7, dtype, 11)
    x, frozen = LAYOUTS[layout](frame), LAYOUTS[layout](frame.copy())
    if ndim == 1:
        x, frozen = x[:, 0], frozen[:, 0]
    frozen.setflags(write=False)
    before = frame.tobytes(), x.tobytes()
    want = fn(x)
    assert (frame.tobytes(), x.tobytes()) == before
    got = fn(frozen)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def sized(arrays, size, children, N, cols):
    """Whether arrays hold size(child type, child N) rows each, by cols."""
    return [a.shape for a in arrays] == [(size(c, N >> h), cols) for c, h in children]


def logged(t, step, calls):
    """step with each call of its base, forward and backward logged to calls.

    Each call also checks the buffers it is handed: ln(type, N) rows for
    an input, lk(type, N) rows for a spectrum, each by the input's columns.
    A declared copy leaf keeps its base of None, so the scheduler runs the
    schedule it runs in production: no call of it is logged.
    """
    def base(x, N, table, counter, out):
        calls.append(("base", t, N))
        assert x.shape[0] == ln(t, N) and out.shape == (lk(t, N), x.shape[1])
        step.base(x, N, table, counter, out)

    def forward(x, N, table, counter, outs):
        calls.append(("forward", t, N))
        assert x.shape[0] == ln(t, N) and sized(outs, ln, step.children, N, x.shape[1])
        step.forward(x, N, table, counter, outs)

    def backward(N, spectra, counter, out):
        calls.append(("backward", t, N))
        assert out.shape[0] == lk(t, N) and sized(spectra, lk, step.children, N, out.shape[1])
        step.backward(N, spectra, counter, out)

    return step._replace(base=step.base and base, forward=forward, backward=backward)


# one forward and one backward per (type, N) of a dc_tt root at N=4096:
# 2 x 12 levels x 4 split types in either table; the leaf-only ds_e1o type
# never appears under a dc_tt root, so it must not loosen the bound
MAX_CALLS = 96


def test_each_type_and_size_runs_once():
    # every (signal type, N) group is one base or forward call and one
    # backward call, however many subproblems it stacks
    calls = []
    x = np.random.default_rng(3).uniform(-0.5, 0.5, (2049, 2))
    for module in MODULES.values():
        calls.clear()
        steps = {t: logged(t, step, calls) for t, step in module.STEPS.items()}
        got = run_levels(steps, "dc_tt", 4096, [x], TrigTable(), OpCounter())
        assert np.array_equal(got, module.dct0(x))
        assert len(calls) == len(set(calls))
        assert len(calls) <= MAX_CALLS


@pytest.mark.parametrize("root,transform", [("dc_tt", "dct0"), ("ds_tt", "dst0")])
@pytest.mark.parametrize("algorithm", sorted(MODULES))
def test_schedule_runs_the_tree(algorithm, root, transform):
    # the tree is derived from the step table, not from a run: the (type,
    # N) groups the scheduler splits or solves must be its output nodes,
    # less the declared copy leaves, which run no step function
    steps = MODULES[algorithm].STEPS
    for lg in range(2, 13):
        N = 1 << lg
        calls = []
        logged_steps = {t: logged(t, step, calls) for t, step in steps.items()}
        x = np.zeros((stored_length(transform, N), 1))
        run_levels(logged_steps, root, N, [x], TrigTable(), OpCounter())
        ran = {(t, n) for kind, t, n in calls if kind != "backward"}
        outputs = {(node.sig_type, node.N)
                   for node in tree.iter_nodes(tree.build_tree(algorithm, transform, N))}
        copies = {(t, n) for t, n in outputs if n <= steps[t].leaf and steps[t].base is None}
        assert ran == outputs - copies


def test_rebuilt_table_runs_its_own_steps():
    # schedules are cached; one cached under the id() of a table that has
    # since been freed would run that dead table's steps
    x = np.random.default_rng(4).uniform(-0.5, 0.5, (65, 2))
    for module in MODULES.values():
        want = module.dct0(x)
        for _ in range(50):
            calls = []
            steps = {t: logged(t, step, calls) for t, step in module.STEPS.items()}
            got = run_levels(steps, "dc_tt", 128, [x], TrigTable(), OpCounter())
            assert np.array_equal(got, want)
            assert ("forward", "dc_tt", 128) in calls
            assert ("backward", "dc_tt", 128) in calls


def leaf_step(x, N, table, counter, out):
    out[...] = x


def first_child(x, N, table, counter, outs):
    outs[0][...] = x


def first_spectrum(N, spectra, counter, out):
    out[...] = spectra[0]


def test_misordered_table_is_rejected():
    # "b" produces "a" at the same N but comes after it: "a" would be
    # scheduled after its level had already run
    steps = {
        "a": Step(1, (), (), leaf_step, None, None),
        "b": Step(1, (("a", 0),), (), None, first_child, first_spectrum),
    }
    with pytest.raises(RuntimeError, match="unscheduled"):
        run_levels(steps, "b", 4, [np.zeros((3, 1))], TrigTable(), OpCounter())


class NaNFilled:
    """numpy, but empty fills what it allocates with NaN and counts it."""

    def __init__(self):
        self.allocations = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, dtype=float):
        self.allocations += 1
        return np.full(shape, np.nan, dtype)


@pytest.mark.parametrize("root", ["dc_tt", "ds_tt"])
@pytest.mark.parametrize("algorithm", sorted(MODULES))
def test_steps_write_every_cell_they_are_handed(algorithm, root, monkeypatch):
    # run_levels allocates every input buffer and spectrum and each step
    # writes into what it is handed: with those allocations filled with
    # NaN, a run must give the bits of a normal run, and a forward step
    # that skips a child must leave NaN in the spectrum
    steps = MODULES[algorithm].STEPS
    rng = np.random.default_rng(14)
    sizes = [1 << lg for lg in range(1 if root == "dc_tt" else 2, 13)]
    inputs = {N: rng.uniform(-0.5, 0.5, (ln(root, N), 5)) for N in sizes}

    def run(steps, N):
        return run_levels(steps, root, N, [inputs[N].copy()], TrigTable(), OpCounter())

    want = {N: run(steps, N) for N in sizes}
    monkeypatch.setattr(shared, "np", NaNFilled())
    for N in sizes:
        got = run(steps, N)
        assert not np.isnan(got).any(), N
        assert got.tobytes() == want[N].tobytes(), N
    step = steps[root]
    for skipped in range(len(step.children)):
        def forward(x, N, table, counter, outs, skipped=skipped):
            outs = list(outs)
            outs[skipped] = np.empty_like(outs[skipped])  # written, then dropped
            step.forward(x, N, table, counter, outs)

        assert np.isnan(run({**steps, root: step._replace(forward=forward)}, 256)).any()


# a ds_tt root's buffers: each group below the root owns an input buffer
# and each group a spectrum, except a copy leaf below the root, whose
# input is its spectrum.  Improved at N = 8: four groups, of which ds_tt(4)
# and ds_ot(4) are copy leaves, 3 + 4 - 2; classical at N = 16: seven
# groups, of which ds_tt(4), ds_e1o(8) and ds_e1o(16) are, 6 + 7 - 3.  A
# root leaf (N = 4) copies into a spectrum of its own: its input may be
# the caller's array
@pytest.mark.parametrize("algorithm,N,allocations", [
    ("improved", 8, 5), ("classical", 16, 10), ("improved", 4, 1), ("classical", 4, 1)])
def test_copy_leaves_below_the_root_hand_on_their_input(algorithm, N, allocations,
                                                         monkeypatch):
    module = MODULES[algorithm]
    x = np.random.default_rng(15).uniform(-0.5, 0.5, (ln("ds_tt", N), 3))
    want = module.dst0(x)
    filled = NaNFilled()
    monkeypatch.setattr(shared, "np", filled)
    got = run_levels(module.STEPS, "ds_tt", N, [x], TrigTable(), OpCounter())
    assert filled.allocations == allocations
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, x)


def wrapped(steps):
    """steps with every step function behind a functools.wraps wrapper, as
    a tracer or profiler installs them."""
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            return fn(*args)
        return fn and wrapper

    return {t: step._replace(base=wrap(step.base), forward=wrap(step.forward),
                             backward=wrap(step.backward))
            for t, step in steps.items()}


def copy_leaf_groups(steps, root, N):
    """Forward groups of a root's schedule whose spectrum is their input."""
    forward, _ = shared._schedule(tuple(steps.items()), root, N)
    return [g for g, (_, _, _, spectrum) in enumerate(forward) if spectrum == (None, None)]


@pytest.mark.parametrize("algorithm,root,sizes", [
    ("classical", "ds_tt", (16,)),
    ("improved", "ds_tt", (8, 16, 32, 64, 128, 256)),
    ("improved", "dc_tt", (8, 16, 32, 64, 128, 256))])
def test_wrapped_step_functions_run_the_same_schedule(algorithm, root, sizes, monkeypatch):
    # a copy leaf is declared in the table, not recognised by the identity
    # of its step function: wrapped steps must alias the same copy leaves,
    # allocate as often and give the same bits as the plain table
    plain = MODULES[algorithm].STEPS
    steps = wrapped(plain)
    rng = np.random.default_rng(17)
    for N in sizes:
        want = copy_leaf_groups(plain, root, N)
        assert want
        assert copy_leaf_groups(steps, root, N) == want
        x = rng.uniform(-0.5, 0.5, (ln(root, N), 3))
        results = []
        for table in (plain, steps):
            filled = NaNFilled()
            monkeypatch.setattr(shared, "np", filled)
            got = run_levels(table, root, N, [x], TrigTable(), OpCounter())
            results.append((filled.allocations, got.tobytes()))
        assert results[0] == results[1], N


class LiveCells:
    """numpy, but empty counts the cells it allocated until they are freed."""

    def __init__(self):
        self.live = self.peak = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, dtype=float):
        a = np.empty(shape, dtype)
        self.live += a.size
        self.peak = max(self.peak, self.live)
        weakref.finalize(a, self._free, a.size)
        return a

    def _free(self, size):
        self.live -= size


@pytest.mark.parametrize("cols", [1, 3])
@pytest.mark.parametrize("root,N", [("dc_tt", 1 << lg) for lg in range(2, 13)]
                         + [("ds_tt", 1 << lg) for lg in range(3, 13)])
def test_improved_schedule_holds_two_roots_of_cells(root, N, cols, monkeypatch):
    # the paper's storage claim on run_levels' own buffers, the root's
    # input aside: the improved recursion holds at most twice the root's
    # cells at once, and never more than the classical one
    x = np.random.default_rng(16).uniform(-0.5, 0.5, (ln(root, N), cols))
    peaks = {}
    for algorithm, module in MODULES.items():
        live = LiveCells()
        monkeypatch.setattr(shared, "np", live)
        run_levels(module.STEPS, root, N, [x], TrigTable(), OpCounter())
        peaks[algorithm] = live.peak
    assert peaks["improved"] == 2 * ln(root, N) * cols <= peaks["classical"]


@pytest.mark.parametrize("root,N", [("dc_tt", 2), ("dc_tt", 256), ("ds_tt", 4), ("ds_tt", 256)])
@pytest.mark.parametrize("algorithm", sorted(MODULES))
def test_run_levels_writes_into_dest(algorithm, root, N):
    # a root that splits writes its spectrum into dest, a root leaf's is
    # copied there: either way with the bits and counts of a run without
    # dest, and no cell around dest written (dest is a strided view, as
    # rdft's out.real is)
    steps = MODULES[algorithm].STEPS
    x = np.random.default_rng(10).uniform(-0.5, 0.5, (ln(root, N), 3))
    plain, into_dest = OpCounter(), OpCounter()
    want = run_levels(steps, root, N, [x.copy()], TrigTable(), plain)
    frame = np.full((want.shape[0] + 2, 7), -7.0)
    dest = frame[1:-1, 1::2]
    got = run_levels(steps, root, N, [x.copy()], TrigTable(), into_dest, dest)
    assert got is dest
    assert got.tobytes() == want.tobytes()
    assert (into_dest.adds, into_dest.muls) == (plain.adds, plain.muls)
    outside = np.ones(frame.shape, bool)
    outside[1:-1, 1::2] = False
    assert (frame[outside] == -7.0).all()


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("transform", ["cdft", "rdft"])
@pytest.mark.parametrize("algorithm", sorted(MODULES))
def test_two_point_spectra_match_brute_force(algorithm, transform, ndim):
    # at N = 2 the sine fold is empty, below the smallest N of a ds_tt
    # signal, so the drivers run no sine recursion at all
    x = signals(transform, 2, 3, np.float64, 13)
    if ndim == 1:
        x = x[:, 0]
    counter = OpCounter()
    got = getattr(MODULES[algorithm], transform)(x, counter=counter)
    want = getattr(reference, f"{transform}_naive")(x)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=0, atol=1e-15)
    per_column = costmodel.predicted_cost(algorithm, transform, 2)
    columns = 1 if ndim == 1 else x.shape[1]
    assert (counter.adds, counter.muls) == tuple(columns * c for c in per_column)
