"""Tapes: small one-block calls replayed from a per-thread list of NumPy calls.

A thread's first call of a key runs plain and marks the key, its second
records the tape and its later calls replay it.  Every test runs its
taped calls in a fresh thread, whose cache starts empty, and compares
each call with a plain run: the same bits, counts and constant footprint.
"""

import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from test_shared import ENTRY_POINTS, LAYOUTS, MODULES, in_fresh_thread, signals, traced_peak

from quickfourier import improved, shared
from quickfourier.counting import OpCounter, TrigTable


def outcome(fn, x, dtype):
    """(output bytes, shape, dtype, (adds, muls), sorted constants touched) of one call."""
    table, counter = TrigTable(dtype=dtype), OpCounter()
    out = fn(x, table=table, counter=counter)
    return out.tobytes(), out.shape, out.dtype, (counter.adds, counter.muls), sorted(table.touched)


def plain(fn, x, dtype, monkeypatch):
    """outcome of a call that no tape can serve."""
    with monkeypatch.context() as m:
        m.setattr(shared, "TAPE_BYTES", -1)
        return outcome(fn, x, dtype)


def entries():
    """This thread's tape cache: key -> tape, or None for a key marked once."""
    return shared._TAPES.__dict__.get("entries", {})


def tapes():
    return [t for t in entries().values() if t is not None]


def in_turn(fn, inputs, dtype):
    """(outcomes of fn on each input in turn, tapes then held), from a fresh thread."""
    def run():
        return [outcome(fn, x, dtype) for x in inputs], len(tapes())
    return in_fresh_thread(run)


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("algorithm,transform", ENTRY_POINTS)
def test_calls_one_to_three_and_fresh_input_match_a_plain_run(algorithm, transform, dtype,
                                                               ndim, monkeypatch):
    # call 1 runs plain, call 2 records, call 3 and a call on new samples
    # replay: each must be bitwise a plain run, with its counts and
    # constants; a narrow 2-D block above TAPE_BYTES is never taped
    fn = getattr(MODULES[algorithm], transform)
    for lg in range(2, 13):
        x, fresh = (signals(transform, 1 << lg, 3, dtype, seed) for seed in (lg, lg + 50))
        if ndim == 1:
            x, fresh = x[:, 0], fresh[:, 0]
        want = [plain(fn, v, dtype, monkeypatch) for v in (x, x, x, fresh)]
        got, held = in_turn(fn, [x, x, x, fresh], dtype)
        assert got == want, lg
        assert held == (x.nbytes <= shared.TAPE_BYTES), lg


@pytest.mark.parametrize("algorithm", sorted(MODULES))
@pytest.mark.parametrize("transform,N,cols,dtype", [
    ("rdft", 256, 32, np.float64), ("rdft", 256, 33, np.float64),
    ("cdft", 4096, None, np.float64), ("cdft", 8192, None, np.float64),
    ("dst0", 4096, 8, np.float32), ("dst0", 4096, 9, np.float32)])
def test_the_byte_bound_is_inclusive(algorithm, transform, N, cols, dtype, monkeypatch):
    # a block of TAPE_BYTES of working input is taped, twice that or one
    # column more is not, and each gives the bits of a plain run
    fn = getattr(MODULES[algorithm], transform)
    x = signals(transform, N, cols or 1, dtype, 3)
    x = x[:, 0] if cols is None else x
    want = plain(fn, x, dtype, monkeypatch)
    got, held = in_turn(fn, [x] * 3, dtype)
    assert got == [want] * 3
    assert held == (x.nbytes <= shared.TAPE_BYTES)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("algorithm,transform", ENTRY_POINTS)
def test_one_tape_serves_every_layout_and_read_only_input(algorithm, transform, dtype, layout,
                                                           monkeypatch):
    # each call copies its input into the tape's root region: a tape
    # recorded on a strided or reversed view replays for a contiguous or
    # a read-only copy, and never writes the caller's array
    fn = getattr(MODULES[algorithm], transform)
    frame = signals(transform, 64, 7, dtype, 11)
    x = LAYOUTS[layout](frame)
    frozen = np.ascontiguousarray(x)
    frozen.setflags(write=False)
    before = frame.tobytes()
    want = plain(fn, frozen, dtype, monkeypatch)
    got, held = in_turn(fn, [x, x, x, frozen, np.ascontiguousarray(x)], dtype)
    assert got == [want] * 5
    assert held == 1
    assert frame.tobytes() == before


def test_threads_replay_their_own_tapes(monkeypatch):
    # four threads at once, switching often, each recording and replaying
    # its own tapes of the same keys: every call has a plain run's bits;
    # the free-threaded build runs this without the GIL
    keys = [(m, t, N) for m in sorted(MODULES) for t in ("cdft", "rdft") for N in (64, 256)]
    inputs = {k: signals(k[1], k[2], 1, np.float64, k[2])[:, 0] for k in keys}
    want = {k: plain(getattr(MODULES[k[0]], k[1]), inputs[k], np.float64, monkeypatch)
            for k in keys}
    start = threading.Barrier(4)

    def runs(offset):
        start.wait(timeout=60)
        seen = []
        for i in range(6 * len(keys)):
            k = keys[(i + offset) % len(keys)]
            seen.append(outcome(getattr(MODULES[k[0]], k[1]), inputs[k], np.float64) == want[k])
        return seen, len(tapes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(runs, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for seen, held in results:
        assert all(seen)
        assert held == len(keys)


def test_a_call_from_inside_a_recording(monkeypatch):
    # a step that calls its own entry point, on its key's first run: the
    # inner call records while the outer one runs plain, and every call
    # still has the bits of a plain run
    inside = []

    def forward(x, N, table, counter, outs):
        if not inside:  # marked before the inner call, which runs this step too
            inside.append(None)
            inside[0] = fn(x[:, 0].copy())
        improved.STEPS["dc_tt"].forward(x, N, table, counter, outs)

    steps = {**improved.STEPS, "dc_tt": improved.STEPS["dc_tt"]._replace(forward=forward)}
    fn = shared.entry_points(__name__, steps)[2]  # dct0
    x = signals("dct0", 64, 1, np.float64, 4)[:, 0]
    want = plain(improved.dct0, x, np.float64, monkeypatch)
    got, held = in_turn(fn, [x] * 4, np.float64)
    assert got == [want] * 4
    assert held == 1
    assert inside[0].tobytes() == want[0]


class Spied:
    """numpy, but counting each allocation: a patched shared.np."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, dtype=float):
        self.calls += 1
        return np.empty(shape, dtype)


@pytest.mark.parametrize("patched", ["run_levels", "half_spectrum", "np"])
def test_a_patched_scheduler_sees_every_call(patched, monkeypatch):
    # a tracer or test that wraps shared's driver, run_levels or numpy
    # must see every call: such a block never records or replays
    fn, x = improved.rdft, signals("rdft", 256, 1, np.float64, 6)[:, 0]
    want = plain(fn, x, np.float64, monkeypatch)
    if patched == "np":
        spy = Spied()
    else:
        real = getattr(shared, patched)

        def spy(*args):
            spy.calls += 1
            return real(*args)

        spy.calls = 0
    monkeypatch.setattr(shared, patched, spy)
    got, held = in_turn(fn, [x] * 5, np.float64)
    assert got == [want] * 5
    assert held == 0
    # rdft runs two recursions per call, each allocating more than once
    assert spy.calls >= {"run_levels": 10, "half_spectrum": 5, "np": 10}[patched]


def test_the_cache_holds_no_more_than_its_bounds(monkeypatch):
    # held arena bytes and keys stay within their bounds, the least
    # recently used evicted first, and an evicted key records afresh
    monkeypatch.setattr(shared, "TAPE_HELD_BYTES", 100 << 10)  # above any one tape here
    monkeypatch.setattr(shared, "TAPE_KEYS", 6)
    calls = [(getattr(MODULES[m], t), signals(t, N, 1, np.float64, N)[:, 0])
             for m in sorted(MODULES) for t in ("rdft", "dct0") for N in (64, 1024, 4096)]
    want = [plain(fn, x, np.float64, monkeypatch) for fn, x in calls]

    def run():
        seen = []
        for _ in range(3):
            for (fn, x), w in zip(calls, want):
                for _ in range(3):
                    seen.append(outcome(fn, x, np.float64) == w)
                    held = sum(t.arena.nbytes for t in tapes())
                    assert held <= shared.TAPE_HELD_BYTES
                    assert len(entries()) <= shared.TAPE_KEYS
        return seen

    assert all(in_fresh_thread(run))


@pytest.mark.parametrize("algorithm,transform", ENTRY_POINTS)
def test_a_tape_holds_no_table_counter_or_caller_array(algorithm, transform):
    # a tape binds its views to its own arena; beside them it holds only
    # scalars and the shared cache's read-only constants.  A writable
    # array outside the arena would be one the recorder did not see
    # written, whose values the tape would replay as they were
    x = signals(transform, 256, 2, np.float64, 8)
    fn = getattr(MODULES[algorithm], transform)

    def run():
        table, counter = TrigTable(), OpCounter()
        for _ in range(2):
            fn(x, table=table, counter=counter)
        (tape,) = tapes()
        held = [a for _, args in tape.calls for a in args]
        return tape, held, table, counter

    tape, held, table, counter = in_fresh_thread(run)
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    assert all(a.base is tape.arena or not a.flags.writeable for a in arrays)
    assert not any(np.shares_memory(a, x) for a in arrays)
    assert not any(a is table or a is counter for a in held)
    assert not any(isinstance(v, (TrigTable, OpCounter)) for v in tape)


# peaks over a plain call's, in fresh threads at (4096, 1): recording holds
# every buffer of the plain run it records, and a view per operand, until
# the arena is packed, 14.4-17.9 times a plain call's peak on CPython 3.11;
# a replay allocates only its output, 0.43-0.50.  The margins leave room
# for other builds' object sizes
RECORD_PEAK_BOUND = 24
REPLAY_PEAK_BOUND = 0.6


@pytest.mark.parametrize("transform", ["cdft", "rdft"])
@pytest.mark.parametrize("algorithm", sorted(MODULES))
def test_peaks_of_recording_and_replay(algorithm, transform):
    fn = getattr(MODULES[algorithm], transform)
    x = signals(transform, 4096, 1, np.float64, 7)
    table = TrigTable()
    in_fresh_thread(fn, x, table)  # constants are built once, outside the measurement

    def run():
        tracemalloc.start()
        try:
            return [traced_peak(fn, x, table)[0] for _ in range(3)]
        finally:
            tracemalloc.stop()

    first, recording, replay = in_fresh_thread(run)
    assert recording <= RECORD_PEAK_BOUND * first
    assert replay <= REPLAY_PEAK_BOUND * first


DRIVERS = {"cdft": (shared.complex_spectrum, ()), "rdft": (shared.half_spectrum, ()),
           "dct0": (shared.one_recursion, ("dc_tt",)), "dst0": (shared.one_recursion, ("ds_tt",))}


@pytest.mark.parametrize("algorithm,transform", ENTRY_POINTS)
def test_the_arena_shares_bytes_only_between_buffers_no_op_shares(algorithm, transform):
    # packing puts two buffers on the same bytes only when no op touches
    # both: each op's output overlaps an input in the arena exactly where
    # it did in the plain run, so NumPy takes the same path on both
    N, steps = 256, MODULES[algorithm].STEPS
    run, head = DRIVERS[transform]
    x = signals(transform, N, 2, np.float64, 9)
    dtype = x.dtype
    recorded = OpCounter()
    recorded.tape = []
    run(x.copy(), *head, N, steps, TrigTable(), recorded, None)
    tape = shared._record(x, dtype, run, (*head, N), steps, TrigTable())
    assert len(tape.calls) == len(recorded.tape)
    for (ufunc, ins, out), (fn, args) in zip(recorded.tape, tape.calls):
        bound_ins, bound_out = (args[1:], fn.__self__) if ufunc is None else (args[:-1], args[-1])
        overlaps = [isinstance(a, np.ndarray) and np.shares_memory(a, out) for a in ins]
        assert overlaps == [isinstance(a, np.ndarray) and np.shares_memory(a, bound_out)
                            for a in bound_ins]
