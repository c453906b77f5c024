"""Tapes: column blocks replayed from a per-thread list of NumPy calls.

A thread's first block of a key runs plain and marks the key, its second
records the tape and its later blocks replay it, in one call or across
calls.  Every test runs its taped calls in a fresh thread, whose cache
starts empty, and compares each call with a plain run: the same bits,
counts and constant footprint.
"""

import gc
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from test_shared import (ENTRY_POINTS, LAYOUTS, MODULES, WIDE_SHAPES, in_fresh_thread, signals,
                         traced_peak)

from quickfourier import improved, shared
from quickfourier.counting import OpCounter, TrigTable


def outcome(fn, x, dtype):
    """(output bytes, shape, dtype, (adds, muls), sorted constants touched) of one call."""
    table, counter = TrigTable(dtype=dtype), OpCounter()
    out = fn(x, table=table, counter=counter)
    return out.tobytes(), out.shape, out.dtype, (counter.adds, counter.muls), sorted(table.touched)


def plain(fn, x, dtype, monkeypatch):
    """outcome of a call that no tape can serve: every block runs plain."""
    with monkeypatch.context() as m:
        m.setattr(shared, "_tape_key", lambda *args: None)
        return outcome(fn, x, dtype)


def entries():
    """This thread's tape cache: key -> (tape, its views bound to the
    thread's arena), () for a key whose tape was too large to keep, or
    None for a key marked once."""
    return shared._TAPES.__dict__.get("entries", {})


def tapes():
    """The keys of this thread's cache that recorded a tape, kept or not."""
    return [e for e in entries().values() if e is not None]


def held_bytes():
    """Bytes of the arenas this thread keeps between calls: its one arena
    and any that a tape's views still hold."""
    arenas = [shared._TAPES.__dict__.get("arena")] + [e[1].arena for e in entries().values()
                                                      if e]
    return sum({id(a): a.nbytes for a in arenas if a is not None}.values())


def blocks(monkeypatch, rows, itemsize, width):
    """Make calls of rows-by-itemsize samples run in blocks of width columns."""
    monkeypatch.setattr(shared, "BLOCK_BYTES", width * rows * itemsize)
    monkeypatch.setattr(shared, "MIN_BLOCK_ROW_BYTES", 1)


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
    # constants; every one-block call of at most BLOCK_BYTES is taped
    fn = getattr(MODULES[algorithm], transform)
    for lg in range(2, 13):
        x, fresh = (signals(transform, 1 << lg, 3, dtype, seed) for seed in (lg, lg + 50))
        if ndim == 1:
            x, fresh = x[:, 0], fresh[:, 0]
        want = [plain(fn, v, dtype, monkeypatch) for v in (x, x, x, fresh)]
        got, held = in_turn(fn, [x, x, x, fresh], dtype)
        assert got == want, lg
        assert held == 1, lg


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("algorithm,transform", ENTRY_POINTS)
def test_wide_calls_one_to_three_and_fresh_input_match_a_plain_run(algorithm, transform, dtype,
                                                                    layout, monkeypatch):
    # eleven columns in blocks of 3, 3, 3 and 2: within call 1 the first
    # block of each width marks, the second of width 3 records and the
    # third replays; call 2 records width 2, and later calls replay every
    # block.  Each call must be bitwise a plain run, counts and constants
    # too, whatever the layout, and leave one tape per width
    fn = getattr(MODULES[algorithm], transform)
    x, fresh = (LAYOUTS[layout](signals(transform, 64, 33, dtype, seed))[:, :11]
                for seed in (12, 13))
    itemsize = np.dtype(shared._complex_of(dtype) if transform == "cdft" else dtype).itemsize
    blocks(monkeypatch, x.shape[0], itemsize, 3)
    assert shared._block_width(x.shape[0], 11, itemsize) == 3
    want = [plain(fn, v, dtype, monkeypatch) for v in (x, x, x, fresh)]
    got, held = in_turn(fn, [x, x, x, fresh], dtype)
    assert got == want
    assert held == 2


@pytest.mark.parametrize("algorithm", sorted(MODULES))
@pytest.mark.parametrize("transform,N,cols,dtype", [
    ("rdft", 256, 512, np.float64), ("rdft", 256, 513, np.float64),
    ("cdft", 65536, None, np.float64), ("cdft", 131072, None, np.float64),
    ("dst0", 8192, 64, np.float32), ("dst0", 8192, 65, np.float32)])
def test_the_byte_bound_is_inclusive(algorithm, transform, N, cols, dtype, monkeypatch):
    # a block of BLOCK_BYTES of working input is taped, twice that or one
    # column more is not, and each gives the bits of a plain run
    fn = getattr(MODULES[algorithm], transform)
    x = signals(transform, N, cols or 1, dtype, 3)
    x = x[:, 0] if cols is None else x
    want = plain(fn, x, dtype, monkeypatch)
    got, held = in_turn(fn, [x] * 3, dtype)
    assert got == [want] * 3
    assert held == (x.nbytes <= shared.BLOCK_BYTES)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("algorithm,transform", ENTRY_POINTS)
def test_one_tape_serves_every_layout_and_read_only_input(algorithm, transform, dtype, layout,
                                                           monkeypatch):
    # a tape reads each call's input through basic indexes of it: a tape
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


def foreign(kind, v, path):
    """v in an array whose base is not an array that owns its data: a
    bytes or bytearray buffer, or a memory map read through np.asarray."""
    if kind == "memmap":
        np.save(path, v)
        return np.asarray(np.load(path, mmap_mode="r"))
    return np.ndarray(v.shape, v.dtype, (bytes if kind == "bytes" else bytearray)(v.tobytes()))


@pytest.mark.parametrize("shape", [(64, 3), (64, 11)])
@pytest.mark.parametrize("kind", ["bytes", "bytearray", "memmap"])
@pytest.mark.parametrize("transform", ["cdft", "rdft"])
@pytest.mark.parametrize("algorithm", sorted(MODULES))
def test_input_on_a_foreign_buffer_replays_what_it_is_given(algorithm, transform, kind, shape,
                                                           tmp_path, monkeypatch):
    # the recorder knows the block's views by the array that owns their
    # data, which for these inputs is no plain array's base: a view it
    # missed would be kept as a constant, or as a buffer read before it is
    # written.  Calls 3 and 4, on fresh samples, must be a plain run's
    fn = getattr(MODULES[algorithm], transform)
    x, fresh = (signals(transform, *shape, np.float64, seed) for seed in (14, 15))
    if shape[1] > 3:
        blocks(monkeypatch, shape[0], x.itemsize, 3)
    inputs = [foreign(kind, v, tmp_path / f"{i}.npy") for i, v in enumerate((x, x, fresh, fresh))]
    assert all(type(v.base) is not np.ndarray for v in inputs)
    want = [plain(fn, v, np.float64, monkeypatch) for v in (x, x, fresh, fresh)]
    got, held = in_turn(fn, inputs, np.float64)
    assert got == want
    assert held == (1 if shape[1] <= 3 else 2)


@pytest.mark.parametrize("transform", ["cdft", "rdft"])
def test_a_recording_call_keeps_no_caller_array_alive(transform):
    # the recorder knows the run's buffers by weak reference and lets go
    # of everything once its tape is made: while the caller keeps the
    # output of each call, the input goes as soon as the caller drops it,
    # with no wait for the cycle collector
    fn = getattr(improved, transform)

    def run():
        outs, alive = [], []
        for seed in range(3):  # marks, records, replays
            x = np.array(signals(transform, 256, 2, np.float64, seed))
            ref = weakref.ref(x)
            outs.append(fn(x))
            del x
            alive.append(ref() is not None)
        return alive

    gc.disable()
    try:
        assert in_fresh_thread(run) == [False] * 3
    finally:
        gc.enable()


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


CACHE_CASES = {
    # held bytes above any one tape here, and fewer keys than calls: the
    # least recently used are evicted, and an evicted key records afresh
    "evicting": (100 << 10, 6, [(getattr(MODULES[m], t), t, N) for m in sorted(MODULES)
                                for t in ("rdft", "dct0") for N in (64, 1024, 4096)]),
    # held bytes below one tape: no tape is kept, and its key runs plain
    "below_one_tape": (1024, 256, [(improved.cdft, "cdft", 4096)]),
}


@pytest.mark.parametrize("case", sorted(CACHE_CASES))
def test_the_cache_holds_no_more_than_its_bounds(case, monkeypatch):
    held_bound, keys, calls = CACHE_CASES[case]
    monkeypatch.setattr(shared, "TAPE_HELD_BYTES", held_bound)
    monkeypatch.setattr(shared, "TAPE_KEYS", keys)
    calls = [(fn, signals(t, N, 1, np.float64, N)[:, 0]) for fn, t, N in calls]
    want = [plain(fn, x, np.float64, monkeypatch) for fn, x in calls]

    def run():
        seen = []
        for _ in range(3):
            for (fn, x), w in zip(calls, want):
                for _ in range(3):
                    seen.append(outcome(fn, x, np.float64) == w)
                    assert held_bytes() <= shared.TAPE_HELD_BYTES
                    assert len(entries()) <= shared.TAPE_KEYS
        return seen

    assert all(in_fresh_thread(run))


def test_a_table_patched_after_binding_runs_plain():
    # a profiler that wraps the steps of a table entry_points has bound
    # must see every call: only a table whose items are still those bound
    # replays.  dct0 at N = 64 runs nine forward steps a call
    steps = dict(improved.STEPS)
    dct0 = shared.entry_points(__name__, steps)[2]
    ran = []
    for t, step in improved.STEPS.items():
        def forward(x, N, table, counter, outs, forward=step.forward):
            ran.append(N)
            forward(x, N, table, counter, outs)

        steps[t] = step._replace(forward=forward)
    x = signals("dct0", 64, 1, np.float64, 5)[:, 0]
    want = improved.dct0(x).tobytes()

    def run():
        logged = []
        for _ in range(5):
            ran.clear()
            assert dct0(x).tobytes() == want
            logged.append(len(ran))
        return logged, len(tapes())

    assert in_fresh_thread(run) == ([9] * 5, 0)


@pytest.mark.parametrize("algorithm,transform", ENTRY_POINTS)
def test_a_tape_holds_no_table_counter_or_caller_array(algorithm, transform):
    # a tape and the arena it keeps bound hold views of that arena, and
    # beside them only scalars, the basic indexes of the block's views and
    # the shared cache's read-only constants.  A writable array outside
    # the arena would be one the recorder did not see written, whose
    # values a replay would read as they were
    x = signals(transform, 256, 2, np.float64, 8)
    fn = getattr(MODULES[algorithm], transform)

    def run():
        table, counter = TrigTable(), OpCounter()
        for _ in range(3):
            fn(x, table=table, counter=counter)
        ((tape, bound),) = [e for e in entries().values() if e]
        held = [a for calls, _ in bound.segments for _, args in calls for a in args]
        held += [fn.__self__ for calls, _ in bound.segments for fn, _ in calls
                 if hasattr(fn, "__self__")]
        held += [a for _, patch in bound.segments if patch for a in patch[1]]
        return tape, bound, held + [bound.out, *tape.objects], table, counter

    tape, bound, held, table, counter = in_fresh_thread(run)
    assert all(len(calls) and patch is None for calls, patch in bound.segments[-1:])
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    assert all(a.base is bound.arena or not a.flags.writeable for a in arrays)
    assert not any(np.shares_memory(a, x) for a in arrays)
    assert not any(a is table or a is counter for a in held)
    assert not any(isinstance(v, (TrigTable, OpCounter)) for v in tape)


# peaks over a plain call's, in fresh threads.  Recording turns each
# operand into a few ints as it comes and holds no buffer of the run it
# records: at (4096, 1) a recording call whose tape is not kept peaks at
# 1.15-1.22 times a plain call on CPython 3.11.  A tape that fits
# TAPE_HELD_BYTES is bound to the thread's arena once the run's buffers
# are gone, so that no replay allocates its views, and that call peaks
# at 2.5-3.1 times: the arena it grows is alone more than a plain call's
# peak at one column, and the views of some 250 ops weigh about as much.
# That call does not meet the recorder's 1.3; binding on the first
# replay instead would move the same bytes into the first replayed call.
# Later replays allocate only their output, 0.43-0.50.  At WIDE_SHAPES,
# the call that records one block and binds the thread's arena for its
# later blocks peaks at 1.02-1.05 times, and the next call, whose blocks
# all replay, at 0.87-0.89.  The margins leave room for other builds'
# object sizes
RECORD_PEAK_BOUND = 1.3
RECORD_AND_BIND_PEAK_BOUND = 3.3
REPLAY_PEAK_BOUND = 0.6


@pytest.mark.parametrize("case", ["kept", "not_kept", "wide"])
@pytest.mark.parametrize("transform", ["cdft", "rdft"])
@pytest.mark.parametrize("algorithm", sorted(MODULES))
def test_peaks_of_recording_and_replay(algorithm, transform, case, monkeypatch):
    fn = getattr(MODULES[algorithm], transform)
    x = signals(transform, *(WIDE_SHAPES[transform] if case == "wide" else (4096, 1)),
                np.float64, 7)
    table = TrigTable()
    in_fresh_thread(fn, x[:, :1], table)  # constants are built once, outside the measurement

    def run(calls):
        tracemalloc.start()
        try:
            return [traced_peak(fn, x, table)[0] for _ in range(calls)]
        finally:
            tracemalloc.stop()

    with monkeypatch.context() as m:
        m.setattr(shared, "_tape_key", lambda *args: None)
        (first,) = in_fresh_thread(run, 1)
    if case == "wide":
        recording, replay = in_fresh_thread(run, 2)
        assert recording <= RECORD_PEAK_BOUND * first
        assert replay <= first
    elif case == "not_kept":
        # and the key runs plain from then on, allocating no arena
        monkeypatch.setattr(shared, "TAPE_HELD_BYTES", 0)
        _, recording, after, again = in_fresh_thread(run, 4)
        assert recording <= RECORD_PEAK_BOUND * first
        assert max(after, again) <= 1.02 * first
    else:
        _, recording, replay, again = in_fresh_thread(run, 4)
        assert recording <= RECORD_AND_BIND_PEAK_BOUND * first
        assert max(replay, again) <= REPLAY_PEAK_BOUND * first


def cache_bytes(o, seen):
    """Bytes of the objects a cache entry holds: array views and Python
    objects, but not the arrays that own their data."""
    if callable(o) and not isinstance(getattr(o, "__self__", None), np.ndarray):
        return 0
    o = getattr(o, "__self__", o)  # a copy's bound method holds its view
    if id(o) in seen or isinstance(o, np.ndarray) and o.base is None:
        return 0
    seen.add(id(o))
    inner = o.items() if isinstance(o, dict) else o if isinstance(o, (tuple, list, frozenset)) \
        else (o.start, o.stop, o.step) if isinstance(o, slice) else ()
    return sys.getsizeof(o) + sum(cache_bytes(v, seen) for v in inner)


# what a recording call leaves beside its tape in small objects that
# interpreter and NumPy caches keep, as ints and tuples: 2.6-5.3 KiB at
# WIDE_SHAPES when the tape is not kept, which measures it alone
SMALL_OBJECTS = 8 << 10


@pytest.mark.parametrize("kept", [True, False])
@pytest.mark.parametrize("transform", sorted(WIDE_SHAPES))
@pytest.mark.parametrize("algorithm", sorted(MODULES))
def test_a_wide_call_leaves_its_output_op_descriptors_and_one_arena(algorithm, transform, kept,
                                                                    monkeypatch):
    # a wide call's tape binds the thread's one arena, which stays between
    # calls, when it fits TAPE_HELD_BYTES, and is not kept when it does
    # not, its blocks then running plain: tracemalloc's current bytes grow
    # by the output, the cache's op descriptors and views and the arena
    # kept, on the call that records as on the next
    if not kept:
        monkeypatch.setattr(shared, "TAPE_HELD_BYTES", 0)
    fn = getattr(MODULES[algorithm], transform)
    x = signals(transform, *WIDE_SHAPES[transform], np.float64, 7)
    table = TrigTable()
    in_fresh_thread(fn, x[:, :1], table)

    def run():
        fn(x[:, :1], table=table)  # the thread's cache and NumPy state, outside the measurement
        tracemalloc.start()
        try:
            grown = []
            for _ in range(2):
                gc.collect()  # a full collection also empties the free lists
                before = tracemalloc.get_traced_memory()[0]
                out = fn(x, table=table)
                gc.collect()
                grown.append(tracemalloc.get_traced_memory()[0] - before - out.nbytes)
                out = None
            return grown, held_bytes(), cache_bytes(entries(), set())
        finally:
            tracemalloc.stop()

    (recording, replay), held, descriptors = in_fresh_thread(run)
    assert (held > 0) == kept and held <= shared.TAPE_HELD_BYTES
    assert recording <= descriptors + held + SMALL_OBJECTS
    assert replay <= 1024


DRIVERS = {"cdft": (shared.complex_spectrum, ()), "rdft": (shared.half_spectrum, ()),
           "dct0": (shared.one_recursion, ("dc_tt",)), "dst0": (shared.one_recursion, ("ds_tt",))}


def bound_ops(bound, root, dest):
    """(inputs, output) of each op of a bound tape, on root and dest."""
    ops = []
    for calls, patch in bound.segments:
        for fn, args in calls:
            copy = hasattr(fn, "__self__")  # a copy's bound out.__setitem__
            ops.append((args[1:], fn.__self__) if copy else (args[:-1], args[-1]))
        if patch is not None:
            fn, args, ats = patch
            args = list(args)
            for p, which, index in ats:
                args[p] = (root, dest)[which][index]
            ops.append((args[:-1], args[-1]))
    return ops


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("algorithm,transform", ENTRY_POINTS)
def test_the_arena_shares_bytes_only_between_buffers_no_op_shares(algorithm, transform, wide):
    # packing puts two buffers on the same bytes only when no op touches
    # both: each op's output overlaps an input in the arena exactly where
    # it did in the plain run, so NumPy takes the same path on both,
    # whether the tape copies its output out of the arena, as a one-block
    # call's does, or writes the output's columns where they are, as a
    # wide call's blocks do; every tape reads the block where it is
    N, steps = 256, MODULES[algorithm].STEPS
    run, head = DRIVERS[transform]
    x = signals(transform, N, 2, np.float64, 9)
    spectrum = run(x.copy(), *head, N, steps, TrigTable(), OpCounter(), None)
    dest, plain_dest = (np.empty_like(spectrum) if wide else None for _ in range(2))
    recorded = OpCounter()
    recorded.tape = []
    run(x.copy(), *head, N, steps, TrigTable(), recorded, plain_dest)
    plain_ops = [(ins, out) for _, ins, out in recorded.tape if out.size]
    _, tape = shared._record(x, run, (*head, N), steps, TrigTable(), dest)
    assert (tape.out is None) == wide
    root = shared._root(run, x, TrigTable()).view(np.float64)
    ops = bound_ops(shared._bind(tape, np.empty(tape.arena, np.uint8)), root,
                    None if dest is None else dest.view(np.float64))
    assert len(ops) == len(plain_ops)
    for (ins, out), (bound_ins, bound_out) in zip(plain_ops, ops):
        overlaps = [isinstance(a, np.ndarray) and np.shares_memory(a, out) for a in ins]
        assert overlaps == [isinstance(a, np.ndarray) and np.shares_memory(a, bound_out)
                            for a in bound_ins]
