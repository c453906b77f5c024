"""Level scheduler and shared drivers: column stacking, memory, step tables."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quickfourier import classical, improved
from quickfourier.counting import OpCounter, TrigTable
from quickfourier.shared import Step, run_levels

MODULES = {"classical": classical, "improved": improved}


def stored_length(transform, N):
    return {"cdft": N, "rdft": N, "dct0": N // 2 + 1, "dst0": N // 2 - 1}[transform]


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


@pytest.mark.parametrize("shape", [(1024, 64), (256, 256)])
@pytest.mark.parametrize("transform", ["cdft", "rdft"])
@pytest.mark.parametrize("algorithm", sorted(MODULES))
def test_peak_memory_of_one_call(algorithm, transform, shape):
    # a scheduler that kept spent buffers or read spectra alive would
    # exceed this bound; the working dtype is float64
    fn = getattr(MODULES[algorithm], transform)
    x = signals(transform, shape[0], shape[1], np.float64, 7)
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
    assert out.shape[1] == shape[1]
    assert peak <= 3.7 * x.nbytes, peak / x.nbytes


def test_each_type_and_size_runs_once():
    # every (signal type, N) group is one base or forward call and one
    # backward call, however many subproblems it stacks
    calls = []

    def logged(t, step):
        def base(x, N, table, counter):
            calls.append(("base", t, N))
            return step.base(x, N, table, counter)

        def forward(x, N, table, counter):
            calls.append(("forward", t, N))
            return step.forward(x, N, table, counter)

        def backward(N, state, spectra, counter):
            calls.append(("backward", t, N))
            return step.backward(N, state, spectra, counter)

        return Step(step.leaf, base, forward, backward)

    x = np.random.default_rng(3).uniform(-0.5, 0.5, (2049, 2))
    for module in MODULES.values():
        calls.clear()
        steps = {t: logged(t, step) for t, step in module.STEPS.items()}
        got = run_levels(steps, "dc_tt", 4096, x, TrigTable(), OpCounter())
        assert np.array_equal(got, module.dct0(x))
        assert len(calls) == len(set(calls))
        assert len(calls) <= 2 * len(module.STEPS) * 12


def test_misordered_table_is_rejected():
    # "b" produces "a" at the same N but comes after it: "a" would be
    # scheduled after its level had already run
    def split(x, N, table, counter):
        return (("a", N, x),), None

    steps = {
        "a": Step(1, lambda x, N, table, counter: x, None, None),
        "b": Step(1, None, split, lambda N, state, spectra, counter: spectra[0]),
    }
    with pytest.raises(RuntimeError):
        run_levels(steps, "b", 4, np.zeros((3, 1)), TrigTable(), OpCounter())
