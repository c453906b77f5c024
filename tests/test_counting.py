import math

import numpy as np
import pytest

from quickfourier.counting import (
    OpCounter,
    TrigTable,
    cadd,
    cmul,
    cmul_rows,
    csub,
)


def test_counted_ops_scalars_and_vectors():
    c = OpCounter()
    assert cadd(c, np.float64(1.5), np.float64(2.0)) == 3.5
    assert c.adds == 1
    r = csub(c, np.arange(4.0), np.ones(4))
    assert c.adds == 5
    assert np.all(r == [-1.0, 0.0, 1.0, 2.0])
    cmul(c, np.ones(3), 2.0)
    assert c.muls == 3
    assert c.flops == 8
    c.reset()
    assert (c.adds, c.muls) == (0, 0)


def test_counted_ops_batched_broadcast():
    c = OpCounter()
    x = np.ones((4, 10))
    cadd(c, x, x)  # 4 rows, 10 signals
    assert c.adds == 40
    cadd(c, x[0], np.ones(10))
    assert c.adds == 50
    cmul_rows(c, x, np.arange(4.0))
    assert c.muls == 40


def test_float32_stays_float32():
    c = OpCounter()
    x = np.ones(4, dtype=np.float32)
    assert cadd(c, x, x).dtype == np.float32
    assert cmul(c, x, 0.5).dtype == np.float32
    assert cmul_rows(c, np.ones((2, 3), np.float32), np.ones(2, np.float32)).dtype == np.float32


def test_half_secant_values():
    t = TrigTable()
    v = t.half_secant(1, 8)
    assert abs(v - math.sqrt(2.0) / 2.0) < 1e-15
    # steep slot near the quarter turn
    v = t.half_secant(7, 32)
    assert abs(v - 1.0 / (2.0 * math.cos(2.0 * math.pi * 7 / 32))) < 1e-14
    with pytest.raises(ValueError):
        t.half_secant(4, 16)  # quarter turn, secant pole


def test_equal_angles_collapse_to_one_entry():
    t = TrigTable()
    a = t.half_secant(2, 16)
    b = t.half_secant(1, 8)
    assert a == b
    assert t.touched_count() == 1
    vec = t.half_secants(32, [1, 2, 3, 4])
    assert vec.shape == (4,)
    assert vec[3] == a  # 4/32 reduces to 1/8
    assert t.touched_count() == 4  # 1/32, 1/16, 3/32, 1/8


def test_eighth_cos_is_its_own_entry():
    t = TrigTable()
    v = t.eighth_cos()
    assert abs(v - math.sqrt(2.0) / 2.0) < 1e-15
    t.half_secant(1, 8)
    # same numeric value, two logged constant definitions
    assert t.touched_count() == 2


def test_float32_two_tier_rounds_the_wide_value_once():
    t = TrigTable(dtype=np.float32)
    v = t.half_secant(3, 16)
    wide = 1.0 / (2.0 * math.cos(2.0 * math.pi * 3 / 16))
    assert v == np.float32(wide)
    assert v.dtype == np.float32


def test_single_tier_differs_near_quarter_turn():
    # the secant is steep there, so a float32 angle error is visible
    two = TrigTable(dtype=np.float32, pipeline="two_tier")
    one = TrigTable(dtype=np.float32, pipeline="single_tier")
    slots = [(n, 512) for n in range(120, 128)]
    diffs = [abs(float(two.half_secant(*s)) - float(one.half_secant(*s))) for s in slots]
    assert max(diffs) > 0.0


def test_build_table_footprints():
    assert TrigTable(np.float64).touched_count() == 0  # log starts empty


# pi to more digits than an 80-bit extended float holds, as in the table
WIDE_PI = np.longdouble("3.14159265358979323846264338327950288419716939937510")


def scalar_constant(j, d, dtype, pipeline, secant=True):
    """1/(2 cos(2 pi j/d)), or cos(2 pi j/d), evaluated one key at a time."""
    ft = np.dtype(dtype).type
    if pipeline == "single_tier":
        c = np.cos(ft(2.0) * ft(np.pi) * (ft(j) / ft(d)))
        return ft(1.0) / (ft(2.0) * c) if secant else c
    if ft is np.float32:
        c = math.cos(2.0 * math.pi * (j / d))
    else:
        c = np.cos(2.0 * WIDE_PI * (np.longdouble(j) / np.longdouble(d)))
    return ft(1.0 / (2.0 * c) if secant else c)


@pytest.mark.parametrize("pipeline", ["two_tier", "single_tier"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_vectorised_constants_match_the_scalar_formulas(dtype, pipeline):
    # one vectorised pass per vector must give each constant the bits of
    # its own per-key evaluation
    t = TrigTable(dtype=dtype, pipeline=pipeline)
    want = scalar_constant(1, 8, dtype, pipeline, secant=False)
    assert t.eighth_cos().dtype == want.dtype and t.eighth_cos() == want
    for N in (2 ** k for k in range(3, 17)):
        got = t.half_secants(N, range(1, N // 4))
        want = np.array([scalar_constant(m // math.gcd(m, N), N // math.gcd(m, N),
                                         dtype, pipeline) for m in range(1, N // 4)],
                        dtype=dtype)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), f"N={N}"


def test_vector_lookup_logs_on_every_call():
    t = TrigTable()
    t.half_secants(16, [1, 2, 3])
    assert t.touched_count() == 3
    t.reset_log()
    t.half_secants(16, [1, 2, 3])  # served from cache, still logged
    assert t.touched_count() == 3


def test_vector_lookup_by_range_or_list():
    by_range, by_list = TrigTable(), TrigTable()
    a = by_range.half_secants(64, range(1, 16, 2))
    b = by_list.half_secants(64, list(range(1, 16, 2)))
    assert np.array_equal(a, b)
    assert not a.flags.writeable and not b.flags.writeable
    assert by_range.touched == by_list.touched
    assert by_range.half_secants(64, range(1, 16, 2)) is a
    assert by_range.touched == by_list.touched



# destinations of an out= write, as row selections of an N-row buffer
N_ROWS, MID = 16, 8
DESTINATIONS = {
    "rows": lambda a: a[1:MID],
    "reversed": lambda a: a[N_ROWS - 1:MID:-1],
    "one_row": lambda a: a[0:1],
}
HELPERS = {"cadd": cadd, "csub": csub, "cmul_rows": cmul_rows}


@pytest.mark.parametrize("dest", sorted(DESTINATIONS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("helper,ndim", [
    ("cadd", 1), ("cadd", 2), ("csub", 1), ("csub", 2), ("cmul_rows", 2)])
def test_out_matches_the_fresh_result(helper, ndim, dtype, dest):
    # a kernel that writes a child straight into its slot must give the
    # bits and the count of the fresh result it replaces
    fn, pick = HELPERS[helper], DESTINATIONS[dest]
    rng = np.random.default_rng(8)
    shape = (N_ROWS, 3)[:ndim]
    x = pick(rng.standard_normal(shape).astype(dtype))
    y = pick(rng.standard_normal(N_ROWS if helper == "cmul_rows" else shape).astype(dtype))
    fresh, into = OpCounter(), OpCounter()
    want = fn(fresh, x, y)
    buf = np.full(shape, np.nan, dtype)
    out = pick(buf)
    got = fn(into, x, y, out)
    assert got is out
    assert got.dtype == want.dtype == dtype
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()
    assert (into.adds, into.muls) == (fresh.adds, fresh.muls)
    assert fresh.adds + fresh.muls == want.size
    assert np.isnan(buf).sum() == buf.size - out.size  # nothing else is written
