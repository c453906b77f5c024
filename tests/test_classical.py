"""Classical quick Fourier transform: counts, values, footprint."""

import numpy as np
import pytest

from quickfourier import classical, reference
from quickfourier.counting import OpCounter, build_trig_table

# complex transform (adds, muls) by periodization
CDFT_COUNTS = {
    4: (16, 0),
    8: (52, 4),
    16: (160, 22),
    32: (432, 74),
    64: (1088, 210),
    128: (2624, 546),
    256: (6144, 1346),
    512: (14080, 3202),
    1024: (31744, 7426),
    2048: (70656, 16898),
}

# component transforms (adds, muls) by periodization
RDFT_COUNTS = {
    4: (6, 0), 8: (20, 2), 16: (66, 11), 32: (186, 37), 64: (482, 105),
    128: (1186, 273), 256: (2818, 673), 512: (6530, 1601), 1024: (14850, 3713),
}
DCT_COUNTS = {
    4: (4, 0), 8: (10, 1), 16: (32, 6), 32: (88, 20), 64: (224, 56),
    128: (544, 144), 256: (1280, 352), 512: (2944, 832), 1024: (6656, 1920),
}
DST_COUNTS = {
    4: (0, 0), 8: (4, 1), 16: (20, 5), 32: (68, 17), 64: (196, 49),
    128: (516, 129), 256: (1284, 321), 512: (3076, 769), 1024: (7172, 1793),
}


def rel_rms(got, want):
    got = np.asarray(got, dtype=np.complex128)
    want = np.asarray(want, dtype=np.complex128)
    denom = np.sqrt(np.mean(np.abs(want) ** 2))
    if denom == 0.0:
        return np.sqrt(np.mean(np.abs(got - want) ** 2))
    return float(np.sqrt(np.mean(np.abs(got - want) ** 2)) / denom)


@pytest.mark.parametrize("N", sorted(CDFT_COUNTS))
def test_cdft_counts(N):
    z = np.random.default_rng(N).uniform(-0.5, 0.5, 2 * N).view(np.complex128)
    counter = OpCounter()
    classical.cdft(z, counter=counter)
    assert (counter.adds, counter.muls) == CDFT_COUNTS[N]
    assert counter.flops == counter.adds + counter.muls


def test_cdft_count_formula():
    # adds = (7/2) N lg N - 4 N, muls = N lg N - (11/4) N + 2 for N >= 8
    for N, (adds, muls) in CDFT_COUNTS.items():
        if N < 8:
            continue
        lg = N.bit_length() - 1
        assert adds == 7 * N * lg // 2 - 4 * N
        assert muls == N * lg - 11 * N // 4 + 2


@pytest.mark.parametrize("N", sorted(RDFT_COUNTS))
def test_component_counts(N):
    rng = np.random.default_rng(N + 1)
    counter = OpCounter()
    classical.rdft(rng.uniform(-0.5, 0.5, N), counter=counter)
    assert (counter.adds, counter.muls) == RDFT_COUNTS[N]

    counter = OpCounter()
    classical.dct0(rng.uniform(-0.5, 0.5, N // 2 + 1), counter=counter)
    assert (counter.adds, counter.muls) == DCT_COUNTS[N]

    counter = OpCounter()
    classical.dst0(rng.uniform(-0.5, 0.5, N // 2 - 1), counter=counter)
    assert (counter.adds, counter.muls) == DST_COUNTS[N]


def test_rdft_counts_decompose():
    # folding costs N - 2 adds, then one cosine and one sine transform
    for N in RDFT_COUNTS:
        if N < 4:
            continue
        adds, muls = RDFT_COUNTS[N]
        assert adds == N - 2 + DCT_COUNTS[N][0] + DST_COUNTS[N][0]
        assert muls == DCT_COUNTS[N][1] + DST_COUNTS[N][1]


def test_cdft_counts_decompose():
    # the complex driver runs one real transform on the real parts, one on
    # the imaginary parts, then recombines with 2N - 4 adds
    for N, (adds, muls) in CDFT_COUNTS.items():
        if N not in RDFT_COUNTS:
            continue
        assert adds == 2 * RDFT_COUNTS[N][0] + 2 * N - 4
        assert muls == 2 * RDFT_COUNTS[N][1]


@pytest.mark.parametrize("N", [4, 8, 16, 64, 256, 1024])
def test_matches_naive_oracle(N):
    rng = np.random.default_rng(N + 9)
    z = rng.uniform(-0.5, 0.5, 2 * N).view(np.complex128)
    assert rel_rms(classical.cdft(z), reference.cdft_naive(z)) < 1e-13

    x = rng.uniform(-0.5, 0.5, N)
    assert rel_rms(classical.rdft(x), reference.rdft_naive(x)) < 1e-13

    xc = rng.uniform(-0.5, 0.5, N // 2 + 1)
    assert rel_rms(classical.dct0(xc), reference.dct0_naive(xc)) < 1e-13

    xs = rng.uniform(-0.5, 0.5, N // 2 - 1)
    got = classical.dst0(xs)
    want = reference.dst0_naive(xs)
    if N == 4:
        assert np.array_equal(got, want)
    else:
        assert rel_rms(got, want) < 1e-13


@pytest.mark.parametrize("N", [8, 16, 64, 256, 1024, 4096])
def test_trig_footprint(N):
    table = build_trig_table("classical", N, np.float64)
    z = np.random.default_rng(N).uniform(-0.5, 0.5, 2 * N).view(np.complex128)
    classical.cdft(z, table=table, counter=OpCounter())
    assert table.touched_count() == N // 4 - 1
    # every touched constant is a half-secant slot
    assert all(key[0] == "sec" for key in table.touched)


def test_footprint_is_exactly_the_secant_slots():
    N = 64
    table = build_trig_table("classical", N, np.float64)
    z = np.random.default_rng(1).uniform(-0.5, 0.5, 2 * N).view(np.complex128)
    classical.cdft(z, table=table, counter=OpCounter())
    want = set()
    for m in range(1, N // 4):
        g = np.gcd(m, N)
        want.add(("sec", int(m // g), int(N // g)))
    assert table.touched == want


def test_batched_matches_single():
    N, T = 64, 5
    rng = np.random.default_rng(11)
    cols = rng.uniform(-0.5, 0.5, (N, T)) + 1j * rng.uniform(-0.5, 0.5, (N, T))
    counter = OpCounter()
    batched = classical.cdft(cols, counter=counter)
    assert counter.adds == CDFT_COUNTS[N][0] * T
    assert counter.muls == CDFT_COUNTS[N][1] * T
    for t in range(T):
        single = classical.cdft(cols[:, t])
        np.testing.assert_allclose(batched[:, t], single, rtol=0, atol=1e-12)


def test_float32_working_precision():
    N = 64
    z = np.random.default_rng(5).uniform(-0.5, 0.5, 2 * N).astype(np.float32)
    z = z.view(np.complex64)
    counter = OpCounter()
    out = classical.cdft(z, counter=counter)
    assert out.dtype == np.complex64
    assert (counter.adds, counter.muls) == CDFT_COUNTS[N]
    assert rel_rms(out, reference.cdft_naive(z.astype(np.complex128))) < 1e-5

    x = np.random.default_rng(6).uniform(-0.5, 0.5, N).astype(np.float32)
    out = classical.rdft(x)
    assert out.dtype == np.complex64
    spec = classical.dct0(x[: N // 2 + 1])
    assert spec.dtype == np.float32


def test_validation_errors():
    with pytest.raises(ValueError):
        classical.cdft(np.zeros(6, dtype=np.complex128))
    with pytest.raises(ValueError):
        classical.rdft(np.zeros(12))
    with pytest.raises(ValueError):
        classical.dct0(np.zeros(4))  # implies N = 6
    with pytest.raises(ValueError):
        classical.dst0(np.zeros(0))  # too short for N >= 4
    with pytest.raises(ValueError):
        # working dtype of the table must match the buffer dtype
        table = build_trig_table("classical", 16, np.float32)
        classical.cdft(np.zeros(16, dtype=np.complex128), table=table)
    with pytest.raises(ValueError):
        classical.cdft(np.complex128(1))  # 0-d: no signal axis
    # more than two dimensions: neither a signal nor columns of signals
    for fn, stored in ((classical.cdft, 16), (classical.rdft, 16),
                       (classical.dct0, 9), (classical.dst0, 7)):
        with pytest.raises(ValueError):
            fn(np.zeros((stored, 2, 2)))
    # complex samples for a real transform, even with zero imaginary parts
    for fn, stored in ((classical.rdft, 16), (classical.dct0, 9), (classical.dst0, 7)):
        with pytest.raises(ValueError):
            fn(np.zeros(stored, dtype=np.complex128))


def test_entry_points_report_their_module():
    for transform in ("cdft", "rdft", "dct0", "dst0"):
        fn = getattr(classical, transform)
        assert fn.__module__ == "quickfourier.classical"
        assert fn.__name__ == fn.__qualname__ == transform
        assert fn.__doc__.startswith("Classical ")
