"""Improved quick Fourier transform: counts, values, footprint."""

import numpy as np
import pytest

from quickfourier import improved, reference
from quickfourier.counting import OpCounter, TrigTable

# complex transform (adds, muls) by periodization
CDFT_COUNTS = {
    4: (16, 0),
    8: (52, 4),
    16: (148, 20),
    32: (388, 68),
    64: (964, 196),
    128: (2308, 516),
    256: (5380, 1284),
    512: (12292, 3076),
    1024: (27652, 7172),
    2048: (61444, 16388),
}


def lg(N):
    return N.bit_length() - 1


def rdft_formula(N):
    return (3 * N * lg(N) // 2 - 5 * N // 2 + 4, N * lg(N) // 2 - 3 * N // 2 + 2)


def dct_formula(N):
    return (3 * N * lg(N) // 4 - 7 * N // 4 + lg(N) + 3, N * lg(N) // 4 - 3 * N // 4 + 1)


def dst_formula(N):
    return (3 * N * lg(N) // 4 - 7 * N // 4 - lg(N) + 3, N * lg(N) // 4 - 3 * N // 4 + 1)


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
    improved.cdft(z, counter=counter)
    assert (counter.adds, counter.muls) == CDFT_COUNTS[N]
    assert counter.flops == counter.adds + counter.muls


def test_cdft_count_formula():
    # adds = 3 N lg N - 3 N + 4, muls = N lg N - 3 N + 4; holds from N = 4 up
    for N, (adds, muls) in CDFT_COUNTS.items():
        assert adds == 3 * N * lg(N) - 3 * N + 4
        assert muls == N * lg(N) - 3 * N + 4


@pytest.mark.parametrize("N", [4, 8, 16, 32, 64, 128, 256, 512, 1024])
def test_component_count_formulas(N):
    rng = np.random.default_rng(N + 1)
    counter = OpCounter()
    improved.rdft(rng.uniform(-0.5, 0.5, N), counter=counter)
    assert (counter.adds, counter.muls) == rdft_formula(N)

    counter = OpCounter()
    improved.dct0(rng.uniform(-0.5, 0.5, N // 2 + 1), counter=counter)
    assert (counter.adds, counter.muls) == dct_formula(N)

    counter = OpCounter()
    improved.dst0(rng.uniform(-0.5, 0.5, N // 2 - 1), counter=counter)
    assert (counter.adds, counter.muls) == dst_formula(N)


def test_counts_at_sixteen():
    # the worked sixteen-point example: 27+5 cosine, 19+5 sine, 60+10 real,
    # 148+20 complex
    assert dct_formula(16) == (27, 5)
    assert dst_formula(16) == (19, 5)
    assert rdft_formula(16) == (60, 10)
    assert CDFT_COUNTS[16] == (148, 20)


def test_improves_on_classical():
    classical_totals = {4: 16, 8: 56, 16: 182, 32: 506, 64: 1298,
                        128: 3170, 256: 7490, 512: 17282, 1024: 39170, 2048: 87554}
    for N, (adds, muls) in CDFT_COUNTS.items():
        assert adds + muls <= classical_totals[N]
        if N >= 16:
            assert adds + muls < classical_totals[N]


@pytest.mark.parametrize("N", [4, 8, 16, 64, 256, 1024])
def test_matches_naive_oracle(N):
    rng = np.random.default_rng(N + 9)
    z = rng.uniform(-0.5, 0.5, 2 * N).view(np.complex128)
    assert rel_rms(improved.cdft(z), reference.cdft_naive(z)) < 1e-13

    x = rng.uniform(-0.5, 0.5, N)
    assert rel_rms(improved.rdft(x), reference.rdft_naive(x)) < 1e-13

    xc = rng.uniform(-0.5, 0.5, N // 2 + 1)
    assert rel_rms(improved.dct0(xc), reference.dct0_naive(xc)) < 1e-13

    xs = rng.uniform(-0.5, 0.5, N // 2 - 1)
    got = improved.dst0(xs)
    want = reference.dst0_naive(xs)
    if N == 4:
        assert np.array_equal(got, want)
    else:
        assert rel_rms(got, want) < 1e-13


def test_agrees_with_classical_values():
    rng = np.random.default_rng(21)
    z = rng.uniform(-0.5, 0.5, 256).view(np.complex128)
    from quickfourier import classical
    np.testing.assert_allclose(improved.cdft(z), classical.cdft(z), rtol=0, atol=1e-12)


@pytest.mark.parametrize("N", [8, 16, 64, 256, 1024, 4096])
def test_trig_footprint(N):
    table = TrigTable(np.float64)
    z = np.random.default_rng(N).uniform(-0.5, 0.5, 2 * N).view(np.complex128)
    improved.cdft(z, table=table, counter=OpCounter())
    assert table.touched_count() == N // 4


def test_footprint_slots():
    # all the half-secant slots plus the eighth-turn cosine
    N = 64
    table = TrigTable(np.float64)
    z = np.random.default_rng(1).uniform(-0.5, 0.5, 2 * N).view(np.complex128)
    improved.cdft(z, table=table, counter=OpCounter())
    want = {("cos8",)}
    for m in range(1, N // 4):
        g = np.gcd(m, N)
        want.add(("sec", int(m // g), int(N // g)))
    assert table.touched == want


def test_batched_matches_single():
    N, T = 64, 5
    rng = np.random.default_rng(11)
    cols = rng.uniform(-0.5, 0.5, (N, T)) + 1j * rng.uniform(-0.5, 0.5, (N, T))
    counter = OpCounter()
    batched = improved.cdft(cols, counter=counter)
    assert counter.adds == CDFT_COUNTS[N][0] * T
    assert counter.muls == CDFT_COUNTS[N][1] * T
    for t in range(T):
        single = improved.cdft(cols[:, t])
        np.testing.assert_allclose(batched[:, t], single, rtol=0, atol=1e-12)


def test_float32_working_precision():
    N = 64
    z = np.random.default_rng(5).uniform(-0.5, 0.5, 2 * N).astype(np.float32)
    z = z.view(np.complex64)
    counter = OpCounter()
    out = improved.cdft(z, counter=counter)
    assert out.dtype == np.complex64
    assert (counter.adds, counter.muls) == CDFT_COUNTS[N]
    assert rel_rms(out, reference.cdft_naive(z.astype(np.complex128))) < 1e-5


def test_validation_errors():
    with pytest.raises(ValueError):
        improved.cdft(np.zeros(6, dtype=np.complex128))
    with pytest.raises(ValueError):
        improved.rdft(np.zeros(12))
    with pytest.raises(ValueError):
        improved.dct0(np.zeros(4))
    with pytest.raises(ValueError):
        improved.dst0(np.zeros(2))  # implies N = 6
    with pytest.raises(ValueError):
        improved.cdft(np.complex128(1))  # 0-d: no signal axis
    # more than two dimensions: neither a signal nor columns of signals
    for fn, stored in ((improved.cdft, 16), (improved.rdft, 16),
                       (improved.dct0, 9), (improved.dst0, 7)):
        with pytest.raises(ValueError):
            fn(np.zeros((stored, 2, 2)))
    # complex samples for a real transform, even with zero imaginary parts
    for fn, stored in ((improved.rdft, 16), (improved.dct0, 9), (improved.dst0, 7)):
        with pytest.raises(ValueError):
            fn(np.zeros(stored, dtype=np.complex128))
        # an object array is refused whatever its elements
        with pytest.raises(ValueError):
            fn(np.array([1j] + [0] * (stored - 1), dtype=object))
    # samples of no numeric dtype, which a cast would turn into NaNs
    for fn, stored in ((improved.cdft, 4), (improved.rdft, 4),
                       (improved.dct0, 3), (improved.dst0, 3)):
        with pytest.raises(ValueError):
            fn(np.array([1, None, 2, 3][:stored], dtype=object))


def test_entry_points_report_their_module():
    for transform in ("cdft", "rdft", "dct0", "dst0"):
        fn = getattr(improved, transform)
        assert fn.__module__ == "quickfourier.improved"
        assert fn.__name__ == fn.__qualname__ == transform
        assert fn.__doc__.startswith("Improved ")
