"""Oracle tests against frozen values from an independent 50-digit evaluation."""

import numpy as np
import pytest

from quickfourier.reference import (
    cdft_naive,
    cdft_naive_compensated,
    dct0_naive,
    dct0_naive_compensated,
    dst0_naive,
    dst0_naive_compensated,
    pruned_naive,
    rdft_naive,
)
from quickfourier.taxonomy import SignalView

RE8 = [0.5, -0.25, 0.75, -1.0, 0.125, 1.5, -0.625, 0.375]
IM8 = [-0.5, 0.375, 0.25, -0.125, 1.0, -0.75, 0.0625, -1.5]
DC16 = [1.0, -0.5, 0.25, 0.75, -1.25, 0.5, -0.75, 0.375, -0.125]
DS16 = [0.5, -1.0, 0.25, 0.125, -0.75, 1.5, -0.375]

CDFT8_RE = [1.375, 2.0651019100214136, 1.75, 2.2204319959113241, 0.125,
            -0.94010191002141352, -0.75, -1.8454319959113241]
CDFT8_IM = [-1.1875, -0.84206800408867588, -1.6875, 2.2614853865045981, 2.8125,
            -4.9079319959113246, 2.0625, -2.5114853865045981]
RDFT8_RE = [1.375, 0.10983495705504467, 0.5, 0.64016504294495535, 0.125]
RDFT8_IM = [0.0, 0.83470869120796098, -1.875, 3.5847086912079611, 0.0]
DCT16 = [0.25, 1.1193830483304441, 1.1527281758684971, -0.14792466763382275,
         0.125, 0.98371110526072769, 3.0972718241315027, 2.5448305140426508, -2.0]
DST16 = [0.064449053383266605, -1.1741747852752233, 0.53538004833972952, -0.125,
         0.078273267153181975, 3.8258252147247767, -0.8926577278032809]
PRUNED_DC_OT8 = [1.5, 0.35355339059327379]
PRUNED_DS_OT16 = [0.91708041396744766, -1.2374368670764582, 2.8673094556251328, -0.25]

TOL = 1e-13


def test_cdft_rotation_n4():
    # s(n) = i^n concentrates everything in harmonic 1
    out = cdft_naive([1, 1j, -1, -1j])
    assert np.allclose(out, [0, 4, 0, 0], atol=1e-14)


def test_rdft_small_by_hand():
    out = rdft_naive([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(out, [10.0, -2.0 + 2.0j, -2.0], atol=1e-14)


def test_dct0_impulse_gives_flat_spectrum():
    out = dct0_naive([1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(out, np.ones(5), atol=1e-15)


def test_dst0_single_sample():
    out = dst0_naive([1.0, 0.0, 0.0])
    r = np.sqrt(2.0) / 2.0
    assert np.allclose(out, [r, 1.0, r], atol=1e-15)


def test_cdft_frozen_n8():
    out = cdft_naive(np.array(RE8) + 1j * np.array(IM8))
    assert np.allclose(out.real, CDFT8_RE, atol=TOL)
    assert np.allclose(out.imag, CDFT8_IM, atol=TOL)


def test_rdft_frozen_n8():
    out = rdft_naive(RE8)
    assert np.allclose(out.real, RDFT8_RE, atol=TOL)
    assert np.allclose(out.imag, RDFT8_IM, atol=TOL)


def test_dct0_frozen_n16():
    assert np.allclose(dct0_naive(DC16), DCT16, atol=TOL)


def test_dst0_frozen_n16():
    assert np.allclose(dst0_naive(DS16), DST16, atol=TOL)


def test_compensated_agrees_with_frozen():
    out = cdft_naive_compensated(np.array(RE8) + 1j * np.array(IM8))
    assert np.allclose(out.real, CDFT8_RE, atol=1e-14)
    assert np.allclose(out.imag, CDFT8_IM, atol=1e-14)
    assert np.allclose(dct0_naive_compensated(DC16), DCT16, atol=1e-14)
    assert np.allclose(dst0_naive_compensated(DS16), DST16, atol=1e-14)


@pytest.mark.parametrize("N", [8, 16, 32, 64])
def test_oracles_agree_with_compensated_twins(N):
    rng = np.random.default_rng(N)
    z = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    assert np.allclose(cdft_naive(z), cdft_naive_compensated(z), rtol=0, atol=1e-13)
    c = rng.standard_normal(N // 2 + 1)
    assert np.allclose(dct0_naive(c), dct0_naive_compensated(c), rtol=0, atol=1e-13)
    s = rng.standard_normal(N // 2 - 1)
    assert np.allclose(dst0_naive(s), dst0_naive_compensated(s), rtol=0, atol=1e-13)


def test_batch_matches_single():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5))
    batch = cdft_naive(X)
    for j in range(5):
        assert np.allclose(batch[:, j], cdft_naive(X[:, j]), atol=1e-13)
    R = rng.standard_normal((16, 3))
    rb = rdft_naive(R)
    for j in range(3):
        assert np.allclose(rb[:, j], rdft_naive(R[:, j]), atol=1e-13)
    D = rng.standard_normal((9, 3))
    db = dct0_naive(D)
    for j in range(3):
        assert np.allclose(db[:, j], dct0_naive(D[:, j]), atol=1e-13)


def test_batch_chunking_covers_large_n():
    # one size beyond the chunk width so the loop is exercised
    x = np.zeros(1024)
    x[0] = 1.0
    out = rdft_naive(x)
    assert np.allclose(out, np.ones(513), atol=1e-14)


def test_pruned_full_types_match_plain_oracles():
    v = SignalView("cx_tt", 8, np.array(RE8) + 1j * np.array(IM8))
    assert np.allclose(pruned_naive(v), cdft_naive(np.array(RE8) + 1j * np.array(IM8)), atol=1e-13)
    v = SignalView("re_tt", 8, RE8)
    assert np.allclose(pruned_naive(v), rdft_naive(RE8), atol=1e-13)
    v = SignalView("dc_tt", 16, DC16)
    assert np.allclose(pruned_naive(v), DCT16, atol=TOL)
    v = SignalView("ds_tt", 16, DS16)
    assert np.allclose(pruned_naive(v), DST16, atol=TOL)


def test_pruned_frozen_partial_types():
    v = SignalView("dc_ot", 8, [1.0, 0.5])
    assert np.allclose(pruned_naive(v), PRUNED_DC_OT8, atol=TOL)
    v = SignalView("ds_ot", 16, [1.0, -0.5, 0.25, 2.0])
    assert np.allclose(pruned_naive(v), PRUNED_DS_OT16, atol=TOL)
    # single-sample type: harmonic 1 sees sin(2 pi (N/4) / N) = 1
    v = SignalView("ds_e1o", 16, [0.625])
    assert np.allclose(pruned_naive(v), [0.625], atol=1e-15)


def test_input_length_validation():
    with pytest.raises(ValueError):
        dct0_naive([1.0, 2.0, 3.0], N=16)
    with pytest.raises(ValueError):
        dst0_naive([1.0, 2.0, 3.0], N=16)
