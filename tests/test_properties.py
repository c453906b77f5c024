"""Properties of every fast transform at large N, with numpy.fft as the oracle.

Each property runs for both algorithms and both dtypes, on one signal or
two columns of signals, and holds within the benchmark's tolerances: a
relative RMS error of 1e-11 in float64 and 100 float32 epsilons in
float32.  Where a property relates a fast result to a spectrum, that
spectrum is numpy.fft's, in float64, of the same samples.
"""

import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quickfourier import classical, improved
from quickfourier.accuracy import relative_rms_error
from quickfourier.counting import OpCounter
from quickfourier.taxonomy import stored_length

MODULES = {"classical": classical, "improved": improved}
DTYPES = [np.float32, np.float64]
TOLERANCE = {np.float32: 100 * float(np.finfo(np.float32).eps), np.float64: 1e-11}

PROPERTY = settings(max_examples=10, deadline=None, database=None)
SIZES = st.integers(2, 16)  # lg N, capped per dtype by size()
# lg N of the largest size each dtype is checked at.  The float32 error
# grows with N (about N^0.6), and from N = 2^15 on some inputs exceed
# 100 float32 epsilons: 7 of 1,280 sampled columns at 2^15 and 2^16 over
# the eight entry points, up to 1.29e-5 against 1.19e-5.  At 2^14 the
# largest of 1,600 columns of classical dst0 read 9.7e-6, too near the
# tolerance for a randomized test; at 2^13 the largest of 25,600 columns
# over the eight entry points read 5.6e-6.  float64 stays below 4e-14 at
# 2^16
MAX_LG = {np.float32: 13, np.float64: 16}
COLUMNS = st.sampled_from([None, 2])  # one 1-D signal, or two columns
SEEDS = st.integers(0, 2**32 - 1)


def size(lg, dtype):
    """N = 2^lg, capped at the largest size dtype is checked at."""
    return 1 << min(lg, MAX_LG[dtype])


def samples(transform, N, cols, dtype, rng):
    """Uniform(-0.5, 0.5) input of transform at N: complex for cdft."""
    shape = (stored_length(transform, N),) + (() if cols is None else (cols,))
    x = rng.uniform(-0.5, 0.5, shape).astype(dtype)
    if transform == "cdft":
        x = x + 1j * rng.uniform(-0.5, 0.5, shape).astype(dtype)
    return x


def extension(transform, s, N):
    """The real signal of period N whose rdft holds s's dct0 or dst0.

    The even extension of s(0..N/2), and the odd one of s(1..N/2-1), each
    with s(n)/2 on both sides of a mirrored pair: its rdft's real part is
    the dct0 of s, and its negated imaginary part the dst0 of s.
    """
    m = N // 2
    x = np.zeros((N,) + s.shape[1:], s.dtype)
    if transform == "dct0":
        x[0], x[m] = s[0], s[m]
        x[1:m] = x[N - 1:m:-1] = s[1:m] / 2
    else:
        x[1:m] = s / 2
        x[N - 1:m:-1] = -s / 2
    return x


def oracle(transform, x, N):
    """numpy.fft's spectrum of x, in float64, in the transform's layout."""
    if transform == "cdft":
        return np.fft.fft(x.astype(np.complex128), axis=0)
    if transform == "rdft":
        return np.fft.rfft(x.astype(np.float64), axis=0)
    spectrum = np.fft.rfft(extension(transform, x.astype(np.float64), N), axis=0)
    return spectrum.real if transform == "dct0" else -spectrum.imag[1:N // 2]


def assert_close(got, want, dtype):
    assert got.shape == want.shape
    assert np.max(relative_rms_error(got, want)) <= TOLERANCE[dtype]


def energy(transform, spectrum):
    """Energy of a spectrum over its whole period: a half spectrum's
    harmonics other than 0 and N/2 stand for their mirror images too."""
    e = np.abs(spectrum.astype(np.complex128)) ** 2
    if transform == "cdft":
        return e.sum(axis=0)
    if transform == "dst0":
        return 2 * e.sum(axis=0)
    return e[0] + e[-1] + 2 * e[1:-1].sum(axis=0)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("transform", ["cdft", "rdft", "dct0", "dst0"])
@pytest.mark.parametrize("algorithm", sorted(MODULES))
@PROPERTY
@given(lg=SIZES, cols=COLUMNS, seed=SEEDS)
@example(lg=16, cols=None, seed=0)
def test_linearity(algorithm, transform, dtype, lg, cols, seed):
    # the transform of a x + b y is a times that of x plus b times that of y
    N, rng = size(lg, dtype), np.random.default_rng(seed)
    x, y = (samples(transform, N, cols, dtype, rng) for _ in range(2))
    a, b = rng.uniform(0.5, 2, 2) * rng.choice([-1, 1], 2)
    got = getattr(MODULES[algorithm], transform)((a * x + b * y).astype(x.dtype))
    assert_close(got, a * oracle(transform, x, N) + b * oracle(transform, y, N), dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("transform", ["cdft", "rdft", "dct0", "dst0"])
@pytest.mark.parametrize("algorithm", sorted(MODULES))
@PROPERTY
@given(lg=SIZES, cols=COLUMNS, seed=SEEDS)
@example(lg=16, cols=None, seed=1)
def test_parseval(algorithm, transform, dtype, lg, cols, seed):
    # a spectrum holds N times the energy of its signal over one period
    N = size(lg, dtype)
    x = samples(transform, N, cols, dtype, np.random.default_rng(seed))
    got = energy(transform, getattr(MODULES[algorithm], transform)(x))
    period = x if transform in ("cdft", "rdft") else extension(transform, x, N)
    want = N * (np.abs(period.astype(np.complex128)) ** 2).sum(axis=0)
    assert np.max(np.abs(got - want) / want) <= TOLERANCE[dtype]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("algorithm", sorted(MODULES))
@PROPERTY
@given(lg=SIZES, cols=COLUMNS, seed=SEEDS, shift=st.integers(0, 2**16))
@example(lg=16, cols=None, seed=2, shift=12345)
def test_circular_shift_is_a_phase_ramp(algorithm, dtype, lg, cols, seed, shift):
    # delaying a signal by r samples turns harmonic k by exp(-2 pi i r k / N)
    N = size(lg, dtype)
    z = samples("cdft", N, cols, dtype, np.random.default_rng(seed))
    r = shift % N
    got = MODULES[algorithm].cdft(np.roll(z, r, axis=0))
    k = np.arange(N).reshape((N,) + (1,) * (z.ndim - 1))
    ramp = np.exp(-2j * np.pi * ((r * k) % N) / N)  # the angle reduced exactly
    assert_close(got, ramp * oracle("cdft", z, N), dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("algorithm", sorted(MODULES))
@PROPERTY
@given(lg=SIZES, cols=COLUMNS, seed=SEEDS)
@example(lg=16, cols=None, seed=3)
def test_rdft_is_the_first_half_of_cdft(algorithm, dtype, lg, cols, seed):
    # real samples given to cdft as complex ones of the same dtype: the
    # first N/2 + 1 harmonics are rdft's, and the rest mirror them as
    # complex conjugates (Hermitian symmetry)
    N = size(lg, dtype)
    module = MODULES[algorithm]
    x = samples("rdft", N, cols, dtype, np.random.default_rng(seed))
    got = module.rdft(x)
    assert_close(got, oracle("rdft", x, N), dtype)
    full = module.cdft(x.astype(np.complex64 if dtype == np.float32 else np.complex128))
    assert_close(got, full[:N // 2 + 1], dtype)
    assert_close(full[N - 1:N // 2:-1], np.conj(got[1:N // 2]), dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("transform", ["dct0", "dst0"])
@pytest.mark.parametrize("algorithm", sorted(MODULES))
@PROPERTY
@given(lg=SIZES, cols=COLUMNS, seed=SEEDS)
@example(lg=16, cols=None, seed=4)
def test_cosine_and_sine_transforms_are_parts_of_rdft(algorithm, transform, dtype, lg,
                                                      cols, seed):
    # dct0 is the real part of the rdft of the even extension, dst0 the
    # negated imaginary part of the rdft of the odd extension
    N = size(lg, dtype)
    module = MODULES[algorithm]
    s = samples(transform, N, cols, dtype, np.random.default_rng(seed))
    got = getattr(module, transform)(s)
    assert_close(got, oracle(transform, s, N), dtype)
    spectrum = module.rdft(extension(transform, s, N))
    assert_close(got, spectrum.real if transform == "dct0" else -spectrum.imag[1:N // 2],
                 dtype)


@pytest.mark.parametrize("transform", ["cdft", "rdft", "dct0", "dst0"])
@pytest.mark.parametrize("algorithm", sorted(MODULES))
@PROPERTY
@given(lg=SIZES, k=st.integers(2, 3), seed=SEEDS)
@example(lg=16, k=3, seed=5)
def test_k_columns_count_k_times_one(algorithm, transform, lg, k, seed):
    # columns are independent signals: a call on k of them charges exactly
    # k times the adds and muls of a call on one
    N = size(lg, np.float64)
    x = samples(transform, N, k, np.float64, np.random.default_rng(seed))
    fn = getattr(MODULES[algorithm], transform)
    one, many = OpCounter(), OpCounter()
    fn(x[:, 0], counter=one)
    fn(x, counter=many)
    assert (many.adds, many.muls) == (k * one.adds, k * one.muls)


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st

@settings(database=None, deadline=None, derandomize=True)
@given(st.integers(0, 100))
def test_fails(n):
    assert n < 10
"""


def test_a_failing_property_reports_its_example(tmp_path):
    # under this project's pytest settings, where warnings are errors, a
    # failing property must end in a failure report with its falsifying
    # example, not in an INTERNALERROR that stops the run
    shutil.copy(pathlib.Path(__file__).parents[1] / "pyproject.toml", tmp_path)
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "test_failing.py"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
