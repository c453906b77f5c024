"""Brute-force reference transforms.

Direct evaluation of the defining sums, used as oracles for the fast
algorithms.  Every variant reduces the trig argument index modulo the
periodization before calling the library cos/sin, which keeps the
O(N^2) sums accurate enough to judge a fast transform at double
precision.  Each oracle takes one signal as a vector, or many as the
columns of a matrix, and evaluates them against chunks of the
coefficient matrix so large oracle runs stay within time and memory
budgets; the compensated variants use exact per-term summation and exist
for small cross-checks of the oracles themselves.
"""

import math

import numpy as np

from .taxonomy import SignalView, sto_k, sto_n, transform_kind

_CHUNK = 256


def _as_columns(x, dtype):
    """(x as columns, whether x was one 1-D signal)."""
    x = np.asarray(x, dtype=dtype)
    if x.ndim == 1:
        return x[:, None], True
    if x.ndim == 2:
        return x, False
    raise ValueError("expected a signal vector or a (values, signals) matrix")


def cdft_naive(x):
    """Full complex DFT of each column: S(k) = sum_n s(n) e^(-2 pi i n k / N)."""
    X, single = _as_columns(x, np.complex128)
    N = X.shape[0]
    n = np.arange(N, dtype=np.int64)
    out = np.empty_like(X)
    for k0 in range(0, N, _CHUNK):
        ks = np.arange(k0, min(k0 + _CHUNK, N), dtype=np.int64)
        kn = (ks[:, None] * n[None, :]) % N
        w = np.exp((-2j * np.pi / N) * kn)
        out[ks] = w @ X
    return out[:, 0] if single else out


def rdft_naive(x):
    """Real-input DFT of each column, reported for k = 0..N/2."""
    X, single = _as_columns(x, np.float64)
    N = X.shape[0]
    n = np.arange(N, dtype=np.int64)
    out = np.empty((N // 2 + 1,) + X.shape[1:], dtype=np.complex128)
    for k0 in range(0, N // 2 + 1, _CHUNK):
        ks = np.arange(k0, min(k0 + _CHUNK, N // 2 + 1), dtype=np.int64)
        kn = (ks[:, None] * n[None, :]) % N
        w = np.exp((-2j * np.pi / N) * kn)
        out[ks] = w @ X
    return out[:, 0] if single else out


def _cosine_matrix(ks, ns, N, kind):
    kn = (ks[:, None] * ns[None, :]) % N
    ang = (2.0 * np.pi / N) * kn
    return np.cos(ang) if kind == "cos" else np.sin(ang)


def dct0_naive(x, N=None):
    """Even-symmetric real transform: S(k) = sum_{n=0..N/2} s(n) cos(2 pi n k / N)."""
    X, single = _as_columns(x, np.float64)
    if N is None:
        N = 2 * (X.shape[0] - 1)
    if X.shape[0] != N // 2 + 1:
        raise ValueError(f"need {N // 2 + 1} samples s(0..N/2), got {X.shape[0]}")
    ns = np.arange(N // 2 + 1, dtype=np.int64)
    out = np.empty_like(X)
    for k0 in range(0, N // 2 + 1, _CHUNK):
        ks = np.arange(k0, min(k0 + _CHUNK, N // 2 + 1), dtype=np.int64)
        out[ks] = _cosine_matrix(ks, ns, N, "cos") @ X
    return out[:, 0] if single else out


def dst0_naive(x, N=None):
    """Odd-symmetric real transform: S(k) = sum_{n=1..N/2-1} s(n) sin(2 pi n k / N)."""
    X, single = _as_columns(x, np.float64)
    if N is None:
        N = 2 * (X.shape[0] + 1)
    if X.shape[0] != N // 2 - 1:
        raise ValueError(f"need {N // 2 - 1} samples s(1..N/2-1), got {X.shape[0]}")
    ns = np.arange(1, N // 2, dtype=np.int64)
    out = np.empty_like(X)
    for k0 in range(1, N // 2, _CHUNK):
        ks = np.arange(k0, min(k0 + _CHUNK, N // 2), dtype=np.int64)
        out[ks - 1] = _cosine_matrix(ks, ns, N, "sin") @ X
    return out[:, 0] if single else out


def pruned_naive(view):
    """Spectrum of a SignalView by direct summation over its stored indices.

    Returns one value per stored harmonic, in slot order: real values for
    the cosine/sine types, complex values for cx_tt and re_tt.
    """
    ns = np.fromiter(sto_n(view.type, view.N), dtype=np.int64)
    ks = np.fromiter(sto_k(view.type, view.N), dtype=np.int64)
    kind = transform_kind(view.type)
    vals = view.buffer
    if kind == "dct0":
        return _cosine_matrix(ks, ns, view.N, "cos") @ vals.astype(np.float64)
    if kind == "dst0":
        return _cosine_matrix(ks, ns, view.N, "sin") @ vals.astype(np.float64)
    kn = (ks[:, None] * ns[None, :]) % view.N
    w = np.exp((-2j * np.pi / view.N) * kn)
    return w @ vals.astype(np.complex128)


def _fsum_pair(terms_re, terms_im):
    return complex(math.fsum(terms_re), math.fsum(terms_im))


def cdft_naive_compensated(x):
    """Exact-summation complex DFT; O(N^2) python loop, small N only."""
    x = [complex(v) for v in x]
    N = len(x)
    out = []
    for k in range(N):
        tre, tim = [], []
        for n, v in enumerate(x):
            c = math.cos(2.0 * math.pi * ((n * k) % N) / N)
            s = math.sin(2.0 * math.pi * ((n * k) % N) / N)
            tre += [v.real * c, v.imag * s]
            tim += [-v.real * s, v.imag * c]
        out.append(_fsum_pair(tre, tim))
    return np.array(out, dtype=np.complex128)


def dct0_naive_compensated(x, N=None):
    x = [float(v) for v in x]
    if N is None:
        N = 2 * (len(x) - 1)
    out = []
    for k in range(N // 2 + 1):
        out.append(math.fsum(
            v * math.cos(2.0 * math.pi * ((n * k) % N) / N)
            for n, v in enumerate(x)))
    return np.array(out)


def dst0_naive_compensated(x, N=None):
    x = [float(v) for v in x]
    if N is None:
        N = 2 * (len(x) + 1)
    out = []
    for k in range(1, N // 2):
        out.append(math.fsum(
            v * math.sin(2.0 * math.pi * (((n + 1) * k) % N) / N)
            for n, v in enumerate(x)))
    return np.array(out)
