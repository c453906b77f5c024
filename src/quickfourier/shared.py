"""Real-field drivers and public entry points shared by both fast transforms.

A real DFT folds into one even-symmetric (cosine) and one odd-symmetric
(sine) problem; a complex DFT runs one real DFT per component and then
recombines mirrored harmonics.  These two reductions, and the public
cdft/rdft/dct0/dst0 around them, are the same for the classical and the
improved recursion, so one implementation serves both, parameterized by
the cosine/sine transform callables.

Input contract of the public transforms: one signal as a 1-D array, or
independent signals as the columns of a 2-D array.  cdft takes any
numeric samples and works in complex64 for complex64 input, complex128
otherwise; rdft/dct0/dst0 take real samples and work in float32 for
float32 input, float64 otherwise.  Any other number of dimensions,
complex samples for a real transform, or a stored length that does not
give a power-of-two periodization raises ValueError.

Buffer conventions (one signal per column when batched):
  * real input: cell n holds s(n), n = 0..N-1.
  * packed half spectrum: [Re(0), Re(1), Im(1), Re(2), Im(2), ..., Re(N/2)],
    N real cells for the N/2+1 reported harmonics.
  * interleaved complex: cell 2n holds Re, cell 2n+1 holds Im.
"""

import numpy as np

from .counting import OpCounter, TrigTable, cadd, csub, rows_like


def rdft_packed(x, N, dct_fn, dst_fn, table, counter):
    """Packed half spectrum of a real signal via one cosine and one sine transform."""
    if N == 2:
        out = rows_like(x, 2)
        out[0] = cadd(counter, x[0], x[1])
        out[1] = csub(counter, x[0], x[1])
        return out
    m = N // 2
    head = x[1:m]
    tail = x[N - 1:m:-1]
    dc = rows_like(x, m + 1)
    dc[0] = x[0]
    dc[m] = x[m]
    dc[1:m] = cadd(counter, head, tail)  # even-symmetric part
    ds = csub(counter, head, tail)       # odd-symmetric part
    spec_c = dct_fn(dc, N, table, counter)
    spec_s = dst_fn(ds, N, table, counter)
    out = rows_like(x, N)
    out[0] = spec_c[0]
    out[N - 1] = spec_c[m]
    out[1:N - 1:2] = spec_c[1:m]
    out[2:N - 1:2] = -spec_s  # Im(k) = -sine spectrum; the sign flip is free
    return out


def cdft_interleaved(x, N, dct_fn, dst_fn, table, counter):
    """Interleaved complex spectrum from one real DFT per component."""
    if N == 2:
        out = rows_like(x, 4)
        out[0] = cadd(counter, x[0], x[2])
        out[1] = cadd(counter, x[1], x[3])
        out[2] = csub(counter, x[0], x[2])
        out[3] = csub(counter, x[1], x[3])
        return out
    m = N // 2
    r1 = rdft_packed(x[0::2], N, dct_fn, dst_fn, table, counter)
    r2 = rdft_packed(x[1::2], N, dct_fn, dst_fn, table, counter)
    out = rows_like(x, 2 * N)
    # harmonics 0 and N/2 are real in each half-spectrum: plain copies
    out[0] = r1[0]
    out[1] = r2[0]
    out[N] = r1[N - 1]
    out[N + 1] = r2[N - 1]
    a = r1[1:N - 1:2]  # Re of component-1 spectrum, k = 1..N/2-1
    b = r1[2:N - 1:2]  # Im of component-1 spectrum
    c = r2[1:N - 1:2]  # Re of component-2 spectrum
    d = r2[2:N - 1:2]  # Im of component-2 spectrum
    out[2:N - 1:2] = csub(counter, a, d)        # Re S(k)
    out[2 * N - 2:N:-2] = cadd(counter, a, d)   # Re S(N-k)
    out[3:N:2] = cadd(counter, b, c)            # Im S(k)
    out[2 * N - 1:N + 1:-2] = csub(counter, c, b)  # Im S(N-k)
    return out


# -- uncounted boundary packing ---------------------------------------------

def interleave_complex(z, dtype):
    """Interleaved real buffer from a complex signal (vector or columns)."""
    z = np.asarray(z)
    buf = np.empty((2 * z.shape[0],) + z.shape[1:], dtype=dtype)
    buf[0::2] = z.real
    buf[1::2] = z.imag
    return buf


def complex_from_interleaved(buf):
    cdtype = np.complex64 if buf.dtype == np.float32 else np.complex128
    out = np.empty((buf.shape[0] // 2,) + buf.shape[1:], dtype=cdtype)
    out.real = buf[0::2]
    out.imag = buf[1::2]
    return out


def complex_from_packed(buf, N):
    cdtype = np.complex64 if buf.dtype == np.float32 else np.complex128
    out = np.zeros((N // 2 + 1,) + buf.shape[1:], dtype=cdtype)
    out.real[0] = buf[0]
    out.real[N // 2] = buf[N - 1]
    out.real[1:N // 2] = buf[1:N - 1:2]
    out.imag[1:N // 2] = buf[2:N - 1:2]
    return out


# -- public entry points ----------------------------------------------------

_default_tables = {}


def _resolve(x, table, counter):
    dtype = x.dtype
    if table is None:
        table = _default_tables.get(dtype.name)
        if table is None:
            table = TrigTable(dtype=dtype)
            _default_tables[dtype.name] = table
    if np.dtype(table.dtype) != dtype:
        raise ValueError(f"table dtype {table.dtype} does not match input dtype {dtype}")
    if counter is None:
        counter = OpCounter()
    return table, counter


def _signal(values):
    x = np.asarray(values)
    if x.ndim not in (1, 2):
        raise ValueError(f"expected one signal (1-D) or columns of signals (2-D), "
                         f"got a {x.ndim}-D array")
    return x


def _prep_real(values, min_n, kind):
    x = _signal(values)
    if np.iscomplexobj(x):
        raise ValueError("this transform takes real samples; use cdft for complex ones")
    if x.dtype not in (np.float32, np.float64):
        x = x.astype(np.float64)
    n_vals = x.shape[0]
    if kind == "full":
        N = n_vals
    elif kind == "dc":
        N = 2 * (n_vals - 1)
    else:
        N = 2 * (n_vals + 1)
    if N < min_n or N & (N - 1):
        raise ValueError(f"stored length {n_vals} does not give a power-of-two periodization >= {min_n}")
    return x, N


def entry_points(module, dct_fn, dst_fn):
    """(cdft, rdft, dct0, dst0) of the recursion with these cosine/sine kernels.

    module is the binding module's __name__.  Each function reports
    itself as part of that module and names its algorithm, so help(),
    profilers and tracers that sort functions by module tell the two
    recursions apart.
    """
    algorithm = module.rpartition(".")[2].capitalize()

    def cdft(values, table=None, counter=None):
        """complex DFT, reported for k = 0..N-1."""
        z = _signal(values)
        dtype = np.float32 if z.dtype == np.complex64 else np.float64
        z = np.asarray(z, dtype=np.complex64 if dtype == np.float32 else np.complex128)
        N = z.shape[0]
        if N < 2 or N & (N - 1):
            raise ValueError(f"periodization must be a power of two >= 2, got {N}")
        buf = interleave_complex(z, dtype)
        table, counter = _resolve(buf, table, counter)
        out = cdft_interleaved(buf, N, dct_fn, dst_fn, table, counter)
        return complex_from_interleaved(out)

    def rdft(values, table=None, counter=None):
        """real-input DFT, reported for k = 0..N/2."""
        x, N = _prep_real(values, 2, "full")
        table, counter = _resolve(x, table, counter)
        packed = rdft_packed(x, N, dct_fn, dst_fn, table, counter)
        return complex_from_packed(packed, N)

    def dct0(values, table=None, counter=None):
        """cosine transform; values are s(0)..s(N/2)."""
        x, N = _prep_real(values, 2, "dc")
        table, counter = _resolve(x, table, counter)
        return dct_fn(x, N, table, counter)

    def dst0(values, table=None, counter=None):
        """sine transform; values are s(1)..s(N/2-1)."""
        x, N = _prep_real(values, 4, "ds")
        table, counter = _resolve(x, table, counter)
        return dst_fn(x, N, table, counter)

    fns = (cdft, rdft, dct0, dst0)
    for fn in fns:
        fn.__module__ = module
        fn.__qualname__ = fn.__name__
        fn.__doc__ = f"{algorithm} {fn.__doc__}"
    return fns
