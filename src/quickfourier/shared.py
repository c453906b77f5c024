"""Level scheduler, real-field drivers and public entry points of both transforms.

Each fast transform is declared as a step table: a dict that maps a
signal type (dc_tt, dc_ot, ds_to, ...) to a Step.  A Step gives

  * leaf: the largest periodization N that its base case handles;
  * base(x, N, table, counter): the spectrum of a leaf;
  * forward(x, N, table, counter): the children as (type, N, buffer)
    triples, plus a state that the backward step needs (or None);
  * backward(N, state, spectra, counter): the spectrum, from the
    children's spectra in the order forward listed them.

run_levels runs a table level by level rather than depth first.  It
groups pending subproblems by (type, N), stacks the buffers of a group
as columns and runs one base or forward call on the whole group, in
decreasing N and, within one N, in table order.  Every table lists a
type before the types that it produces at the same N, so a group is
complete when its turn comes.  The backward pass then runs in reverse
order and hands each child spectrum back as a column slice.  Every
kernel works column by column and charges one operation per value it
returns, so stacking changes neither a bit of a result nor a count; it
only replaces thousands of small calls by a few dozen wide ones.

A real DFT folds into one even-symmetric (cosine) and one odd-symmetric
(sine) problem; a complex DFT runs one real DFT per component and then
recombines mirrored harmonics.  These reductions and the public
cdft/rdft/dct0/dst0 around them are the same for the classical and the
improved recursion, so one implementation serves both, parameterized by
the step table.

Input contract of the public transforms: one signal as a 1-D array, or
independent signals as the columns of a 2-D array.  cdft takes any
numeric samples and works in complex64 for complex64 input, complex128
otherwise; rdft/dct0/dst0 take real samples and work in float32 for
float32 input, float64 otherwise.  Any other number of dimensions,
complex samples for a real transform, or a stored length that does not
give a power-of-two periodization raises ValueError.

Buffer conventions: every internal buffer is 2-D, rows by columns, one
signal per column.  The entry points turn a 1-D signal into a free
(n, 1) view and squeeze the result back.  Within a column:
  * real input: cell n holds s(n), n = 0..N-1.
  * packed half spectrum: [Re(0), Re(1), Im(1), Re(2), Im(2), ..., Re(N/2)],
    N real cells for the N/2+1 reported harmonics.
  * interleaved complex: cell 2n holds Re, cell 2n+1 holds Im.
"""

from collections import namedtuple

import numpy as np

from .counting import OpCounter, TrigTable, cadd, csub, rows_like
from .elaborations import (
    HALVE_HARMONICS_CHILD,
    HALVE_TIME_CHILD,
    HARMONIC_SPLIT_CHILDREN,
    TIME_SPLIT_CHILDREN,
    split_harmonic_parity_backward,
    split_harmonic_parity_forward,
    split_time_parity_backward,
    split_time_parity_forward,
)

# one entry of a step table; the module docstring gives the fields
Step = namedtuple("Step", "leaf base forward backward")


def run_levels(steps, sig_type, N, x, table, counter):
    """Spectrum of the sig_type buffer x at periodization N, run level by level.

    x is handed over: each buffer is dropped as soon as its forward step
    has consumed it, so a caller that passes x unnamed lets it go early.
    """
    pending = {(sig_type, N): [x]}  # group -> buffers, in column order
    width = {}                      # group -> columns claimed so far
    uses = {}                       # group -> parts whose spectra are unread
    spectra = {}
    done = []                       # (group, state, child slots), forward order
    del x
    n = N
    while n:
        for t, step in steps.items():
            parts = pending.pop((t, n), None)
            if parts is None:
                continue
            key = (t, n)
            uses[key] = len(parts)
            x = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
            parts = None
            if n <= step.leaf:
                spectra[key] = step.base(x, n, table, counter)
                x = None
                continue
            children, state = step.forward(x, n, table, counter)
            x = None
            slots = []
            for child_type, child_n, buf in children:
                child = (child_type, child_n)
                c0 = width.get(child, 0)
                width[child] = c0 + buf.shape[1]
                pending.setdefault(child, []).append(buf)
                slots.append((child, c0, c0 + buf.shape[1]))
            children = buf = None
            done.append((key, state, slots))
        n //= 2
    if pending:
        raise RuntimeError(f"step table leaves {sorted(pending)} unscheduled")
    for key, state, slots in reversed(done):
        views = []
        for child, c0, c1 in slots:
            views.append(spectra[child][:, c0:c1])
            uses[child] -= 1
            if not uses[child]:
                del spectra[child]
        spectra[key] = steps[key[0]].backward(key[1], state, views, counter)
    return spectra[(sig_type, N)]


# -- steps both tables use ----------------------------------------------------

def copy_leaf(x, N, table, counter):
    """Leaf whose one stored sample is its one stored harmonic."""
    return x.copy()


def two_point_leaf(x, N, table, counter):
    """dc_tt at N = 2: S(0), S(1) = s(0) +- s(1)."""
    out = rows_like(x, 2)
    out[0] = cadd(counter, x[0], x[1])
    out[1] = csub(counter, x[0], x[1])
    return out


def time_split(sig_type, leaf, base):
    """Step that splits time by parity: even child at N/2, odd child at N."""
    even_type, odd_type = TIME_SPLIT_CHILDREN[sig_type]
    even_type = HALVE_TIME_CHILD[even_type]

    def forward(x, N, table, counter):
        even, odd = split_time_parity_forward(sig_type, N, x)
        return ((even_type, N // 2, even), (odd_type, N, odd)), None

    def backward(N, state, spectra, counter):
        return split_time_parity_backward(sig_type, N, spectra[0], spectra[1], counter)

    return Step(leaf, base, forward, backward)


def harmonic_split(sig_type, leaf, base):
    """Step that splits harmonics by parity: even child at N/2, odd child at N."""
    even_type, odd_type = HARMONIC_SPLIT_CHILDREN[sig_type]
    even_type = HALVE_HARMONICS_CHILD[even_type]

    def forward(x, N, table, counter):
        even, odd = split_harmonic_parity_forward(sig_type, N, x, counter)
        return ((even_type, N // 2, even), (odd_type, N, odd)), None

    def backward(N, state, spectra, counter):
        return split_harmonic_parity_backward(sig_type, N, spectra[0], spectra[1])

    return Step(leaf, base, forward, backward)


# -- real and complex drivers -------------------------------------------------

def real_spectra(x, N, steps, table, counter):
    """Cosine spectrum S(0..N/2) and sine spectrum S(1..N/2-1) of real columns."""
    m = N // 2
    head, tail = x[1:m], x[N - 1:m:-1]
    # each folded part goes to the scheduler unnamed, so it is freed as
    # soon as the first forward step has consumed it
    spec_c = run_levels(steps, "dc_tt", N, _even_part(x, head, tail, counter), table, counter)
    spec_s = run_levels(steps, "ds_tt", N, csub(counter, head, tail), table, counter)
    return spec_c, spec_s


def _even_part(x, head, tail, counter):
    """dc_tt buffer [s(0), s(1)+s(N-1), .., s(N/2)] of the even-symmetric part."""
    m = head.shape[0] + 1
    dc = rows_like(x, m + 1)
    dc[0] = x[0]
    dc[m] = x[m]
    dc[1:m] = cadd(counter, head, tail)
    return dc


def rdft_packed(x, N, steps, table, counter):
    """Packed half spectrum of real columns via one cosine and one sine transform."""
    spec_c, spec_s = real_spectra(x, N, steps, table, counter)
    m = N // 2
    out = rows_like(x, N)
    out[0] = spec_c[0]
    out[N - 1] = spec_c[m]
    out[1:N - 1:2] = spec_c[1:m]
    np.negative(spec_s, out=out[2:N - 1:2])  # Im(k) = -sine spectrum; the sign flip is free
    return out


def cdft_interleaved(x, N, steps, table, counter):
    """Interleaved complex spectrum from one real DFT of both components.

    The (2N, cols) interleaved buffer, reshaped to (N, 2 cols), holds the
    real parts in its first cols columns and the imaginary parts in the
    rest, so one stacked rdft_packed call transforms both.
    """
    cols = x.shape[1]
    r = rdft_packed(x.reshape(N, 2 * cols), N, steps, table, counter)
    r1, r2 = r[:, :cols], r[:, cols:]
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


def complex_from_spectra(spec_c, spec_s):
    """Harmonics 0..N/2 of a real signal from its cosine and sine spectra."""
    cdtype = np.complex64 if spec_c.dtype == np.float32 else np.complex128
    out = np.zeros(spec_c.shape, dtype=cdtype)
    out.real = spec_c
    np.negative(spec_s, out=out.imag[1:-1])  # Im(k) = -sine spectrum; the sign flip is free
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


def _columns(x):
    """x as rows by columns: a 1-D signal becomes a free (n, 1) view."""
    return x[:, None] if x.ndim == 1 else x


def _shaped_like(out, x):
    """out with x's number of dimensions: one column back to a 1-D signal."""
    return out[:, 0] if x.ndim == 1 else out


def _prep_real(values, min_n, kind):
    x = _signal(values)
    # an object array hides its elements' type from iscomplexobj
    if np.iscomplexobj(x) or (x.dtype == object and any(map(np.iscomplexobj, x.flat))):
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


def entry_points(module, steps):
    """(cdft, rdft, dct0, dst0) of the recursion declared by this step table.

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
        buf = interleave_complex(_columns(z), dtype)
        table, counter = _resolve(buf, table, counter)
        out = cdft_interleaved(buf, N, steps, table, counter)
        return _shaped_like(complex_from_interleaved(out), z)

    def rdft(values, table=None, counter=None):
        """real-input DFT, reported for k = 0..N/2."""
        x, N = _prep_real(values, 2, "full")
        table, counter = _resolve(x, table, counter)
        spec_c, spec_s = real_spectra(_columns(x), N, steps, table, counter)
        return _shaped_like(complex_from_spectra(spec_c, spec_s), x)

    def dct0(values, table=None, counter=None):
        """cosine transform; values are s(0)..s(N/2)."""
        x, N = _prep_real(values, 2, "dc")
        table, counter = _resolve(x, table, counter)
        return _shaped_like(run_levels(steps, "dc_tt", N, _columns(x), table, counter), x)

    def dst0(values, table=None, counter=None):
        """sine transform; values are s(1)..s(N/2-1)."""
        x, N = _prep_real(values, 4, "ds")
        table, counter = _resolve(x, table, counter)
        return _shaped_like(run_levels(steps, "ds_tt", N, _columns(x), table, counter), x)

    fns = (cdft, rdft, dct0, dst0)
    for fn in fns:
        fn.__module__ = module
        fn.__qualname__ = fn.__name__
        fn.__doc__ = f"{algorithm} {fn.__doc__}"
    return fns
