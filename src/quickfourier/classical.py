"""Classical quick Fourier transform.

The cosine/sine recursions split harmonics by parity at every level.
The even-harmonic child is reread at half periodization; the
odd-harmonic child is converted with half-secant scalings into a signal
whose even harmonics determine the wanted odd ones.  The converted
signals store one extra harmonic cell, so this variant's working storage
grows slowly with depth.

All arithmetic flows through the counted helpers and every constant
comes from the TrigTable, so operation counts and the constant footprint
are exact.  Buffers follow the stored-slot order of the taxonomy; a
trailing axis, when present, carries a batch of independent signals.
The public cdft/rdft/dct0/dst0 come from shared.entry_points, bound to
this module's cosine/sine pair (_dct, _dst).
"""

from .counting import cadd, cmul, cmul_rows, csub, rows_like
from .elaborations import (
    split_harmonic_parity_backward,
    split_harmonic_parity_forward,
)
from .shared import entry_points


def _dct(x, N, table, counter):
    """Cosine transform of a dc_tt buffer [s(0)..s(N/2)] -> [S(0)..S(N/2)]."""
    if N == 2:
        out = rows_like(x, 2)
        out[0] = cadd(counter, x[0], x[1])
        out[1] = csub(counter, x[0], x[1])
        return out
    even, odd = split_harmonic_parity_forward("dc_tt", N, x, counter)
    spec_even = _dct(even, N // 2, table, counter)
    spec_odd = _dct_odd(odd, N, table, counter)
    return split_harmonic_parity_backward("dc_tt", N, spec_even, spec_odd)


def _dct_odd(x, N, table, counter):
    """Odd harmonics of a dc_to buffer [s(0)..s(N/4-1)] -> slots (k-1)/2."""
    if N == 4:
        return x.copy()  # S(1) = s(0)
    if N == 8:
        # two-point definition: S(1), S(3) = s(0) +- s(1) cos(2 pi/8)
        t = cmul(counter, x[1], table.half_secant(1, 8))
        out = rows_like(x, 2)
        out[0] = cadd(counter, x[0], t)
        out[1] = csub(counter, x[0], t)
        return out
    q = N // 4
    conv = rows_like(x, q)
    conv[0] = cmul(counter, x[0], table.half)  # zero angle: plain halving, still one multiply
    conv[1:] = cmul_rows(counter, x[1:], table.half_secants(N, range(1, q)))
    # converted signal: its even harmonics at half periodization carry
    # everything needed; split it by harmonic parity and recurse
    even, odd = split_harmonic_parity_forward("dc_t1t", N // 2, conv, counter)
    spec_even = _dct(even, N // 4, table, counter)
    spec_odd = _dct_odd(odd, N // 2, table, counter)
    half_spec = split_harmonic_parity_backward("dc_t1t", N // 2, spec_even, spec_odd)
    # each odd target harmonic is the sum of its two even neighbours
    return cadd(counter, half_spec[0:q], half_spec[1:q + 1])


def _dst(x, N, table, counter):
    """Sine transform of a ds_tt buffer [s(1)..s(N/2-1)] -> [S(1)..S(N/2-1)]."""
    if N == 4:
        return x.copy()  # S(1) = s(1)
    even, odd = split_harmonic_parity_forward("ds_tt", N, x, counter)
    spec_even = _dst(even, N // 2, table, counter)
    spec_odd = _dst_odd(odd, N, table, counter)
    return split_harmonic_parity_backward("ds_tt", N, spec_even, spec_odd)


def _dst_odd(x, N, table, counter):
    """Odd harmonics of a ds_to buffer [s(1)..s(N/4)] -> slots (k-1)/2."""
    q = N // 4
    if N == 4:
        return x.copy()  # S(1) = s(1) sin(2 pi/4 * 1) = s(1)
    center = x[q - 1]  # s(N/4): feeds every odd harmonic with alternating sign
    conv = cmul_rows(counter, x[0:q - 1], table.half_secants(N, range(1, q)))
    spec = _dst(conv, N // 2, table, counter)
    partial = rows_like(x, q)
    # neighbours at harmonics 0 and N/2 vanish for a sine spectrum, so the
    # first and last odd harmonics are free copies
    partial[0] = spec[0]
    partial[q - 1] = spec[q - 2]
    partial[1:q - 1] = cadd(counter, spec[0:q - 2], spec[1:q - 1])
    out = rows_like(x, q)
    out[0::2] = cadd(counter, partial[0::2], center)
    out[1::2] = csub(counter, partial[1::2], center)
    return out


cdft, rdft, dct0, dst0 = entry_points(__name__, _dct, _dst)
