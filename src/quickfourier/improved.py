"""Improved quick Fourier transform.

The cosine/sine recursions split time indices by parity first, then the
odd-time children split harmonics by parity.  The odd-time odd-harmonic
children are the only signals needing half-secant conversions, and the
conversion maps them straight onto smaller odd-time signals, so storage
is conserved exactly at every step: no converted signal with an extra
harmonic cell ever appears.  The recursion bases at eight points use the
eighth-turn constants.  The complex and real drivers and the public
cdft/rdft/dct0/dst0 are shared with the classical variant: they come
from shared.entry_points, bound to this module's cosine/sine pair
(_dct, _dst).

All arithmetic flows through the counted helpers and every constant
comes from the TrigTable.  Buffers follow the stored-slot order of the
taxonomy; a trailing axis, when present, carries a batch of signals.
"""

from .counting import cadd, cmul, cmul_rows, csub, rows_like
from .elaborations import (
    split_harmonic_parity_backward,
    split_harmonic_parity_forward,
    split_time_parity_backward,
    split_time_parity_forward,
)
from .shared import entry_points


def _dct(x, N, table, counter):
    """Cosine transform of a dc_tt buffer [s(0)..s(N/2)] -> [S(0)..S(N/2)]."""
    if N == 2:
        out = rows_like(x, 2)
        out[0] = cadd(counter, x[0], x[1])
        out[1] = csub(counter, x[0], x[1])
        return out
    even, odd = split_time_parity_forward("dc_tt", N, x)
    spec_even = _dct(even, N // 2, table, counter)
    spec_odd = _dct_ot(odd, N, table, counter)
    return split_time_parity_backward("dc_tt", N, spec_even, spec_odd, counter)


def _dct_ot(x, N, table, counter):
    """Cosine spectrum of an odd-time buffer [s(1), s(3), ..] -> [S(0)..S(N/4-1)]."""
    if N == 4:
        return x.copy()  # S(0) = s(1)
    even, odd = split_harmonic_parity_forward("dc_ot", N, x, counter)
    spec_even = _dct_ot(even, N // 2, table, counter)
    spec_odd = _dct_oo(odd, N, table, counter)
    return split_harmonic_parity_backward("dc_ot", N, spec_even, spec_odd)


def _dct_oo(x, N, table, counter):
    """Odd harmonics of an odd-time buffer [s(1), s(3), ..] -> slots (k-1)/2."""
    if N == 8:
        out = rows_like(x, 1)
        out[0] = cmul(counter, x[0], table.eighth_cos())  # S(1) = s(1) cos(2 pi/8)
        return out
    h = N // 8
    conv = cmul_rows(counter, x, table.half_secants(N, range(1, N // 4, 2)))
    spec = _dct_ot(conv, N // 2, table, counter)
    out = rows_like(x, h)
    # each odd harmonic is the sum of its two even neighbours in the
    # converted spectrum; the neighbour at N/4 vanishes for odd-time
    # signals, so the last one is a free copy
    out[:h - 1] = cadd(counter, spec[0:h - 1], spec[1:h])
    out[h - 1] = spec[h - 1]
    return out


def _dst(x, N, table, counter):
    """Sine transform of a ds_tt buffer [s(1)..s(N/2-1)] -> [S(1)..S(N/2-1)]."""
    if N == 4:
        return x.copy()  # S(1) = s(1)
    even, odd = split_time_parity_forward("ds_tt", N, x)
    spec_even = _dst(even, N // 2, table, counter)
    spec_odd = _dst_ot(odd, N, table, counter)
    return split_time_parity_backward("ds_tt", N, spec_even, spec_odd, counter)


def _dst_ot(x, N, table, counter):
    """Sine spectrum of an odd-time buffer [s(1), s(3), ..] -> [S(1)..S(N/4)]."""
    if N == 4:
        return x.copy()  # S(1) = s(1) sin(2 pi/4) = s(1)
    even, odd = split_harmonic_parity_forward("ds_ot", N, x, counter)
    spec_even = _dst_ot(even, N // 2, table, counter)
    spec_odd = _dst_oo(odd, N, table, counter)
    return split_harmonic_parity_backward("ds_ot", N, spec_even, spec_odd)


def _dst_oo(x, N, table, counter):
    """Odd harmonics of an odd-time sine buffer [s(1), s(3), ..] -> slots (k-1)/2."""
    if N == 8:
        out = rows_like(x, 1)
        # S(1) = s(1) sin(2 pi/8); numerically the half-secant at 1/8
        out[0] = cmul(counter, x[0], table.half_secant(1, 8))
        return out
    h = N // 8
    conv = cmul_rows(counter, x, table.half_secants(N, range(1, N // 4, 2)))
    spec = _dst_ot(conv, N // 2, table, counter)
    out = rows_like(x, h)
    # the neighbour at harmonic 0 vanishes for a sine spectrum, so the
    # first odd harmonic is a free copy
    out[0] = spec[0]
    out[1:] = cadd(counter, spec[0:h - 1], spec[1:h])
    return out


cdft, rdft, dct0, dst0 = entry_points(__name__, _dct, _dst)
