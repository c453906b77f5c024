"""Improved quick Fourier transform.

The cosine/sine recursions split time indices by parity first, then the
odd-time children split harmonics by parity.  The odd-time odd-harmonic
children are the only signals needing half-secant conversions, and the
conversion maps them straight onto smaller odd-time signals, so storage
is conserved exactly at every step: no converted signal with an extra
harmonic cell ever appears.  The harmonic split of an odd-time signal
converts its odd-odd child in that child's own slot, so both its
children are odd-time signals at N/2.  At eight points the conversion
uses the eighth-turn cosine.

The recursion is the step table STEPS, which shared.run_levels runs
level by level with same-(type, N) subproblems side by side as column
slots of one buffer.  Each Step declares its leaf size, its children
and the transient signals it forms on the way (via), all as (type,
halvings of N), so the schedule of a root is derived from the table
alone and cached, and tree.build_tree draws the decomposition tree from
it.  Every step writes into the buffers run_levels hands it, ln(type, N)
rows for a child and lk(type, N) rows for a spectrum, and returns
nothing:

  type   leaf  forward -> children; via              backward
  dc_tt  N=2   time split -> dc_tt(N/2), dc_ot(N);   mirrored sums
               via dc_et(N)
  dc_ot  N=4   harmonic split, half-secant           interleave the even
               conversion of the odd-odd child ->    child with neighbour
               dc_ot(N/2), dc_ot(N/2);               sums of the
               via dc_oe(N), dc_oo(N)                converted spectrum
  ds_tt  N=4   time split -> ds_tt(N/2), ds_ot(N);   mirrored sums
               via ds_et(N)
  ds_ot  N=4   harmonic split, half-secant           interleave the even
               conversion of the odd-odd child ->    child with neighbour
               ds_ot(N/2), ds_ot(N/2);               sums of the
               via ds_oe(N), ds_oo(N)                converted spectrum

Each entry is a literal Step.  The time splits, the harmonic splits of
dc_ot and ds_ot, and the two-point leaf are step functions of
elaborations; the copy leaves, dc_ot, ds_tt and ds_ot at N = 4, declare
base None; the dc_ot and ds_ot steps, which call those harmonic splits
and then convert, are this module's own.

The complex and real drivers and the public cdft/rdft/dct0/dst0 are
shared with the classical variant: they come from shared.entry_points,
bound to this table.

All arithmetic flows through the counted helpers and every constant
comes from the TrigTable.  Buffers follow the stored-slot order of the
taxonomy, one signal per column.
"""

from .counting import cadd, cmul, cmul_rows
from .elaborations import (dc_ot_harmonic_forward, dc_time_backward, dc_time_forward,
                           ds_ot_harmonic_forward, ds_time_backward, ds_time_forward,
                           two_point_leaf)
from .shared import Step, entry_points


def _dct_odd_forward(x, N, table, counter, outs):
    """Split dc_ot harmonics into outs = (dc_oe, dc_oo), both read as dc_ot
    at N/2, and convert the odd-odd child in its own slot."""
    dc_ot_harmonic_forward(x, N, table, counter, outs)
    odd = outs[1]
    if N == 8:  # S(1) = s(1) cos(2 pi/8), the one named constant
        cmul(counter, odd, table.eighth_cos(), odd)
    else:
        cmul_rows(counter, odd, table.half_secants(N, range(1, N // 4, 2)), odd)


def _dct_odd_backward(N, spectra, counter, out):
    """Interleave the even child's harmonics with the odd ones, each the
    sum of its two even neighbours in the converted spectrum."""
    even, spec = spectra
    h = N // 8
    out[0::2] = even
    odd = out[1::2]
    # the neighbour at N/4 vanishes for odd-time signals, so the last odd
    # harmonic is a free copy
    cadd(counter, spec[0:h - 1], spec[1:h], odd[:h - 1])
    odd[h - 1] = spec[h - 1]


def _dst_odd_forward(x, N, table, counter, outs):
    """Split ds_ot harmonics into outs = (ds_oe, ds_oo), both read as ds_ot
    at N/2, and convert the odd-odd child in its own slot."""
    ds_ot_harmonic_forward(x, N, table, counter, outs)
    cmul_rows(counter, outs[1], table.half_secants(N, range(1, N // 4, 2)), outs[1])


def _dst_odd_backward(N, spectra, counter, out):
    """Interleave the even child's harmonics with the odd ones, each the
    sum of its two even neighbours in the converted spectrum."""
    even, spec = spectra
    h = N // 8
    out[1::2] = even
    odd = out[0::2]
    # the neighbour at harmonic 0 vanishes for a sine spectrum, so the
    # first odd harmonic is a free copy
    odd[0] = spec[0]
    cadd(counter, spec[0:h - 1], spec[1:h], odd[1:])


STEPS = {
    "dc_tt": Step(2, (("dc_tt", 1), ("dc_ot", 0)), (("dc_et", 0),),
                  two_point_leaf, dc_time_forward, dc_time_backward),
    "dc_ot": Step(4, (("dc_ot", 1), ("dc_ot", 1)), (("dc_oe", 0), ("dc_oo", 0)),
                  None, _dct_odd_forward, _dct_odd_backward),  # S(0) = s(1) at N=4
    "ds_tt": Step(4, (("ds_tt", 1), ("ds_ot", 0)), (("ds_et", 0),),
                  None, ds_time_forward, ds_time_backward),
    "ds_ot": Step(4, (("ds_ot", 1), ("ds_ot", 1)), (("ds_oe", 0), ("ds_oo", 0)),
                  None, _dst_odd_forward, _dst_odd_backward),  # S(1) = s(1) at N=4
}

cdft, rdft, dct0, dst0 = entry_points(__name__, STEPS)
