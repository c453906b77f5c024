"""Classical quick Fourier transform.

The cosine/sine recursions split harmonics by parity at every level.
The even-harmonic child is reread at half periodization; the
odd-harmonic child is converted with half-secant scalings into a signal
whose even harmonics determine the wanted odd ones.  The converted
signals store one extra harmonic cell, so this variant's working storage
grows slowly with depth.

The recursion is the step table STEPS, which shared.run_levels runs
level by level with same-(type, N) subproblems side by side as column
slots of one buffer.  Each Step declares its leaf size, its children
and the transient signals it forms on the way (via), all as (type,
halvings of N), so the schedule of a root is derived from the table
alone and cached, and tree.build_tree draws the decomposition tree from
it.  Every step writes into the buffers run_levels hands it, ln(type, N)
rows for a child and lk(type, N) rows for a spectrum, and returns
nothing:

  type    leaf  forward -> children; via             backward
  dc_tt   N=2   harmonic split -> dc_tt(N/2),        interleave
                dc_to(N); via dc_te(N)
  dc_to   N=8   half-secant conversion in place to   neighbour sums of
                a dc_t1t(N/2), harmonic split ->     the interleaved
                dc_tt(N/4), dc_to(N/2); via          child spectra
                dc_t1e(N), dc_t1t(N/2), dc_te(N/2)
  ds_tt   N=4   harmonic split -> ds_tt(N/2),        interleave
                ds_to(N); via ds_te(N)
  ds_to   N=4   half-secant conversion ->            neighbour sums, then
                ds_tt(N/2), centre sample s(N/4) ->  +- the centre sample,
                ds_e1o(N); via ds_t1o(N), ds_te(N)   in place
  ds_e1o  any   never splits: its one sample is its one harmonic

Each entry is a literal Step.  The harmonic splits of dc_tt and ds_tt,
the interleaves and the two-point leaf are step functions of
elaborations; the copy leaves, ds_tt and ds_to at N = 4 and ds_e1o,
declare base None; the dc_to and ds_to conversions are this module's
own, and dc_to's forward step calls elaborations' dc_t1t split on its
converted signal.

All arithmetic flows through the counted helpers and every constant
comes from the TrigTable, so operation counts and the constant footprint
are exact.  Buffers follow the stored-slot order of the taxonomy, one
signal per column.  The public cdft/rdft/dct0/dst0 come from
shared.entry_points, bound to this table.
"""

import math

from .counting import cadd, cmul, cmul_rows, csub
from .elaborations import (dc_harmonic_backward, dc_t1t_harmonic_forward,
                           dc_tt_harmonic_forward, ds_harmonic_backward, ds_tt_harmonic_forward,
                           two_point_leaf)
from .shared import Step, entry_points


def _dct_odd_leaf(x, N, table, counter, out):
    """Odd harmonics of a dc_to buffer [s(0)..s(N/4-1)] at N = 4 or 8."""
    if N == 4:
        out[...] = x  # S(1) = s(0)
    else:  # two-point definition: S(1), S(3) = s(0) +- s(1) cos(2 pi/8),
        # the product formed in S(3)'s cell
        t = cmul(counter, x[1:2], table.half_secant(1, 8), out[1:2])
        cadd(counter, x[0:1], t, out[0:1])
        csub(counter, x[0:1], t, t)


def _dct_odd_forward(x, N, table, counter, outs):
    """dc_to buffer [s(0)..s(N/4-1)]: convert to dc_t1t at N/2, split its harmonics.

    The conversion scales x in place, as both store N/4 cells: dc_to is
    never a root, so x is always a buffer that run_levels owns.
    """
    cmul(counter, x[0], table.half, x[0])  # zero angle: plain halving, still one multiply
    cmul_rows(counter, x[1:], table.half_secants(N, range(1, N // 4)), x[1:])
    # converted signal: its even harmonics at half periodization carry
    # everything needed; split it by harmonic parity
    dc_t1t_harmonic_forward(x, N // 2, table, counter, outs)


def _dct_odd_backward(N, spectra, counter, out):
    """Odd harmonics in slots (k-1)/2 from the converted signal's spectrum.

    The converted spectrum interleaves the even child's harmonics e with
    the odd child's o, and each odd target harmonic is the sum of its two
    neighbours there: slot 2i holds e(i) + o(i) and slot 2i+1 o(i) + e(i+1).
    """
    even, odd = spectra
    cadd(counter, even[:-1], odd, out[0::2])
    cadd(counter, odd, even[1:], out[1::2])


def _dst_odd_forward(x, N, table, counter, outs):
    """ds_to buffer [s(1)..s(N/4)]: convert s(1)..s(N/4-1) onto ds_tt at N/2
    and split off the centre sample s(N/4) as a one-cell ds_e1o signal."""
    q = N // 4
    cmul_rows(counter, x[0:q - 1], table.half_secants(N, range(1, q)), outs[0])
    outs[1][...] = x[q - 1:q]


def _dst_odd_backward(N, spectra, counter, out):
    """Odd harmonics in slots (k-1)/2 from the converted spectrum and s(N/4)."""
    q = N // 4
    spec, center = spectra[0], spectra[1][0]
    # neighbours at harmonics 0 and N/2 vanish for a sine spectrum, so the
    # first and last odd harmonics are free copies
    out[0] = spec[0]
    out[q - 1] = spec[q - 2]
    cadd(counter, spec[0:q - 2], spec[1:q - 1], out[1:q - 1])
    # s(N/4) feeds every odd harmonic with alternating sign
    cadd(counter, out[0::2], center, out[0::2])
    csub(counter, out[1::2], center, out[1::2])


STEPS = {
    "dc_tt": Step(2, (("dc_tt", 1), ("dc_to", 0)), (("dc_te", 0),),
                  two_point_leaf, dc_tt_harmonic_forward, dc_harmonic_backward),
    "dc_to": Step(8, (("dc_tt", 2), ("dc_to", 1)),
                  (("dc_t1e", 0), ("dc_t1t", 1), ("dc_te", 1)),
                  _dct_odd_leaf, _dct_odd_forward, _dct_odd_backward),
    "ds_tt": Step(4, (("ds_tt", 1), ("ds_to", 0)), (("ds_te", 0),),
                  None, ds_tt_harmonic_forward, ds_harmonic_backward),
    "ds_to": Step(4, (("ds_tt", 1), ("ds_e1o", 0)), (("ds_t1o", 0), ("ds_te", 0)),
                  None, _dst_odd_forward, _dst_odd_backward),  # S(1) = s(1) at N=4
    # the centre sample s(N/4) is its own one odd harmonic at every N
    "ds_e1o": Step(math.inf, (), (), None, None, None),
}

cdft, rdft, dct0, dst0 = entry_points(__name__, STEPS)
