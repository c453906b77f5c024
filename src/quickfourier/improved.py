"""Improved quick Fourier transform.

The cosine/sine recursions split time indices by parity first, then the
odd-time children split harmonics by parity.  The odd-time odd-harmonic
children are the only signals needing half-secant conversions, and the
conversion maps them straight onto smaller odd-time signals, so storage
is conserved exactly at every step: no converted signal with an extra
harmonic cell ever appears.  An odd-odd signal stores as many cells as
the odd-time signal it converts onto, so shared.run_levels gives it no
buffer of its own: the harmonic split writes it into its child's slot,
and the conversion scales it there, in place.  The recursion bases at
eight points use the eighth-turn constants.

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
  dc_ot  N=4   harmonic split -> dc_ot(N/2),         interleave
               dc_oo(N); via dc_oe(N)
  dc_oo  N=8   half-secant conversion in place ->    neighbour sums
               dc_ot(N/2); via dc_oe(N)
  ds_tt  N=4   time split -> ds_tt(N/2), ds_ot(N);   mirrored sums
               via ds_et(N)
  ds_ot  N=4   harmonic split -> ds_ot(N/2),         interleave
               ds_oo(N); via ds_oe(N)
  ds_oo  N=8   half-secant conversion in place ->    neighbour sums
               ds_ot(N/2); via ds_oe(N)

Each entry is a literal Step.  The time splits, the harmonic splits of
dc_ot and ds_ot, their backward steps and the leaves copy_leaf and
two_point_leaf are step functions of elaborations; the odd-odd
conversions and their leaves are this module's own.

The complex and real drivers and the public cdft/rdft/dct0/dst0 are
shared with the classical variant: they come from shared.entry_points,
bound to this table.

All arithmetic flows through the counted helpers and every constant
comes from the TrigTable.  Buffers follow the stored-slot order of the
taxonomy, one signal per column.
"""

from .counting import cadd, cmul, cmul_rows
from .elaborations import (copy_leaf, dc_harmonic_backward, dc_ot_harmonic_forward,
                           dc_time_backward, dc_time_forward, ds_harmonic_backward,
                           ds_ot_harmonic_forward, ds_time_backward, ds_time_forward,
                           two_point_leaf)
from .shared import Step, entry_points


def _convert_odd_odd(x, N, table, counter, outs):
    """Forward step of an odd-odd signal: the half-secant conversion onto
    an odd-time signal at N/2, in place when x is the child's slot."""
    cmul_rows(counter, x, table.half_secants(N, range(1, N // 4, 2)), outs[0])


def _dct_oo_leaf(x, N, table, counter, out):
    """dc_oo at N = 8: the one odd harmonic of the one stored sample."""
    cmul(counter, x[0:1], table.eighth_cos(), out)  # S(1) = s(1) cos(2 pi/8)


def _dct_oo_backward(N, spectra, counter, out):
    """Odd harmonics of a dc_oo signal in slots (k-1)/2 from the converted spectrum."""
    h = N // 8
    spec = spectra[0]
    # each odd harmonic is the sum of its two even neighbours in the
    # converted spectrum; the neighbour at N/4 vanishes for odd-time
    # signals, so the last one is a free copy
    cadd(counter, spec[0:h - 1], spec[1:h], out[:h - 1])
    out[h - 1] = spec[h - 1]


def _dst_oo_leaf(x, N, table, counter, out):
    """ds_oo at N = 8: the one odd harmonic of the one stored sample."""
    # S(1) = s(1) sin(2 pi/8); numerically the half-secant at 1/8
    cmul(counter, x[0:1], table.half_secant(1, 8), out)


def _dst_oo_backward(N, spectra, counter, out):
    """Odd harmonics of a ds_oo signal in slots (k-1)/2 from the converted spectrum."""
    h = N // 8
    spec = spectra[0]
    # the neighbour at harmonic 0 vanishes for a sine spectrum, so the
    # first odd harmonic is a free copy
    out[0] = spec[0]
    cadd(counter, spec[0:h - 1], spec[1:h], out[1:])


STEPS = {
    "dc_tt": Step(2, (("dc_tt", 1), ("dc_ot", 0)), (("dc_et", 0),),
                  two_point_leaf, dc_time_forward, dc_time_backward),
    "dc_ot": Step(4, (("dc_ot", 1), ("dc_oo", 0)), (("dc_oe", 0),),
                  copy_leaf, dc_ot_harmonic_forward, dc_harmonic_backward),  # S(0) = s(1) at N=4
    "dc_oo": Step(8, (("dc_ot", 1),), (("dc_oe", 0),),
                  _dct_oo_leaf, _convert_odd_odd, _dct_oo_backward),
    "ds_tt": Step(4, (("ds_tt", 1), ("ds_ot", 0)), (("ds_et", 0),),
                  copy_leaf, ds_time_forward, ds_time_backward),
    "ds_ot": Step(4, (("ds_ot", 1), ("ds_oo", 0)), (("ds_oe", 0),),
                  copy_leaf, ds_ot_harmonic_forward, ds_harmonic_backward),  # S(1) = s(1) at N=4
    "ds_oo": Step(8, (("ds_ot", 1),), (("ds_oe", 0),),
                  _dst_oo_leaf, _convert_odd_odd, _dst_oo_backward),
}

cdft, rdft, dct0, dst0 = entry_points(__name__, STEPS)
