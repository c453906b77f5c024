"""Index-set elaborations: the split steps and leaves of both fast algorithms.

Four reversible steps relate a signal to smaller ones:

  * time-parity split: route even-index and odd-index samples to two
    children (no arithmetic); recombining the child spectra costs two
    adds per mirrored harmonic pair.
  * harmonic-parity split: form sum and difference children so that one
    child carries the even harmonics and the other the odd harmonics
    (two adds per paired time index); recombining is a free interleave.
  * even-harmonic halving: a signal whose stored harmonics are all even
    is reread at half the periodization (free, same buffer).
  * even-time halving: a signal whose stored samples sit at even indices
    is reread at half the periodization (free, same buffer).

The two halvings need no function: a split's step in classical.STEPS or
improved.STEPS names the even child it forms at N as its via and the
type that buffer is reread as at N/2 as its first child.  Each split is
one step function per signal type, with the signature of the Step field
it fills (shared's docstring gives them):

  split                  forward                   backward
  time, dc_tt            dc_time_forward           dc_time_backward
  time, ds_tt            ds_time_forward           ds_time_backward
  harmonic, dc_tt        dc_tt_harmonic_forward    dc_harmonic_backward
  harmonic, dc_t1t       dc_t1t_harmonic_forward   (classical dc_to's own)
  harmonic, dc_ot        dc_ot_harmonic_forward    (improved dc_ot's own)
  harmonic, ds_tt        ds_tt_harmonic_forward    ds_harmonic_backward
  harmonic, ds_ot        ds_ot_harmonic_forward    (improved ds_ot's own)

The one leaf both tables compute, two_point_leaf, lives here too; a
copy leaf, whose one stored sample is its one stored harmonic, has no
function: its Step declares base None.  Every function works on buffers
in stored-slot order, one signal per column, and allocates nothing: a
forward step writes its two children, even child first, into the
buffers outs holds, ln(child type, N) rows each, and a backward step or
leaf writes the spectrum into out, lk(type, N) rows.  A time split
copies its children out of the mother, so no child pins her once the
split has run.  For sine-kind signals the sum child is the odd-harmonic
child; for cosine-kind signals it is the even-harmonic child.  The
dc_t1t mother stores nothing at index N/2, so its n = 0 pairing adds an
explicit zero; those adds are still charged.
"""

from .counting import cadd, csub


def two_point_leaf(x, N, table, counter, out):
    """dc_tt at N = 2: S(0), S(1) = s(0) +- s(1)."""
    cadd(counter, x[0:1], x[1:2], out[0:1])
    csub(counter, x[0:1], x[1:2], out[1:2])


# -- time-parity splits -------------------------------------------------------

def dc_time_forward(x, N, table, counter, outs):
    """Route dc_tt samples by index parity into outs = (dc_et, dc_ot)."""
    outs[0][...], outs[1][...] = x[0::2], x[1::2]


def ds_time_forward(x, N, table, counter, outs):
    """Route ds_tt samples by index parity into outs = (ds_et, ds_ot)."""
    # slots are n-1, so even indices live in the odd slots
    outs[0][...], outs[1][...] = x[1::2], x[0::2]


def dc_time_backward(N, spectra, counter, out):
    """dc_tt spectrum from its time-parity children's spectra.

    Each harmonic pair (k, N/2-k) costs two adds; the middle harmonic
    N/4 is a free copy from the even child, whose spectrum reaches it.
    """
    even, odd = spectra
    q = N // 4
    cadd(counter, even[0:q], odd, out[0:q])
    csub(counter, even[0:q], odd, out[N // 2:q:-1])
    out[q] = even[q]


def ds_time_backward(N, spectra, counter, out):
    """ds_tt spectrum from its time-parity children's spectra.

    Each harmonic pair (k, N/2-k) costs two adds; the middle harmonic
    N/4 is a free copy from the odd child, whose spectrum reaches it.
    """
    even, odd = spectra
    q = N // 4
    cadd(counter, odd[0:q - 1], even, out[0:q - 1])
    csub(counter, odd[0:q - 1], even, out[N // 2 - 2:q - 1:-1])
    out[q - 1] = odd[q - 1]


# -- harmonic-parity splits ---------------------------------------------------

def dc_tt_harmonic_forward(x, N, table, counter, outs):
    """Fold mirrored dc_tt samples into outs = (dc_te, dc_to)."""
    even, odd = outs
    q, m = N // 4, N // 2
    a, b = x[0:q], x[m:q:-1]
    cadd(counter, a, b, even[:q])
    even[q] = x[q]
    csub(counter, a, b, odd)


def dc_t1t_harmonic_forward(x, N, table, counter, outs):
    """Fold mirrored dc_t1t samples into outs = (dc_te, dc_to)."""
    even, odd = outs
    q, m = N // 4, N // 2
    a, b = x[1:q], x[m - 1:m - q:-1]
    cadd(counter, x[0:1], 0.0, even[0:1])
    csub(counter, x[0:1], 0.0, odd[0:1])
    cadd(counter, a, b, even[1:q])
    csub(counter, a, b, odd[1:q])
    even[q] = x[q]


def dc_ot_harmonic_forward(x, N, table, counter, outs):
    """Fold mirrored dc_ot samples into outs = (dc_oe, dc_oo)."""
    q, h = N // 4, N // 8
    a, b = x[0:h], x[q - 1:q - h - 1:-1]
    cadd(counter, a, b, outs[0])
    csub(counter, a, b, outs[1])


def ds_tt_harmonic_forward(x, N, table, counter, outs):
    """Fold mirrored ds_tt samples into outs = (ds_te, ds_to)."""
    even, odd = outs
    q, m = N // 4, N // 2
    a, b = x[0:q - 1], x[m - 2:q - 1:-1]
    cadd(counter, a, b, odd[:q - 1])
    odd[q - 1] = x[q - 1]  # the N/4 sample only feeds odd harmonics
    csub(counter, a, b, even)


def ds_ot_harmonic_forward(x, N, table, counter, outs):
    """Fold mirrored ds_ot samples into outs = (ds_oe, ds_oo)."""
    q, h = N // 4, N // 8
    a, b = x[0:h], x[q - 1:q - h - 1:-1]
    csub(counter, a, b, outs[0])
    cadd(counter, a, b, outs[1])


def dc_harmonic_backward(N, spectra, counter, out):
    """Interleave a cosine split's child spectra into out; no arithmetic."""
    out[0::2], out[1::2] = spectra


def ds_harmonic_backward(N, spectra, counter, out):
    """Interleave a sine split's child spectra into out; no arithmetic."""
    out[1::2], out[0::2] = spectra
