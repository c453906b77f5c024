"""Index-set elaborations: the splitting steps behind both fast algorithms.

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

The two halvings need no kernel: HALVE_HARMONICS_CHILD and
HALVE_TIME_CHILD name the type that the same buffer is reread as.  The
array kernels of the two splits work on buffers in stored-slot order,
either one signal (rows,) or a batch (rows, signals).  They allocate
nothing: a forward kernel writes its two children into the buffers outs
holds, ln(child type, N) rows each, and a backward kernel writes the
mother spectrum into out, lk(mother type, N) rows.  A time split copies
its children out of the mother, so no child pins her once the split has
run.  For sine-kind signals the sum child is the odd-harmonic child; for
cosine-kind signals it is the even-harmonic child.  The dc_t1t mother
stores nothing at index N/2, so its n = 0 pairing adds an explicit zero;
those adds are still charged.
"""

from .counting import cadd, csub

TIME_SPLIT_CHILDREN = {
    "dc_tt": ("dc_et", "dc_ot"),
    "ds_tt": ("ds_et", "ds_ot"),
}

HARMONIC_SPLIT_CHILDREN = {
    "dc_tt": ("dc_te", "dc_to"),
    "dc_ot": ("dc_oe", "dc_oo"),
    "ds_tt": ("ds_te", "ds_to"),
    "ds_ot": ("ds_oe", "ds_oo"),
    "dc_t1t": ("dc_te", "dc_to"),
}

HALVE_HARMONICS_CHILD = {
    "dc_te": "dc_tt",
    "dc_oe": "dc_ot",
    "ds_te": "ds_tt",
    "ds_oe": "ds_ot",
    "dc_t1e": "dc_t1t",
}

HALVE_TIME_CHILD = {
    "dc_et": "dc_tt",
    "ds_et": "ds_tt",
}


def split_time_parity_forward(sig_type, N, x, outs):
    """Route samples by index parity into outs = (even child, odd child)."""
    even, odd = outs
    if sig_type == "dc_tt":
        even[...], odd[...] = x[0::2], x[1::2]
    elif sig_type == "ds_tt":
        # slots are n-1, so even indices live in the odd slots
        even[...], odd[...] = x[1::2], x[0::2]
    else:
        raise ValueError(f"time-parity split undefined for {sig_type}")


def split_time_parity_backward(sig_type, N, spec_even, spec_odd, counter, out):
    """Combine child spectra into the mother spectrum in out.

    Each harmonic pair (k, N/2-k) costs two adds; the middle harmonic
    N/4 is a free copy from the child whose spectrum reaches it.
    """
    q = N // 4
    if sig_type == "dc_tt":
        cadd(counter, spec_even[0:q], spec_odd, out[0:q])
        csub(counter, spec_even[0:q], spec_odd, out[N // 2:q:-1])
        out[q] = spec_even[q]
    elif sig_type == "ds_tt":
        cadd(counter, spec_odd[0:q - 1], spec_even, out[0:q - 1])
        csub(counter, spec_odd[0:q - 1], spec_even, out[N // 2 - 2:q - 1:-1])
        out[q - 1] = spec_odd[q - 1]
    else:
        raise ValueError(f"time-parity split undefined for {sig_type}")


def split_harmonic_parity_forward(sig_type, N, x, counter, outs):
    """Fold mirrored sample pairs into outs = (even-harmonic, odd-harmonic child)."""
    even, odd = outs
    q, m = N // 4, N // 2
    if sig_type == "dc_tt":
        a, b = x[0:q], x[m:q:-1]
        cadd(counter, a, b, even[:q])
        even[q] = x[q]
        csub(counter, a, b, odd)
    elif sig_type == "dc_t1t":
        a = x[1:q]
        b = x[m - 1:m - q:-1]
        cadd(counter, x[0:1], 0.0, even[0:1])
        csub(counter, x[0:1], 0.0, odd[0:1])
        cadd(counter, a, b, even[1:q])
        csub(counter, a, b, odd[1:q])
        even[q] = x[q]
    elif sig_type == "dc_ot":
        h = N // 8
        a, b = x[0:h], x[q - 1:q - h - 1:-1]
        cadd(counter, a, b, even)
        csub(counter, a, b, odd)
    elif sig_type == "ds_tt":
        a, b = x[0:q - 1], x[m - 2:q - 1:-1]
        cadd(counter, a, b, odd[:q - 1])
        odd[q - 1] = x[q - 1]  # the N/4 sample only feeds odd harmonics
        csub(counter, a, b, even)
    elif sig_type == "ds_ot":
        h = N // 8
        a, b = x[0:h], x[q - 1:q - h - 1:-1]
        csub(counter, a, b, even)
        cadd(counter, a, b, odd)
    else:
        raise ValueError(f"harmonic-parity split undefined for {sig_type}")


def split_harmonic_parity_backward(sig_type, N, spec_even, spec_odd, out):
    """Interleave child spectra into the mother spectrum in out; no arithmetic."""
    if sig_type not in HARMONIC_SPLIT_CHILDREN:
        raise ValueError(f"harmonic-parity split undefined for {sig_type}")
    if sig_type.startswith("dc"):
        out[0::2], out[1::2] = spec_even, spec_odd
    else:
        out[1::2], out[0::2] = spec_even, spec_odd
