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
either one signal (rows,) or a batch (rows, signals).  A forward kernel
writes each child into its destination in outs where the caller gives
one, so a scheduler can hand it preallocated column slots.  A time
split copies its children there and returns a child without one as a
free view of the mother; a scheduler that keeps such a child past the
mother's own turn copies it, or the view pins the whole mother.  A
backward kernel likewise writes the mother spectrum into out when it is
given one.  For sine-kind signals the sum child is the odd-harmonic
child; for cosine-kind signals it is the even-harmonic child.  The
dc_t1t mother stores nothing at index N/2, so its n = 0 pairing adds an
explicit zero; those adds are still charged.
"""

from .counting import cadd, csub, rows_like

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


def _placed(buf, out):
    """buf, or out holding a copy of it when out is another array."""
    if out is None or out is buf:
        return buf
    out[...] = buf
    return out


def split_time_parity_forward(sig_type, N, x, outs=None):
    """Route samples by index parity; returns (even child, odd child) views."""
    even, odd = outs or (None, None)
    if sig_type == "dc_tt":
        return _placed(x[0::2], even), _placed(x[1::2], odd)
    if sig_type == "ds_tt":
        # slots are n-1, so even indices live in the odd slots
        return _placed(x[1::2], even), _placed(x[0::2], odd)
    raise ValueError(f"time-parity split undefined for {sig_type}")


def split_time_parity_backward(sig_type, N, spec_even, spec_odd, counter, out=None):
    """Combine child spectra into the mother spectrum, in out or a new buffer.

    Each harmonic pair (k, N/2-k) costs two adds; the middle harmonic
    N/4 is a free copy from the child whose spectrum reaches it.
    """
    q = N // 4
    if sig_type == "dc_tt":
        out = rows_like(spec_even, N // 2 + 1) if out is None else out
        cadd(counter, spec_even[0:q], spec_odd, out[0:q])
        csub(counter, spec_even[0:q], spec_odd, out[N // 2:q:-1])
        out[q] = spec_even[q]
        return out
    if sig_type == "ds_tt":
        out = rows_like(spec_odd, N // 2 - 1) if out is None else out
        cadd(counter, spec_odd[0:q - 1], spec_even, out[0:q - 1])
        csub(counter, spec_odd[0:q - 1], spec_even, out[N // 2 - 2:q - 1:-1])
        out[q - 1] = spec_odd[q - 1]
        return out
    raise ValueError(f"time-parity split undefined for {sig_type}")


def split_harmonic_parity_forward(sig_type, N, x, counter, outs=None):
    """Fold mirrored sample pairs; returns (even-harmonic, odd-harmonic) buffers."""
    even, odd = outs or (None, None)
    q, m = N // 4, N // 2
    if sig_type == "dc_tt":
        a, b = x[0:q], x[m:q:-1]
        even = rows_like(x, q + 1) if even is None else even
        cadd(counter, a, b, even[:q])
        even[q] = x[q]
        return even, csub(counter, a, b, odd)
    if sig_type == "dc_t1t":
        a = x[1:q]
        b = x[m - 1:m - q:-1]
        even = rows_like(x, q + 1) if even is None else even
        odd = rows_like(x, q) if odd is None else odd
        cadd(counter, x[0:1], 0.0, even[0:1])
        csub(counter, x[0:1], 0.0, odd[0:1])
        cadd(counter, a, b, even[1:q])
        csub(counter, a, b, odd[1:q])
        even[q] = x[q]
        return even, odd
    if sig_type == "dc_ot":
        h = N // 8
        a, b = x[0:h], x[q - 1:q - h - 1:-1]
        return cadd(counter, a, b, even), csub(counter, a, b, odd)
    if sig_type == "ds_tt":
        a, b = x[0:q - 1], x[m - 2:q - 1:-1]
        odd = rows_like(x, q) if odd is None else odd
        cadd(counter, a, b, odd[:q - 1])
        odd[q - 1] = x[q - 1]  # the N/4 sample only feeds odd harmonics
        return csub(counter, a, b, even), odd
    if sig_type == "ds_ot":
        h = N // 8
        a, b = x[0:h], x[q - 1:q - h - 1:-1]
        return csub(counter, a, b, even), cadd(counter, a, b, odd)
    raise ValueError(f"harmonic-parity split undefined for {sig_type}")


def split_harmonic_parity_backward(sig_type, N, spec_even, spec_odd, out=None):
    """Interleave child spectra into the mother spectrum, in out or a new
    buffer; no arithmetic."""
    if sig_type not in HARMONIC_SPLIT_CHILDREN:
        raise ValueError(f"harmonic-parity split undefined for {sig_type}")
    if out is None:  # the mother stores each child's harmonics and no others
        out = rows_like(spec_even, len(spec_even) + len(spec_odd))
    if sig_type.startswith("dc"):
        out[0::2], out[1::2] = spec_even, spec_odd
    else:
        out[1::2], out[0::2] = spec_even, spec_odd
    return out
