"""Signal taxonomy used by the quick Fourier transform algorithms.

Twenty signal types describe every signal the recursive transforms create.
A type name has a value kind (cx complex, re real, dc cosine, ds sine)
and a pair of tags for the time and harmonic index sets: t all indices,
e even indices, o odd indices.  The t1/e1 tags mark the converted signals
whose stored harmonics outnumber their stored time samples by one.

For each type and power-of-two periodization N, `sto_n` and `sto_k` give
the stored time and harmonic index sets, and `ln`/`lk` give the backing
storage cell counts, derived from those sets.  Complex-valued cells (cx
time/freq, re freq) take two real cells each, which is why ln(cx_tt) is
2N and not N.
"""

from collections import namedtuple
from functools import cache

import numpy as np

SIGNAL_TYPES = (
    "cx_tt", "re_tt",
    "dc_tt", "dc_et", "dc_ot", "dc_te", "dc_to",
    "dc_oe", "dc_oo", "dc_t1e", "dc_t1t",
    "ds_tt", "ds_et", "ds_te", "ds_to", "ds_ot",
    "ds_oe", "ds_oo", "ds_t1o", "ds_e1o",
)

# Smallest periodization for which every index formula below is integer
# valued and yields a nonempty set.
MIN_N = {
    "cx_tt": 2, "re_tt": 2, "dc_tt": 2, "dc_t1t": 2,
    "dc_et": 4, "dc_ot": 4, "dc_te": 4, "dc_to": 4, "dc_t1e": 4,
    "ds_tt": 4, "ds_to": 4, "ds_ot": 4, "ds_e1o": 4,
    "dc_oe": 8, "dc_oo": 8, "ds_et": 8, "ds_te": 8,
    "ds_oe": 8, "ds_oo": 8, "ds_t1o": 8,
}


# the root type whose recursion each public transform runs; its stored
# time samples are the transform's input and its stored harmonics the output
ROOT_TYPE = {"cdft": "cx_tt", "rdft": "re_tt", "dct0": "dc_tt", "dst0": "ds_tt"}


def transform_kind(sig_type):
    """Transform family a root of this type belongs to."""
    return {root[:2]: t for t, root in ROOT_TYPE.items()}[sig_type[:2]]


def is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


def check_type_n(sig_type, N):
    if sig_type not in SIGNAL_TYPES:
        raise ValueError(f"unknown signal type {sig_type!r}")
    if not is_power_of_two(N):
        raise ValueError(f"periodization must be a power of two, got {N}")
    if N < MIN_N[sig_type]:
        raise ValueError(f"type {sig_type} needs N >= {MIN_N[sig_type]}, got {N}")


# the index sets and the sizes below are pure in (type, N); tree building,
# its audit, SignalView and the oracle ask for the same few keys tens of
# thousands of times, and the keys are bounded by the twenty types times
# the powers of two
@cache
def sto_n(sig_type, N):
    """Stored time indices, as a range in increasing order."""
    check_type_n(sig_type, N)
    q, m = N // 4, N // 2
    return {
        "cx_tt": range(0, N),
        "re_tt": range(0, N),
        "dc_tt": range(0, m + 1),
        "dc_et": range(0, m + 1, 2),
        "dc_ot": range(1, m, 2),
        "dc_te": range(0, q + 1),
        "dc_to": range(0, q),
        "dc_oe": range(1, q, 2),
        "dc_oo": range(1, q, 2),
        "dc_t1e": range(0, q),
        "dc_t1t": range(0, m),
        "ds_tt": range(1, m),
        "ds_et": range(2, m, 2),
        "ds_te": range(1, q),
        "ds_to": range(1, q + 1),
        "ds_ot": range(1, m, 2),
        "ds_oe": range(1, q, 2),
        "ds_oo": range(1, q, 2),
        "ds_t1o": range(1, q),
        "ds_e1o": range(q, q + 1),
    }[sig_type]


@cache
def sto_k(sig_type, N):
    """Stored harmonic indices, as a range in increasing order."""
    check_type_n(sig_type, N)
    q, m = N // 4, N // 2
    return {
        "cx_tt": range(0, N),
        "re_tt": range(0, m + 1),
        "dc_tt": range(0, m + 1),
        "dc_et": range(0, q + 1),
        "dc_ot": range(0, q),
        "dc_te": range(0, m + 1, 2),
        "dc_to": range(1, m, 2),
        "dc_oe": range(0, q - 1, 2),
        "dc_oo": range(1, q, 2),
        "dc_t1e": range(0, m + 1, 2),
        "dc_t1t": range(0, m + 1),
        "ds_tt": range(1, m),
        "ds_et": range(1, q),
        "ds_te": range(2, m - 1, 2),
        "ds_to": range(1, m, 2),
        "ds_ot": range(1, q + 1),
        "ds_oe": range(2, q + 1, 2),
        "ds_oo": range(1, q, 2),
        "ds_t1o": range(1, m, 2),
        "ds_e1o": range(1, 2),
    }[sig_type]


@cache
def ln(sig_type, N):
    """Real storage cells needed for the stored time samples."""
    cells = len(sto_n(sig_type, N))
    return 2 * cells if sig_type == "cx_tt" else cells


@cache
def lk(sig_type, N):
    """Real storage cells needed for the stored harmonics.

    re_tt packs its harmonics as complex pairs, except the two purely
    real ones at k = 0 and k = N/2.
    """
    cells = len(sto_k(sig_type, N))
    if sig_type == "cx_tt":
        return 2 * cells
    if sig_type == "re_tt":
        return 2 * cells - 2
    return cells


# every call of a public transform asks for it at each power of two up
# to its N
@cache
def stored_length(transform, N):
    """Samples a transform's input stores at periodization N."""
    return len(sto_n(ROOT_TYPE[transform], N))


def periodization(transform, length):
    """The N, a power of two ROOT_TYPE[transform] admits, at which a
    transform's input stores length samples, or ValueError if none does."""
    root = ROOT_TYPE[transform]
    N = MIN_N[root]
    # stored lengths grow with N: the first N whose length reaches length
    # is the only candidate
    while stored_length(transform, N) < length:
        N *= 2
    if stored_length(transform, N) != length:
        raise ValueError(f"stored length {length} does not give a power-of-two "
                         f"periodization >= {MIN_N[root]}")
    return N


StorageSizes = namedtuple("StorageSizes", "ln lk")


def storage_sizes(sig_type, N):
    return StorageSizes(ln(sig_type, N), lk(sig_type, N))


def buffer_slot_time(sig_type, N, n):
    """0-based buffer cell for time index n.

    Stored indices occupy consecutive cells in increasing index order, so
    the slot is the position of n within sto_n.  For the complex-celled
    types (cx_tt time, and harmonics of cx_tt/re_tt) the slot numbers a
    complex cell.
    """
    indices = sto_n(sig_type, N)
    if n not in indices:
        raise ValueError(f"time index {n} is not stored for {sig_type} at N={N}")
    return indices.index(n)


def buffer_slot_freq(sig_type, N, k):
    """0-based buffer cell for harmonic index k."""
    indices = sto_k(sig_type, N)
    if k not in indices:
        raise ValueError(f"harmonic {k} is not stored for {sig_type} at N={N}")
    return indices.index(k)


class SignalView:
    """A signal type, a periodization, and the stored time samples.

    The buffer holds one value per stored time index, in slot order.  For
    cx_tt the values are complex; for every other type they are real.
    """

    def __init__(self, sig_type, N, values=None, dtype=np.float64):
        check_type_n(sig_type, N)
        self.type = sig_type
        self.N = N
        count = len(sto_n(sig_type, N))
        if sig_type == "cx_tt":
            buf_dtype = np.complex64 if dtype == np.float32 else np.complex128
        else:
            buf_dtype = dtype
        if values is None:
            self.buffer = np.zeros(count, dtype=buf_dtype)
        else:
            self.buffer = np.asarray(values, dtype=buf_dtype)
            if self.buffer.shape != (count,):
                raise ValueError(
                    f"{sig_type} at N={N} stores {count} values, "
                    f"got shape {self.buffer.shape}"
                )

    def time_value(self, n):
        return self.buffer[buffer_slot_time(self.type, self.N, n)]

    def set_time(self, n, value):
        self.buffer[buffer_slot_time(self.type, self.N, n)] = value

    def __repr__(self):
        return f"SignalView({self.type}, N={self.N})"
