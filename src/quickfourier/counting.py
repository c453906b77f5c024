"""Operation accounting and the table of trigonometric constants.

The fast transforms route every real addition and multiplication through
the counted helpers here, so measured operation counts are exact rather
than estimated.  Constants come from a TrigTable that logs which entries
a run touched, keyed by what the constant is (a reduced angle fraction,
or the named eighth-turn cosine), so equal angles collapse to one entry
no matter which recursion level asked for them.

The values themselves are not the table's: each vector a lookup asks for
is evaluated once, in one vectorised pass over its reduced fractions, and
kept read-only in a module-level cache that every table and thread
shares.  A table holds only its dtype, pipeline and access log, so a
fresh table per run is as cheap as a constructor.
"""

import math
from itertools import repeat

import numpy as np

# pi to more digits than an 80-bit extended float can hold, so the wide
# tier of the constant pipeline is not limited by a double-rounded pi
_WIDE_PI = np.longdouble("3.14159265358979323846264338327950288419716939937510")


class OpCounter:
    """Tally of real additions and multiplications."""

    def __init__(self):
        self.adds = 0
        self.muls = 0

    @property
    def flops(self):
        return self.adds + self.muls

    def reset(self):
        self.adds = 0
        self.muls = 0

    def __repr__(self):
        return f"OpCounter(adds={self.adds}, muls={self.muls})"


def cadd(counter, x, y, out=None):
    """Counted elementwise addition, into out if given; one real add per output value."""
    r = x + y if out is None else np.add(x, y, out)
    counter.adds += r.size
    return r


def csub(counter, x, y, out=None):
    r = x - y if out is None else np.subtract(x, y, out)
    counter.adds += r.size
    return r


def cmul(counter, x, y, out=None):
    """Counted elementwise multiplication, into out if given; one real multiply per output value."""
    r = x * y if out is None else np.multiply(x, y, out)
    counter.muls += r.size
    return r


def cmul_rows(counter, x, w, out=None):
    """Counted multiply of each row of x (rows, signals) by its own constant w[i]."""
    r = x * w[:, None] if out is None else np.multiply(x, w[:, None], out)
    counter.muls += r.size
    return r


_PIPELINES = ("two_tier", "single_tier")

# Read-only constant vectors shared by every TrigTable in the process:
# (dtype, pipeline, N, indices) -> (vector, keys of the constants in it).
# Values depend on nothing but the key, so a table need only log what it
# was given, and threads may fill the cache concurrently: setdefault makes
# the first vector stored for a key the one every lookup gets.
_VECTORS = {}


class TrigTable:
    """Trigonometric constants shared by the fast transforms, and one run's access log.

    Half-secant entries hold 1/(2 cos(2 pi j/d)) keyed by the reduced
    fraction j/d; one named entry holds the eighth-turn cosine
    cos(2 pi / 8).  The numeric value of that named entry equals the
    half-secant at 1/8 (both are sqrt(2)/2), but it is its own entry:
    footprint audits count constant definitions, not distinct reals.
    A transform at periodization N logs the half-secants at m/N for
    m = 1..N/4-1; the improved one adds the eighth-turn cosine.

    pipeline "two_tier" evaluates each constant in a wider precision and
    rounds once to the working dtype; "single_tier" performs every step
    of the evaluation in the working dtype, which costs accuracy for
    angles near a quarter turn where the secant is steep.

    A table holds no values, only its log: each lookup it served, mapped
    to the keys of the constants it returned.  touched unions that log.
    """

    def __init__(self, dtype=np.float64, pipeline="two_tier"):
        if pipeline not in _PIPELINES:
            raise ValueError(f"pipeline must be one of {_PIPELINES}")
        self.dtype = np.dtype(dtype)
        if self.dtype.type not in (np.float32, np.float64):
            raise ValueError("working dtype must be float32 or float64")
        self.pipeline = pipeline
        self.half = self.dtype.type(0.5)  # exact; not a table entry
        self._log = {}  # lookup -> keys of the constants it returned

    # -- constant evaluation ------------------------------------------------

    def _value_for(self, j, d, secant=True):
        """1/(2 cos(2 pi j/d)), or cos(2 pi j/d) if not secant, for integer arrays j, d."""
        ft = self.dtype.type
        if self.pipeline == "single_tier":
            # every step rounded to the working dtype
            c = np.cos(ft(2.0) * ft(np.pi) * (j.astype(ft) / d.astype(ft)))
            return ft(1.0) / (ft(2.0) * c) if secant else c
        # the tier above the working dtype, rounded once at the end
        if ft is np.float32:
            c = np.cos(2.0 * math.pi * (j / d))
        else:
            c = np.cos(2.0 * _WIDE_PI * (j.astype(np.longdouble) / d.astype(np.longdouble)))
        return (1.0 / (2.0 * c) if secant else c).astype(ft)

    def _lookup(self, N, ns):
        # the read-only vector of one lookup; its constants' keys join the log
        key = (self.dtype, self.pipeline, N, ns)
        entry = _VECTORS.get(key)
        if entry is None:
            if ns == "cos8":
                vec = self._value_for(np.array([1]), np.array([8]), secant=False)
                keys = [("cos8",)]
            else:
                n = np.array(ns, dtype=np.int64).reshape(-1)
                g = np.gcd(n, N)
                j, d = n // g, N // g
                if (d == 4).any():
                    raise ValueError("half-secant undefined at a quarter turn")
                vec = self._value_for(j, d)
                keys = zip(repeat("sec"), j.tolist(), d.tolist())
            vec.flags.writeable = False
            entry = _VECTORS.setdefault(key, (vec, frozenset(keys)))
        self._log[key] = entry[1]
        return entry[0]

    # -- public lookups -----------------------------------------------------

    def half_secant(self, n, N):
        """1/(2 cos(2 pi n/N)); n/N must not land on an odd quarter turn."""
        return self.half_secants(N, (n,))[0]

    def half_secants(self, N, ns):
        """Read-only vector of half-secants for the time indices ns at periodization N.

        No n/N may land on an odd quarter turn.  A range is its own cache
        key.  Every lookup logs the vector's constants.
        """
        return self._lookup(N, ns if isinstance(ns, range) else tuple(int(n) for n in ns))

    def eighth_cos(self):
        """cos(2 pi / 8), the one named constant beyond the half-secants."""
        return self._lookup(8, "cos8")[0]

    # -- audit --------------------------------------------------------------

    @property
    def touched(self):
        """Keys of every constant the logged lookups returned."""
        return set().union(*self._log.values())

    def touched_count(self):
        return len(self.touched)

    def reset_log(self):
        self._log = {}

