"""Operation accounting and the table of trigonometric constants.

The fast transforms route every real addition and multiplication through
the counted helpers here, so measured operation counts are exact rather
than estimated.  Constants come from a TrigTable that logs which entries
a run touched, keyed by what the constant is (a reduced angle fraction,
or the named eighth-turn cosine), so equal angles collapse to one entry
no matter which recursion level asked for them.
"""

import math
from math import gcd

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


def cmul(counter, x, y):
    """Counted elementwise multiplication; one real multiply per output value."""
    r = x * y
    counter.muls += r.size
    return r


def rows_like(x, n):
    """Uninitialized array of n rows matching x's trailing shape and dtype.

    Transform kernels hold one stored value per leading row; a trailing
    axis, when present, carries a batch of independent signals.
    """
    x = np.asarray(x)
    return np.empty((n,) + x.shape[1:], dtype=x.dtype)


def cmul_rows(counter, x, w, out=None):
    """Counted multiply of each row of x (rows, signals) by its own constant w[i]."""
    r = x * w[:, None] if out is None else np.multiply(x, w[:, None], out)
    counter.muls += r.size
    return r


_PIPELINES = ("two_tier", "single_tier")


class TrigTable:
    """Trigonometric constants shared by the fast transforms.

    Half-secant entries hold 1/(2 cos(2 pi j/d)) keyed by the reduced
    fraction j/d; one named entry holds the eighth-turn cosine
    cos(2 pi / 8).  The numeric value of that named entry equals the
    half-secant at 1/8 (both are sqrt(2)/2), but it is its own entry:
    footprint audits count constant definitions, not distinct reals.

    pipeline "two_tier" evaluates each constant in a wider precision and
    rounds once to the working dtype; "single_tier" performs every step
    of the evaluation in the working dtype, which costs accuracy for
    angles near a quarter turn where the secant is steep.
    """

    def __init__(self, dtype=np.float64, pipeline="two_tier"):
        if pipeline not in _PIPELINES:
            raise ValueError(f"pipeline must be one of {_PIPELINES}")
        self.dtype = np.dtype(dtype)
        if self.dtype.type not in (np.float32, np.float64):
            raise ValueError("working dtype must be float32 or float64")
        self.pipeline = pipeline
        self.half = self.dtype.type(0.5)  # exact; not a table entry
        self._values = {}
        self._vec_cache = {}    # (N, indices) -> (vector, its constants' keys)
        self._logged_vecs = {}  # the vectors whose constants are logged since reset_log
        self.touched = set()

    # -- constant evaluation ------------------------------------------------

    def _wide_cos_of_turns(self, j, d):
        # cos(2 pi j/d) in the tier above the working dtype
        if self.dtype.type is np.float32:
            return math.cos(2.0 * math.pi * (j / d))
        t = np.longdouble(j) / np.longdouble(d)
        return np.cos(2.0 * _WIDE_PI * t)

    def _working_cos_of_turns(self, j, d):
        # every step rounded to the working dtype
        ft = self.dtype.type
        ang = ft(2.0) * ft(np.pi) * (ft(j) / ft(d))
        return np.cos(ang)

    def _value_for(self, key):
        if key == ("cos8",):
            if self.pipeline == "two_tier":
                return self.dtype.type(self._wide_cos_of_turns(1, 8))
            return self.dtype.type(self._working_cos_of_turns(1, 8))
        _, j, d = key
        if self.pipeline == "two_tier":
            c = self._wide_cos_of_turns(j, d)
            return self.dtype.type(1.0 / (2.0 * c))
        ft = self.dtype.type
        c = self._working_cos_of_turns(j, d)
        return ft(1.0) / (ft(2.0) * c)

    def _get(self, key):
        v = self._values.get(key)
        if v is None:
            v = self._value_for(key)
            self._values[key] = v
        self.touched.add(key)
        return v

    # -- public lookups -----------------------------------------------------

    def half_secant(self, n, N):
        """1/(2 cos(2 pi n/N)); n/N must not land on an odd quarter turn."""
        g = gcd(n, N)
        j, d = n // g, N // g
        if d == 4:
            raise ValueError("half-secant undefined at a quarter turn")
        return self._get(("sec", j, d))

    def half_secants(self, N, ns):
        """Read-only vector of half-secants for the time indices ns at periodization N.

        A range is its own cache key.  Each vector's constants join the
        access log on its first lookup after a reset_log().
        """
        key = (N, ns if isinstance(ns, range) else tuple(int(n) for n in ns))
        vec = self._logged_vecs.get(key)
        if vec is None:
            vec, keys = self._vec_cache.get(key) or self._secant_vector(N, key[1])
            self._vec_cache[key] = vec, keys
            self.touched.update(keys)
            self._logged_vecs[key] = vec
        return vec

    def _secant_vector(self, N, ns):
        keys = []
        for n in ns:
            g = gcd(n, N)
            keys.append(("sec", n // g, N // g))
        vec = np.array([self._get(key) for key in keys], dtype=self.dtype)
        vec.flags.writeable = False
        return vec, frozenset(keys)

    def eighth_cos(self):
        """cos(2 pi / 8), the one named constant beyond the half-secants."""
        return self._get(("cos8",))

    # -- audit --------------------------------------------------------------

    def touched_count(self):
        return len(self.touched)

    def reset_log(self):
        self.touched = set()
        self._logged_vecs = {}


def build_trig_table(algorithm, N, dtype=np.float64, pipeline="two_tier"):
    """Precompute the constants a full transform at periodization N uses.

    Both algorithms draw on the half-secants at the reduced fractions
    m/N for m = 1..N/4-1; the improved algorithm adds the eighth-turn
    cosine for its smallest odd-odd stages.  The access log starts empty
    so a following run can be audited against this footprint.
    """
    if algorithm not in ("classical", "improved"):
        raise ValueError("algorithm must be 'classical' or 'improved'")
    table = TrigTable(dtype=dtype, pipeline=pipeline)
    for m in range(1, N // 4):
        table.half_secant(m, N)
    if algorithm == "improved" and N >= 8:
        table.eighth_cos()
    table.reset_log()
    return table
