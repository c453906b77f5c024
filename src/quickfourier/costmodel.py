"""Operation-count predictions and instrumented measurements.

Closed forms are evaluated in exact rational arithmetic and returned as
integers.  Both algorithms have formulas for all four transforms.  The
classical ones hold from eight points (dst0 from four); below that the
counts are pinned from the recursion itself.  split_radix_cost states
the reference count that the paper's improved algorithm meets.
"""

import csv
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import check_names, transform_fn
from .counting import OpCounter
from .taxonomy import ROOT_TYPE, check_type_n, stored_length

def _exact(expr):
    expr = Fraction(expr)
    if expr.denominator != 1:
        raise AssertionError(f"count formula produced a non-integer: {expr}")
    return int(expr)


def predicted_cost(algorithm, transform, N):
    """Closed-form (adds, muls) for one transform at periodization N."""
    check_names(algorithm, transform)
    check_type_n(ROOT_TYPE[transform], N)
    lg = N.bit_length() - 1
    if algorithm == "classical":
        return _classical_cost(transform, N, lg)
    if transform == "cdft":
        adds = _exact(3 * N * lg - 3 * N + 4)
        muls = _exact(N * lg - 3 * N + 4)
    elif transform == "rdft":
        adds = _exact(Fraction(3, 2) * N * lg - Fraction(5, 2) * N + 4)
        muls = _exact(Fraction(1, 2) * N * lg - Fraction(3, 2) * N + 2)
    elif transform == "dct0":
        adds = _exact(Fraction(3, 4) * N * lg - Fraction(7, 4) * N + lg + 3)
        muls = _exact(Fraction(1, 4) * N * lg - Fraction(3, 4) * N + 1)
    else:  # dst0
        adds = _exact(Fraction(3, 4) * N * lg - Fraction(7, 4) * N - lg + 3)
        muls = _exact(Fraction(1, 4) * N * lg - Fraction(3, 4) * N + 1)
    return (adds, muls)


# classical (adds, muls) below eight points, where the closed forms
# extrapolate to negative or fractional counts
_CLASSICAL_SMALL = {
    "cdft": {2: (4, 0), 4: (16, 0)},
    "rdft": {2: (2, 0), 4: (6, 0)},
    "dct0": {2: (2, 0), 4: (4, 0)},
}


def _classical_cost(transform, N, lg):
    pinned = _CLASSICAL_SMALL.get(transform, {}).get(N)
    if pinned is not None:
        return pinned
    if transform == "cdft":
        adds = Fraction(7, 2) * N * lg - 4 * N
        muls = N * lg - Fraction(11, 4) * N + 2
    elif transform == "rdft":  # dct0 + dst0 + the N - 2 adds of the fold
        adds = Fraction(7, 4) * N * lg - 3 * N + 2
        muls = Fraction(1, 2) * N * lg - Fraction(11, 8) * N + 1
    elif transform == "dct0":
        adds = Fraction(3, 4) * N * lg - N
        muls = Fraction(1, 4) * N * lg - Fraction(5, 8) * N
    else:  # dst0
        adds = N * lg - 3 * N + 4
        muls = Fraction(1, 4) * N * lg - Fraction(3, 4) * N + 1
    return (_exact(adds), _exact(muls))


def split_radix_cost(N):
    """(adds, muls) of split-radix 3add/3mul for a complex DFT at periodization N.

    Sorensen, Heideman and Burrus, IEEE TASSP 34(1), 1986: 3N lg N - 3N + 4
    adds and N lg N - 3N + 4 muls.  The paper claims this count for the
    improved QFT's cdft; the tests check it against the recursion.
    """
    check_type_n(ROOT_TYPE["cdft"], N)
    lg = N.bit_length() - 1
    return (_exact(3 * N * lg - 3 * N + 4), _exact(N * lg - 3 * N + 4))


def measured_cost(algorithm, transform, N):
    """(adds, muls) observed by running the instrumented transform once."""
    fn = transform_fn(algorithm, transform)
    # ones: a count does not depend on the samples, and drawing random
    # ones would import numpy.random
    x = np.ones(stored_length(transform, N))
    counter = OpCounter()
    fn(x, counter=counter)
    return (counter.adds, counter.muls)


@dataclass(frozen=True)
class CostRow:
    algorithm: str
    transform: str
    N: int
    adds_pred: int
    adds_meas: int
    muls_pred: int
    muls_meas: int

    @property
    def flops_pred(self):
        return self.adds_pred + self.muls_pred

    @property
    def flops_meas(self):
        return self.adds_meas + self.muls_meas

    @property
    def consistent(self):
        return self.adds_pred == self.adds_meas and self.muls_pred == self.muls_meas


def cost_rows(algorithm, transform="cdft", sizes=None):
    """Predicted-versus-measured rows for one transform; sizes default to 4..2048."""
    if sizes is None:
        sizes = [1 << p for p in range(2, 12)]
    rows = []
    for N in sizes:
        adds_pred, muls_pred = predicted_cost(algorithm, transform, N)
        adds_meas, muls_meas = measured_cost(algorithm, transform, N)
        rows.append(CostRow(algorithm, transform, N,
                            adds_pred, adds_meas, muls_pred, muls_meas))
    return rows


CSV_HEADER = ("algorithm", "transform", "N", "adds_pred", "adds_meas",
              "muls_pred", "muls_meas", "flops_pred", "flops_meas")


def write_cost_csv(rows, fh):
    """Write rows in the stable CSV layout used by the command line."""
    writer = csv.writer(fh)
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([r.algorithm, r.transform, r.N, r.adds_pred, r.adds_meas,
                         r.muls_pred, r.muls_meas, r.flops_pred, r.flops_meas])
