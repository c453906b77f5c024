"""Operation-count predictions and instrumented measurements.

Closed forms are evaluated in exact rational arithmetic and returned as
integers.  The improved algorithm has formulas for all four transforms;
the classical algorithm's closed form covers the complex transform for
periodizations of eight and up, with the two smaller sizes pinned from
the recursion itself.
"""

import csv
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import classical, improved
from .counting import OpCounter, build_trig_table

ALGORITHMS = ("classical", "improved")
TRANSFORMS = ("cdft", "rdft", "dct0", "dst0")

# complex-transform (adds, muls) by periodization, classical recursion
CLASSICAL_CDFT_COUNTS = {
    4: (16, 0), 8: (52, 4), 16: (160, 22), 32: (432, 74), 64: (1088, 210),
    128: (2624, 546), 256: (6144, 1346), 512: (14080, 3202),
    1024: (31744, 7426), 2048: (70656, 16898),
}

# complex-transform (adds, muls) by periodization, improved recursion
IMPROVED_CDFT_COUNTS = {
    4: (16, 0), 8: (52, 4), 16: (148, 20), 32: (388, 68), 64: (964, 196),
    128: (2308, 516), 256: (5380, 1284), 512: (12292, 3076),
    1024: (27652, 7172), 2048: (61444, 16388),
}


def _lg(N):
    if N < 2 or N & (N - 1):
        raise ValueError(f"periodization must be a power of two >= 2, got {N}")
    return N.bit_length() - 1


def _exact(expr):
    expr = Fraction(expr)
    if expr.denominator != 1:
        raise AssertionError(f"count formula produced a non-integer: {expr}")
    return int(expr)


def _check_names(algorithm, transform):
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    if transform not in TRANSFORMS:
        raise ValueError(f"transform must be one of {TRANSFORMS}, got {transform!r}")


def transform_fn(algorithm, transform):
    """The public function for one transform of one algorithm, e.g. improved.cdft."""
    _check_names(algorithm, transform)
    return getattr(classical if algorithm == "classical" else improved, transform)


def predicted_cost(algorithm, transform, N):
    """Closed-form (adds, muls) for one transform at periodization N."""
    _check_names(algorithm, transform)
    lg = _lg(N)
    if algorithm == "classical":
        if transform != "cdft":
            raise ValueError("the classical closed form covers only cdft")
        if N == 2:
            return (4, 0)
        if N == 4:
            # the formula extrapolates to a negative multiply count here;
            # the recursion itself gives sixteen adds and no multiplies
            return (16, 0)
        adds = _exact(Fraction(7, 2) * N * lg - 4 * N)
        muls = _exact(N * lg - Fraction(11, 4) * N + 2)
        return (adds, muls)
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
        if N < 4:
            raise ValueError("the sine transform needs a periodization >= 4")
        adds = _exact(Fraction(3, 4) * N * lg - Fraction(7, 4) * N - lg + 3)
        muls = _exact(Fraction(1, 4) * N * lg - Fraction(3, 4) * N + 1)
    return (adds, muls)


def _input_for(transform, N, rng):
    if transform == "cdft":
        return rng.uniform(-0.5, 0.5, N) + 1j * rng.uniform(-0.5, 0.5, N)
    if transform == "rdft":
        return rng.uniform(-0.5, 0.5, N)
    if transform == "dct0":
        return rng.uniform(-0.5, 0.5, N // 2 + 1)
    return rng.uniform(-0.5, 0.5, N // 2 - 1)


def measured_cost(algorithm, transform, N):
    """(adds, muls) observed by running the instrumented transform once."""
    fn = transform_fn(algorithm, transform)
    x = _input_for(transform, N, np.random.default_rng(N))
    table = build_trig_table(algorithm, N, np.float64)
    counter = OpCounter()
    fn(x, table=table, counter=counter)
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


def cost_rows(algorithm, transform, sizes):
    """Predicted-versus-measured rows for one transform over the sizes."""
    rows = []
    for N in sizes:
        adds_pred, muls_pred = predicted_cost(algorithm, transform, N)
        adds_meas, muls_meas = measured_cost(algorithm, transform, N)
        rows.append(CostRow(algorithm, transform, N,
                            adds_pred, adds_meas, muls_pred, muls_meas))
    return rows


def cost_table(algorithm, transform="cdft", sizes=None):
    """Rows for the requested transform; sizes default to 4..2048."""
    if sizes is None:
        sizes = [1 << p for p in range(2, 12)]
    return cost_rows(algorithm, transform, sizes)


CSV_HEADER = ("algorithm", "transform", "N", "adds_pred", "adds_meas",
              "muls_pred", "muls_meas", "flops_pred", "flops_meas")


def write_cost_csv(rows, fh):
    """Write rows in the stable CSV layout used by the command line."""
    writer = csv.writer(fh)
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([r.algorithm, r.transform, r.N, r.adds_pred, r.adds_meas,
                         r.muls_pred, r.muls_meas, r.flops_pred, r.flops_meas])
