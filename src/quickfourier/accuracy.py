"""Rounding-error measurement for the two transform recursions.

Inputs are complex signals with independent uniform(-0.5, 0.5) real and
imaginary parts, generated by a counter-based PRNG keyed on (seed,
trial) so any trial can be regenerated in isolation.  The transform
under test runs in float32; the reference spectrum is the brute-force
sum in float64 on the same float32 samples.  The per-trial figure is
the relative root-mean-square spectrum error; trials are averaged with
exact summation.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import ALGORITHMS, reference, transform_fn
from .counting import OpCounter, TrigTable

DEFAULT_SEED = 1234
DEFAULT_SIZES = (256, 1024, 4096)
DEFAULT_TRIALS = 200


def _philox(seed, trial):
    return np.random.Generator(np.random.Philox(key=[seed, trial]))


def random_signal(N, seed, trial, dtype=np.complex64):
    """One complex test signal; draws interleave real and imaginary parts."""
    draws = _philox(seed, trial).uniform(-0.5, 0.5, 2 * N)
    return (draws[0::2] + 1j * draws[1::2]).astype(dtype)


def random_complex_batch(N, seed, trials, dtype=np.complex64):
    """Signals for trials 0..trials-1 as the columns of an (N, trials) array."""
    out = np.empty((N, trials), dtype=dtype)
    for t in range(trials):
        out[:, t] = random_signal(N, seed, t, dtype)
    return out


def random_real_batch(length, seed, trials, dtype=np.float64):
    """Real test vectors as columns, same keying as the complex batch."""
    out = np.empty((length, trials), dtype=dtype)
    for t in range(trials):
        out[:, t] = _philox(seed, t).uniform(-0.5, 0.5, length).astype(dtype)
    return out


def relative_rms_error(got, want):
    """RMS of the error over RMS of the reference, per column."""
    got = np.asarray(got, dtype=np.complex128)
    want = np.asarray(want, dtype=np.complex128)
    num = np.sqrt(np.mean(np.abs(got - want) ** 2, axis=0))
    den = np.sqrt(np.mean(np.abs(want) ** 2, axis=0))
    return num / den


@dataclass(frozen=True)
class AccuracyRow:
    algorithm: str
    N: int
    trials: int
    mean_rel_rms_error: float


def run_accuracy(algorithm, N, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED,
                 pipeline="two_tier", inputs=None, oracle=None):
    """Mean relative RMS error of one algorithm at one periodization."""
    fn = transform_fn(algorithm, "cdft")
    if inputs is None:
        inputs = random_complex_batch(N, seed, trials, np.complex64)
    if inputs.shape[1] == 0:
        raise ValueError("the accuracy experiment needs at least one trial")
    if oracle is None:
        oracle = reference.cdft_naive(inputs.astype(np.complex128))
    table = TrigTable(np.float32, pipeline)
    got = fn(inputs, table=table, counter=OpCounter())
    errs = relative_rms_error(got, oracle)
    mean = math.fsum(float(e) for e in errs) / len(errs)
    return AccuracyRow(algorithm, N, int(errs.shape[0]), mean)


def accuracy_experiment(sizes=DEFAULT_SIZES, trials=DEFAULT_TRIALS,
                        seed=DEFAULT_SEED, pipeline="two_tier"):
    """Rows for both algorithms over the sizes, sharing inputs and oracle."""
    rows = []
    for N in sizes:
        inputs = random_complex_batch(N, seed, trials, np.complex64)
        oracle = reference.cdft_naive(inputs.astype(np.complex128))
        for algorithm in ALGORITHMS:
            rows.append(run_accuracy(algorithm, N, trials, seed, pipeline,
                                     inputs=inputs, oracle=oracle))
    return rows


def pipeline_comparison(algorithm, N, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED):
    """Error with carefully built constants versus all-working-dtype ones.

    Returns (two_tier, single_tier) rows; building every constant in the
    working dtype loses accuracy near the quarter turn, where the secant
    magnifies the angle rounding.
    """
    inputs = random_complex_batch(N, seed, trials, np.complex64)
    oracle = reference.cdft_naive(inputs.astype(np.complex128))
    two = run_accuracy(algorithm, N, trials, seed, "two_tier", inputs, oracle)
    one = run_accuracy(algorithm, N, trials, seed, "single_tier", inputs, oracle)
    return two, one


ACCURACY_HEADER = ("algorithm", "N", "trials", "mean_rel_rms_error")


def write_accuracy_csv(rows, fh):
    writer = csv.writer(fh)
    writer.writerow(ACCURACY_HEADER)
    for r in rows:
        writer.writerow([r.algorithm, r.N, r.trials, f"{r.mean_rel_rms_error:.3g}"])
