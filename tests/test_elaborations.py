"""Round-trip checks of the step tables' splits against the brute-force spectra."""

import numpy as np
import pytest

from quickfourier import classical, elaborations, improved
from quickfourier.counting import OpCounter, TrigTable
from quickfourier.elaborations import (
    dc_harmonic_backward,
    dc_t1t_harmonic_forward,
    dc_time_forward,
    dc_tt_harmonic_forward,
    ds_time_forward,
)
from quickfourier.reference import pruned_naive
from quickfourier.taxonomy import SignalView, lk, ln, sto_n

TOL = 1e-12
TABLES = {"classical": classical.STEPS, "improved": improved.STEPS}

# every step that splits, conversions included, as (algorithm, type)
SPLITTING = [(algorithm, t) for algorithm, steps in TABLES.items()
             for t, step in steps.items() if step.children]
# the time- and harmonic-parity splits: steps whose forward is a plain
# split, or improved's odd-time harmonic split, which also converts its
# odd-odd child in that child's own slot
SPLITS = [(algorithm, t) for algorithm, t in SPLITTING
          if TABLES[algorithm][t].forward.__module__ in (elaborations.__name__,
                                                         improved.__name__)]
TIME_FORWARDS = (dc_time_forward, ds_time_forward)


def random_view(sig_type, N, seed):
    rng = np.random.default_rng(seed)
    return SignalView(sig_type, N, rng.uniform(-1.0, 1.0, len(sto_n(sig_type, N))))


def round_trip(step, sig_type, N, seed):
    """Run step's forward on a seeded (ln, 1) column and its backward on the
    brute-force spectra of the children, each typed as the table declares.

    Returns (mother's spectrum, backward's spectrum, forward counter,
    backward counter).
    """
    mother = random_view(sig_type, N, seed)
    x = mother.buffer[:, None].copy()  # a conversion scales its input in place
    outs = [np.empty((ln(t, N >> h), 1)) for t, h in step.children]
    forward = OpCounter()
    step.forward(x, N, TrigTable(), forward, outs)
    spectra = [pruned_naive(SignalView(t, N >> h, out[:, 0]))[:, None]
               for (t, h), out in zip(step.children, outs)]
    combined = np.empty((lk(sig_type, N), 1))
    backward = OpCounter()
    step.backward(N, spectra, backward, combined)
    return pruned_naive(mother), combined[:, 0], forward, backward


@pytest.mark.parametrize("N", [16, 64])
@pytest.mark.parametrize("algorithm,sig_type", SPLITTING)
def test_every_split_roundtrips(algorithm, sig_type, N):
    want, got, _, _ = round_trip(TABLES[algorithm][sig_type], sig_type, N, seed=N + len(sig_type))
    assert np.allclose(got, want, atol=TOL)


# a harmonic split charges two adds per paired time index in its forward
# step, a time split two per mirrored harmonic pair in its backward step
SPLIT_ADDS = {"dc_tt": lambda N: N // 2, "ds_tt": lambda N: N // 2 - 2,
              "dc_ot": lambda N: N // 4, "ds_ot": lambda N: N // 4}
# improved's odd-time harmonic splits also convert their odd-odd child,
# one multiply per cell, and form its odd harmonics as neighbour sums, one
# add each but a free copy
CONVERTING = ("dc_ot", "ds_ot")


@pytest.mark.parametrize("N", [16, 64])
@pytest.mark.parametrize("algorithm,sig_type", SPLITS)
def test_split_charges(algorithm, sig_type, N):
    step = TABLES[algorithm][sig_type]
    _, _, forward, backward = round_trip(step, sig_type, N, seed=3 * N + len(sig_type))
    adds = SPLIT_ADDS[sig_type](N)
    muls, sums = (N // 8, N // 8 - 1) if sig_type in CONVERTING else (0, 0)
    time = step.forward in TIME_FORWARDS
    assert (forward.adds, backward.adds) == ((0, adds) if time else (adds, sums))
    assert (forward.muls, backward.muls) == (muls, 0)


@pytest.mark.parametrize("N", [16, 64])
def test_t1t_harmonic_split_roundtrip_and_charge(N):
    # classical dc_to's converted signal: dc_t1t at N splits into dc_te
    # and dc_to, both at N
    mother = random_view("dc_t1t", N, seed=N + 6)
    even, odd = np.empty(ln("dc_te", N)), np.empty(ln("dc_to", N))
    counter = OpCounter()
    dc_t1t_harmonic_forward(mother.buffer, N, TrigTable(), counter, (even, odd))
    assert (counter.adds, counter.muls) == (N // 2, 0)
    combined = np.empty(lk("dc_t1t", N))
    dc_harmonic_backward(N, [pruned_naive(SignalView("dc_te", N, even)),
                             pruned_naive(SignalView("dc_to", N, odd))], OpCounter(), combined)
    assert np.allclose(combined, pruned_naive(mother), atol=TOL)


def test_t1t_harmonic_split_charges_the_zero_pair():
    even, odd = np.empty(3), np.empty(2)
    counter = OpCounter()
    dc_t1t_harmonic_forward(np.array([1.0, 2.0, 3.0, 4.0]), 8, TrigTable(), counter, (even, odd))
    # pairs: (0, missing zero) and (1, 3); index 2 is the free middle copy
    assert counter.adds == 4
    assert np.all(even == [1.0, 6.0, 3.0])
    assert np.all(odd == [1.0, -2.0])


def halvings(time):
    """(via type, first child type) of every time or harmonic split in the tables."""
    pairs = {(step.via[0][0], step.children[0][0]) for step in
             (TABLES[a][t] for a, t in SPLITS) if (step.forward in TIME_FORWARDS) == time}
    return sorted(pairs)


@pytest.mark.parametrize("N", [16, 64])
@pytest.mark.parametrize("via,child", halvings(time=False))
def test_halve_even_harmonics_preserves_spectrum(via, child, N):
    view = random_view(via, N, seed=N)
    halved = SignalView(child, N // 2, view.buffer)
    assert halved.buffer is view.buffer
    assert np.allclose(pruned_naive(halved), pruned_naive(view), atol=TOL)


@pytest.mark.parametrize("N", [16, 64])
@pytest.mark.parametrize("via,child", halvings(time=True))
def test_halve_even_times_preserves_spectrum(via, child, N):
    view = random_view(via, N, seed=N + 1)
    # even-time halving keeps the values and reindexes n -> n/2
    halved = SignalView(child, N // 2, view.buffer)
    assert np.allclose(pruned_naive(halved), pruned_naive(view), atol=TOL)


def test_halvings_cover_both_kinds():
    assert halvings(time=False) == [("dc_oe", "dc_ot"), ("dc_te", "dc_tt"),
                                    ("ds_oe", "ds_ot"), ("ds_te", "ds_tt")]
    assert halvings(time=True) == [("dc_et", "dc_tt"), ("ds_et", "ds_tt")]


def test_batched_kernels_match_per_signal():
    rng = np.random.default_rng(11)
    X = rng.uniform(-1.0, 1.0, (9, 3))  # dc_tt at N=16, three signals
    table = TrigTable()
    counter = OpCounter()
    even_b, odd_b = np.empty((5, 3)), np.empty((4, 3))  # dc_te, dc_to at N=16
    dc_tt_harmonic_forward(X, 16, table, counter, (even_b, odd_b))
    assert counter.adds == 3 * 8
    for j in range(3):
        e1, o1 = np.empty(5), np.empty(4)
        dc_tt_harmonic_forward(X[:, j], 16, table, OpCounter(), (e1, o1))
        assert np.allclose(even_b[:, j], e1)
        assert np.allclose(odd_b[:, j], o1)
    e_b, o_b = np.empty((3, 3)), np.empty((4, 3))  # ds_et, ds_ot at N=16
    ds_time_forward(X[:7], 16, table, OpCounter(), (e_b, o_b))
    for j in range(3):
        e1, o1 = np.empty(3), np.empty(4)
        ds_time_forward(X[:7, j], 16, table, OpCounter(), (e1, o1))
        assert np.allclose(e_b[:, j], e1)
        assert np.allclose(o_b[:, j], o1)
