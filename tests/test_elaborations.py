"""Round-trip checks of the elaborations against the brute-force spectra."""

import numpy as np
import pytest

from quickfourier.counting import OpCounter
from quickfourier.elaborations import (
    HALVE_HARMONICS_CHILD,
    HALVE_TIME_CHILD,
    HARMONIC_SPLIT_CHILDREN,
    TIME_SPLIT_CHILDREN,
    split_harmonic_parity_backward,
    split_harmonic_parity_forward,
    split_time_parity_backward,
    split_time_parity_forward,
)
from quickfourier.reference import pruned_naive
from quickfourier.taxonomy import SignalView, lk, ln, sto_n

TOL = 1e-12


def random_view(sig_type, N, seed):
    rng = np.random.default_rng(seed)
    return SignalView(sig_type, N, rng.uniform(-1.0, 1.0, len(sto_n(sig_type, N))))


def child_buffers(children, sig_type, N, x):
    """Empty buffers for a split's children, ln(child type, N) rows each,
    with x's columns: a kernel writes into what it is handed."""
    return [np.empty((ln(t, N),) + x.shape[1:]) for t in children[sig_type]]


def spectrum_buffer(sig_type, N):
    """An empty mother spectrum, lk(sig_type, N) cells."""
    return np.empty(lk(sig_type, N))


def child_views(children, mother, buffers):
    """A split's child buffers as views of the types its table names."""
    return [SignalView(t, mother.N, buf) for t, buf in zip(children[mother.type], buffers)]


def harmonic_split(mother, counter):
    buffers = child_buffers(HARMONIC_SPLIT_CHILDREN, mother.type, mother.N, mother.buffer)
    split_harmonic_parity_forward(mother.type, mother.N, mother.buffer, counter, buffers)
    return child_views(HARMONIC_SPLIT_CHILDREN, mother, buffers)


def time_split(mother):
    buffers = child_buffers(TIME_SPLIT_CHILDREN, mother.type, mother.N, mother.buffer)
    split_time_parity_forward(mother.type, mother.N, mother.buffer, buffers)
    return child_views(TIME_SPLIT_CHILDREN, mother, buffers)


def test_dispatch_tables():
    assert TIME_SPLIT_CHILDREN == {
        "dc_tt": ("dc_et", "dc_ot"),
        "ds_tt": ("ds_et", "ds_ot"),
    }
    assert HARMONIC_SPLIT_CHILDREN == {
        "dc_tt": ("dc_te", "dc_to"),
        "dc_ot": ("dc_oe", "dc_oo"),
        "ds_tt": ("ds_te", "ds_to"),
        "ds_ot": ("ds_oe", "ds_oo"),
        "dc_t1t": ("dc_te", "dc_to"),
    }
    assert HALVE_HARMONICS_CHILD == {
        "dc_te": "dc_tt", "dc_oe": "dc_ot", "ds_te": "ds_tt",
        "ds_oe": "ds_ot", "dc_t1e": "dc_t1t",
    }
    assert HALVE_TIME_CHILD == {"dc_et": "dc_tt", "ds_et": "ds_tt"}


HARMONIC_CASES = [
    ("dc_tt", 16, 16 // 2), ("dc_tt", 64, 64 // 2),
    ("ds_tt", 16, 16 // 2 - 2), ("ds_tt", 64, 64 // 2 - 2),
    ("dc_ot", 16, 16 // 4), ("dc_ot", 64, 64 // 4),
    ("ds_ot", 16, 16 // 4), ("ds_ot", 64, 64 // 4),
    ("dc_t1t", 16, 16 // 2), ("dc_t1t", 64, 64 // 2),
]


@pytest.mark.parametrize("sig_type,N,want_adds", HARMONIC_CASES)
def test_harmonic_split_roundtrip_and_charge(sig_type, N, want_adds):
    mother = random_view(sig_type, N, seed=N + len(sig_type))
    counter = OpCounter()
    even, odd = harmonic_split(mother, counter)
    assert counter.adds == want_adds
    assert counter.muls == 0
    combined = spectrum_buffer(sig_type, N)
    split_harmonic_parity_backward(sig_type, N, pruned_naive(even), pruned_naive(odd), combined)
    assert np.allclose(combined, pruned_naive(mother), atol=TOL)


TIME_CASES = [
    ("dc_tt", 16, 8), ("dc_tt", 64, 32),
    ("ds_tt", 16, 6), ("ds_tt", 64, 30),
]


@pytest.mark.parametrize("sig_type,N,want_adds", TIME_CASES)
def test_time_split_roundtrip_and_charge(sig_type, N, want_adds):
    mother = random_view(sig_type, N, seed=3 * N + len(sig_type))
    even, odd = time_split(mother)  # forward is pure routing
    counter = OpCounter()
    combined = spectrum_buffer(sig_type, N)
    split_time_parity_backward(sig_type, N, pruned_naive(even), pruned_naive(odd), counter,
                               combined)
    assert counter.adds == want_adds
    assert counter.muls == 0
    assert np.allclose(combined, pruned_naive(mother), atol=TOL)


def test_t1t_harmonic_split_charges_the_zero_pair():
    mother = SignalView("dc_t1t", 8, [1.0, 2.0, 3.0, 4.0])
    counter = OpCounter()
    even, odd = harmonic_split(mother, counter)
    # pairs: (0, missing zero) and (1, 3); index 2 is the free middle copy
    assert counter.adds == 4
    assert np.all(even.buffer == [1.0, 6.0, 3.0])
    assert np.all(odd.buffer == [1.0, -2.0])


@pytest.mark.parametrize("sig_type,N", [
    ("dc_te", 16), ("dc_oe", 16), ("ds_te", 16), ("ds_oe", 16),
    ("dc_t1e", 16), ("dc_te", 64), ("ds_oe", 64),
])
def test_halve_even_harmonics_preserves_spectrum(sig_type, N):
    view = random_view(sig_type, N, seed=N)
    child = SignalView(HALVE_HARMONICS_CHILD[sig_type], N // 2, view.buffer)
    assert child.N == N // 2
    assert child.buffer is view.buffer
    assert np.allclose(pruned_naive(child), pruned_naive(view), atol=TOL)


@pytest.mark.parametrize("sig_type,N", [("dc_et", 16), ("ds_et", 16), ("dc_et", 64), ("ds_et", 64)])
def test_halve_even_times_preserves_spectrum(sig_type, N):
    view = random_view(sig_type, N, seed=N + 1)
    # even-time halving keeps the values and reindexes n -> n/2
    child = SignalView(HALVE_TIME_CHILD[sig_type], N // 2, view.buffer)
    assert child.N == N // 2
    assert np.allclose(pruned_naive(child), pruned_naive(view), atol=TOL)


def test_batched_kernels_match_per_signal():
    rng = np.random.default_rng(11)
    X = rng.uniform(-1.0, 1.0, (9, 3))  # dc_tt at N=16, three signals
    counter = OpCounter()
    even_b, odd_b = child_buffers(HARMONIC_SPLIT_CHILDREN, "dc_tt", 16, X)
    split_harmonic_parity_forward("dc_tt", 16, X, counter, (even_b, odd_b))
    assert counter.adds == 3 * 8
    for j in range(3):
        e1, o1 = child_buffers(HARMONIC_SPLIT_CHILDREN, "dc_tt", 16, X[:, j])
        split_harmonic_parity_forward("dc_tt", 16, X[:, j], OpCounter(), (e1, o1))
        assert np.allclose(even_b[:, j], e1)
        assert np.allclose(odd_b[:, j], o1)
    e_b, o_b = child_buffers(TIME_SPLIT_CHILDREN, "ds_tt", 16, X[:7])
    split_time_parity_forward("ds_tt", 16, X[:7], (e_b, o_b))
    for j in range(3):
        e1, o1 = child_buffers(TIME_SPLIT_CHILDREN, "ds_tt", 16, X[:7, j])
        split_time_parity_forward("ds_tt", 16, X[:7, j], (e1, o1))
        assert np.allclose(e_b[:, j], e1)
        assert np.allclose(o_b[:, j], o1)


def test_unsupported_types_raise():
    with pytest.raises(ValueError):
        split_time_parity_forward("dc_ot", 16, np.zeros(4), (np.zeros(2), np.zeros(2)))
    with pytest.raises(ValueError):
        split_time_parity_forward("dc_t1t", 16, np.zeros(8), (np.zeros(4), np.zeros(4)))
    with pytest.raises(ValueError):
        split_harmonic_parity_backward("dc_te", 16, np.zeros(3), np.zeros(2), np.zeros(5))
