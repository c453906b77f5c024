import numpy as np
import pytest

from quickfourier import classical, improved
from quickfourier.taxonomy import (
    MIN_N,
    ROOT_TYPE,
    SIGNAL_TYPES,
    SignalView,
    buffer_slot_freq,
    buffer_slot_time,
    lk,
    ln,
    periodization,
    sto_k,
    sto_n,
    storage_sizes,
    stored_length,
    transform_kind,
)

# Documented 1-based cell position for each stored index, written as
# closed forms so the slot maps are pinned independently of the
# implementation's index-order rule.
TIME_POS = {
    "cx_tt": lambda n, N: n + 1,
    "re_tt": lambda n, N: n + 1,
    "dc_tt": lambda n, N: n + 1,
    "dc_et": lambda n, N: (n + 2) // 2,
    "dc_ot": lambda n, N: (n + 1) // 2,
    "dc_te": lambda n, N: n + 1,
    "dc_to": lambda n, N: n + 1,
    "dc_oe": lambda n, N: (n + 1) // 2,
    "dc_oo": lambda n, N: (n + 1) // 2,
    "dc_t1e": lambda n, N: n + 1,
    "dc_t1t": lambda n, N: n + 1,
    "ds_tt": lambda n, N: n,
    "ds_et": lambda n, N: n // 2,
    "ds_te": lambda n, N: n,
    "ds_to": lambda n, N: n,
    "ds_ot": lambda n, N: (n + 1) // 2,
    "ds_oe": lambda n, N: (n + 1) // 2,
    "ds_oo": lambda n, N: (n + 1) // 2,
    "ds_t1o": lambda n, N: n,
    "ds_e1o": lambda n, N: 1,
}

FREQ_POS = {
    "cx_tt": lambda k, N: k + 1,
    "re_tt": lambda k, N: k + 1,
    "dc_tt": lambda k, N: k + 1,
    "dc_et": lambda k, N: k + 1,
    "dc_ot": lambda k, N: k + 1,
    "dc_te": lambda k, N: (k + 2) // 2,
    "dc_to": lambda k, N: (k + 1) // 2,
    "dc_oe": lambda k, N: (k + 2) // 2,
    "dc_oo": lambda k, N: (k + 1) // 2,
    "dc_t1e": lambda k, N: (k + 2) // 2,
    "dc_t1t": lambda k, N: k + 1,
    "ds_tt": lambda k, N: k,
    "ds_et": lambda k, N: k,
    "ds_te": lambda k, N: k // 2,
    "ds_to": lambda k, N: (k + 1) // 2,
    "ds_ot": lambda k, N: k,
    "ds_oe": lambda k, N: k // 2,
    "ds_oo": lambda k, N: (k + 1) // 2,
    "ds_t1o": lambda k, N: (k + 1) // 2,
    "ds_e1o": lambda k, N: 1,
}


def valid_sizes(sig_type, n_max):
    n = MIN_N[sig_type]
    while n <= n_max:
        yield n
        n *= 2


def test_exactly_twenty_types():
    assert len(SIGNAL_TYPES) == 20
    assert len(set(SIGNAL_TYPES)) == 20


def test_transform_kind():
    assert transform_kind("cx_tt") == "cdft"
    assert transform_kind("re_tt") == "rdft"
    assert transform_kind("dc_oo") == "dct0"
    assert transform_kind("ds_e1o") == "dst0"
    for transform, root in ROOT_TYPE.items():
        assert transform_kind(root) == transform


@pytest.mark.parametrize("transform", sorted(ROOT_TYPE))
def test_periodization_inverts_stored_length(transform):
    root = ROOT_TYPE[transform]
    for lg in range(1, 17):
        N = 1 << lg
        if N < MIN_N[root]:
            with pytest.raises(ValueError):
                stored_length(transform, N)
            continue
        assert stored_length(transform, N) == len(sto_n(root, N))
        assert periodization(transform, stored_length(transform, N)) == N


@pytest.mark.parametrize("transform", sorted(ROOT_TYPE))
@pytest.mark.parametrize("module", [classical, improved], ids=["classical", "improved"])
def test_entry_points_take_exactly_the_stored_lengths(module, transform):
    # taxonomy is the one statement of lengths: a call rejects exactly the
    # lengths periodization rejects, and returns its root's stored harmonics
    fn = getattr(module, transform)
    for length in range(4101):
        try:
            N = periodization(transform, length)
        except ValueError:
            with pytest.raises(ValueError):
                fn(np.zeros(length))
            continue
        assert fn(np.zeros(length)).shape == (len(sto_k(ROOT_TYPE[transform], N)),)


@pytest.mark.parametrize("sig_type", SIGNAL_TYPES)
def test_storage_matches_index_cardinality(sig_type):
    for N in valid_sizes(sig_type, 256):
        n_count = len(sto_n(sig_type, N))
        k_count = len(sto_k(sig_type, N))
        assert n_count > 0 and k_count > 0
        if sig_type == "cx_tt":
            # complex cells in both domains
            assert ln(sig_type, N) == 2 * n_count
            assert lk(sig_type, N) == 2 * k_count
        elif sig_type == "re_tt":
            # real time cells; harmonics pack complex pairs except the
            # two purely real harmonics at k = 0 and k = N/2
            assert ln(sig_type, N) == n_count
            assert lk(sig_type, N) == 2 * k_count - 2
        else:
            assert ln(sig_type, N) == n_count
            assert lk(sig_type, N) == k_count


def test_spot_index_sets_at_n16():
    N = 16
    assert list(sto_n("dc_tt", N)) == [0, 1, 2, 3, 4, 5, 6, 7, 8]
    assert list(sto_n("dc_et", N)) == [0, 2, 4, 6, 8]
    assert list(sto_n("dc_ot", N)) == [1, 3, 5, 7]
    assert list(sto_k("dc_te", N)) == [0, 2, 4, 6, 8]
    assert list(sto_k("dc_to", N)) == [1, 3, 5, 7]
    assert list(sto_n("dc_oe", N)) == [1, 3]
    assert list(sto_k("dc_oe", N)) == [0, 2]
    assert list(sto_k("dc_oo", N)) == [1, 3]
    assert list(sto_n("dc_t1e", N)) == [0, 1, 2, 3]
    assert list(sto_k("dc_t1e", N)) == [0, 2, 4, 6, 8]
    assert list(sto_n("dc_t1t", N)) == [0, 1, 2, 3, 4, 5, 6, 7]
    assert list(sto_k("dc_t1t", N)) == [0, 1, 2, 3, 4, 5, 6, 7, 8]
    assert list(sto_n("ds_tt", N)) == [1, 2, 3, 4, 5, 6, 7]
    assert list(sto_n("ds_et", N)) == [2, 4, 6]
    assert list(sto_k("ds_et", N)) == [1, 2, 3]
    assert list(sto_n("ds_te", N)) == [1, 2, 3]
    assert list(sto_k("ds_te", N)) == [2, 4, 6]
    assert list(sto_n("ds_to", N)) == [1, 2, 3, 4]
    assert list(sto_k("ds_to", N)) == [1, 3, 5, 7]
    assert list(sto_n("ds_ot", N)) == [1, 3, 5, 7]
    assert list(sto_k("ds_ot", N)) == [1, 2, 3, 4]
    assert list(sto_k("ds_oe", N)) == [2, 4]
    assert list(sto_n("ds_t1o", N)) == [1, 2, 3]
    assert list(sto_k("ds_t1o", N)) == [1, 3, 5, 7]
    assert list(sto_n("ds_e1o", N)) == [4]
    assert list(sto_k("ds_e1o", N)) == [1]


def test_storage_sizes_examples():
    assert storage_sizes("dc_tt", 8) == storage_sizes("dc_tt", 8)
    assert (ln("dc_tt", 8), lk("dc_tt", 8)) == (5, 5)
    assert (ln("cx_tt", 8), lk("cx_tt", 8)) == (16, 16)
    assert (ln("re_tt", 8), lk("re_tt", 8)) == (8, 8)
    assert (ln("ds_tt", 8), lk("ds_tt", 8)) == (3, 3)
    assert (ln("dc_t1e", 16), lk("dc_t1e", 16)) == (4, 5)
    assert (ln("ds_e1o", 16), lk("ds_e1o", 16)) == (1, 1)


@pytest.mark.parametrize("sig_type", ["dc_t1e", "dc_t1t", "ds_t1o"])
def test_converted_types_store_one_extra_harmonic(sig_type):
    for N in valid_sizes(sig_type, 256):
        assert lk(sig_type, N) == ln(sig_type, N) + 1


@pytest.mark.parametrize("sig_type", SIGNAL_TYPES)
def test_slot_maps_match_documented_positions(sig_type):
    for N in valid_sizes(sig_type, 128):
        seen = set()
        for n in sto_n(sig_type, N):
            slot = buffer_slot_time(sig_type, N, n)
            assert slot + 1 == TIME_POS[sig_type](n, N)
            seen.add(slot)
        # bijection onto 0..count-1
        assert seen == set(range(len(sto_n(sig_type, N))))
        seen = set()
        for k in sto_k(sig_type, N):
            slot = buffer_slot_freq(sig_type, N, k)
            assert slot + 1 == FREQ_POS[sig_type](k, N)
            seen.add(slot)
        assert seen == set(range(len(sto_k(sig_type, N))))


def test_validation_errors():
    with pytest.raises(ValueError):
        sto_n("dc_xx", 8)
    with pytest.raises(ValueError):
        sto_n("dc_tt", 12)
    with pytest.raises(ValueError):
        sto_n("dc_oo", 4)
    with pytest.raises(ValueError):
        buffer_slot_time("dc_ot", 8, 2)  # even index not stored
    with pytest.raises(ValueError):
        buffer_slot_freq("ds_tt", 8, 0)  # sine transform has no k=0
    # every type works at its declared minimum
    for sig_type in SIGNAL_TYPES:
        assert len(sto_n(sig_type, MIN_N[sig_type])) >= 1


def test_signal_view_roundtrip():
    view = SignalView("dc_ot", 16)
    view.set_time(5, 2.5)
    assert view.time_value(5) == 2.5
    assert view.buffer[2] == 2.5
    vals = [1.0, 2.0, 3.0, 4.0]
    view = SignalView("ds_to", 16, vals)
    assert view.time_value(4) == 4.0
    cview = SignalView("cx_tt", 4, [1 + 2j, 0, 0, 1j])
    assert cview.time_value(3) == 1j
    assert cview.buffer.dtype == np.complex128
    with pytest.raises(ValueError):
        SignalView("dc_tt", 8, [1.0, 2.0])
