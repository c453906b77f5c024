"""End-to-end acceptance battery.

Each test covers one acceptance criterion and prints a single pass/fail
line; the stated tolerances and time budgets are asserted, not relaxed.
"""

import time

import numpy as np

from quickfourier import accuracy, classical, costmodel, improved, reference, tree
from quickfourier.counting import OpCounter, TrigTable
from quickfourier.taxonomy import (
    MIN_N,
    SIGNAL_TYPES,
    buffer_slot_freq,
    buffer_slot_time,
    sto_k,
    sto_n,
    storage_sizes,
    transform_kind,
)


def _report(num, description, ok):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {description}")


def _sizes(lo, hi):
    N = lo
    while N <= hi:
        yield N
        N *= 2


def test_criterion_1_improved_complex_counts():
    ok = False
    try:
        t0 = time.perf_counter()
        pinned = {16: (148, 20, 168), 64: (964, 196, 1160),
                  1024: (27652, 7172, 34824)}
        for N in _sizes(4, 2048):
            adds, muls = costmodel.measured_cost("improved", "cdft", N)
            assert (adds, muls) == costmodel.predicted_cost("improved", "cdft", N)
            lg = N.bit_length() - 1
            assert adds == 3 * N * lg - 3 * N + 4
            assert muls == N * lg - 3 * N + 4
            if N in pinned:
                assert (adds, muls, adds + muls) == pinned[N]
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"count sweep took {elapsed:.1f}s"
        ok = True
    finally:
        _report(1, "improved complex-transform counts match the closed form "
                   "for N in 4..2048", ok)


def test_criterion_2_classical_complex_counts():
    ok = False
    try:
        pinned = {16: (160, 22, 182), 2048: (70656, 16898, 87554)}
        for N in _sizes(4, 2048):
            adds, muls = costmodel.measured_cost("classical", "cdft", N)
            assert (adds, muls) == costmodel.predicted_cost("classical", "cdft", N)
            if N >= 8:
                lg = N.bit_length() - 1
                assert adds == 7 * N * lg // 2 - 4 * N
                assert muls == N * lg - 11 * N // 4 + 2
            if N in pinned:
                assert (adds, muls, adds + muls) == pinned[N]
        # at four points the closed form extrapolates below zero
        # multiplies; the recursion's own count anchors the model
        assert costmodel.predicted_cost("classical", "cdft", 4) == (16, 0)
        assert costmodel.measured_cost("classical", "cdft", 4) == (16, 0)
        ok = True
    finally:
        _report(2, "classical complex-transform counts match the closed form "
                   "for N in 4..2048 with the four-point anchor", ok)


def test_criterion_3_improved_component_counts():
    ok = False
    try:
        for N in _sizes(4, 1024):
            for transform in ("rdft", "dct0", "dst0"):
                meas = costmodel.measured_cost("improved", transform, N)
                pred = costmodel.predicted_cost("improved", transform, N)
                assert meas == pred, f"{transform} N={N}: {meas} != {pred}"
        assert costmodel.measured_cost("improved", "dct0", 16) == (27, 5)
        ok = True
    finally:
        _report(3, "improved real/cosine/sine counts match the closed forms "
                   "for N in 4..1024", ok)


def test_criterion_4_matches_brute_force():
    ok = False
    try:
        t0 = time.perf_counter()
        trials, seed = 20, 99
        for N in _sizes(4, 4096):
            zc = accuracy.random_complex_batch(N, seed, trials, np.complex128)
            want = reference.cdft_naive(zc)
            for module in (classical, improved):
                errs = accuracy.relative_rms_error(module.cdft(zc), want)
                assert np.max(errs) <= 1e-11

            xr = accuracy.random_real_batch(N, seed + 1, trials)
            want = reference.rdft_naive(xr)
            for module in (classical, improved):
                errs = accuracy.relative_rms_error(module.rdft(xr), want)
                assert np.max(errs) <= 1e-11

            xc = accuracy.random_real_batch(N // 2 + 1, seed + 2, trials)
            want = reference.dct0_naive(xc)
            for module in (classical, improved):
                errs = accuracy.relative_rms_error(module.dct0(xc), want)
                assert np.max(errs) <= 1e-11

            xs = accuracy.random_real_batch(N // 2 - 1, seed + 3, trials)
            want = reference.dst0_naive(xs)
            for module in (classical, improved):
                errs = accuracy.relative_rms_error(module.dst0(xs), want)
                assert np.max(errs) <= 1e-11
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s"
        ok = True
    finally:
        _report(4, "both algorithms match the brute-force spectra within "
                   "1e-11 relative RMS for N in 4..4096", ok)


def test_criterion_5_constant_footprint():
    ok = False
    try:
        for N in _sizes(8, 4096):
            z = accuracy.random_signal(N, 5, 0, np.complex128)
            for algorithm, module, want in (
                    ("classical", classical, N // 4 - 1),
                    ("improved", improved, N // 4)):
                table = TrigTable(np.float64)
                module.cdft(z, table=table, counter=OpCounter())
                assert table.touched_count() == want, (
                    f"{algorithm} N={N}: {table.touched_count()} != {want}")
        ok = True
    finally:
        _report(5, "distinct trigonometric constants are N/4-1 classical and "
                   "N/4 improved for N in 8..4096", ok)


def test_criterion_6_storage_accounting():
    ok = False
    try:
        for N in _sizes(4, 1024):
            for transform in ("cdft", "rdft", "dct0", "dst0"):
                if transform == "dst0" and N < 4:
                    continue
                imp = tree.build_tree("improved", transform, N)
                assert tree.conservation_violations(imp, allow_t1_growth=False) == []
                cla = tree.build_tree("classical", transform, N)
                assert tree.conservation_violations(cla, allow_t1_growth=True) == []
                growth = [c for c in tree.storage_checks(cla)
                          if c.delta != (0, 0)]
                assert all(c.sig_type == "dc_to" and c.delta == (1, 1)
                           for c in growth)
                if transform in ("cdft", "rdft", "dct0") and N >= 16:
                    assert growth, f"expected t1 growth in classical {transform} N={N}"
        ok = True
    finally:
        _report(6, "improved trees conserve stored cells everywhere; classical "
                   "odd-cosine steps grow by exactly (1,1)", ok)


def test_criterion_7_float32_accuracy():
    ok = False
    try:
        t0 = time.perf_counter()
        rows = accuracy.accuracy_experiment(sizes=(256, 1024, 4096), trials=200)
        by = {(r.algorithm, r.N): r.mean_rel_rms_error for r in rows}
        for N in (256, 1024, 4096):
            assert by[("improved", N)] <= 1.02 * by[("classical", N)]
        for algorithm in ("classical", "improved"):
            errs = [by[(algorithm, N)] for N in (256, 1024, 4096)]
            assert errs[0] < errs[1] < errs[2]
        two, one = accuracy.pipeline_comparison("improved", 4096, trials=50)
        assert one.mean_rel_rms_error > two.mean_rel_rms_error
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"accuracy experiment took {elapsed:.1f}s"
        ok = True
    finally:
        _report(7, "float32 error: improved within 2% of classical, growing "
                   "with N, and degraded by single-tier constants", ok)


def test_criterion_8_taxonomy():
    ok = False
    try:
        assert len(SIGNAL_TYPES) == 20
        t1_types = {"dc_t1e", "dc_t1t", "ds_t1o"}
        for sig in SIGNAL_TYPES:
            for N in _sizes(MIN_N[sig], 4096):
                sizes = storage_sizes(sig, N)
                ns, ks = sto_n(sig, N), sto_k(sig, N)
                # stored-cell closed forms against the index sets
                if sig == "cx_tt":
                    assert sizes.ln == 2 * len(ns) and sizes.lk == 2 * len(ks)
                elif sig == "re_tt":
                    assert sizes.ln == len(ns) and sizes.lk == 2 * len(ks) - 2
                else:
                    assert sizes.ln == len(ns) and sizes.lk == len(ks)
                # slot maps are monotone bijections onto the buffer positions
                slots_n = [buffer_slot_time(sig, N, n) for n in ns]
                assert slots_n == list(range(len(ns)))
                slots_k = [buffer_slot_freq(sig, N, k) for k in ks]
                assert slots_k == list(range(len(ks)))
                # the t1 family stores one more harmonic than time cell
                if sig in t1_types:
                    assert sizes.lk == sizes.ln + 1
                assert transform_kind(sig) in ("cdft", "rdft", "dct0", "dst0")
        ok = True
    finally:
        _report(8, "taxonomy: twenty signal types with exact storage sizes "
                   "and monotone slot maps up to N=4096", ok)
