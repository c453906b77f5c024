"""Cost model: closed forms against the recursion."""

import io

import pytest

from quickfourier import ALGORITHMS, costmodel


@pytest.mark.parametrize("algorithm", ["classical", "improved"])
def test_predictions_match_measurements_cdft(algorithm):
    for p in range(1, 17):
        N = 1 << p
        pred = costmodel.predicted_cost(algorithm, "cdft", N)
        meas = costmodel.measured_cost(algorithm, "cdft", N)
        assert pred == meas, f"{algorithm} cdft N={N}: {pred} != {meas}"


@pytest.mark.parametrize("transform", ["rdft", "dct0", "dst0"])
def test_predictions_match_measurements_components(transform):
    for algorithm in ALGORITHMS:
        N = 2 if transform != "dst0" else 4
        while N <= 65536:
            pred = costmodel.predicted_cost(algorithm, transform, N)
            meas = costmodel.measured_cost(algorithm, transform, N)
            assert pred == meas, f"{algorithm} {transform} N={N}: {pred} != {meas}"
            N *= 2


def test_classical_small_size_anchors():
    # the classical closed forms only hold from eight points; below that
    # the recursion's own counts are pinned
    assert costmodel.predicted_cost("classical", "cdft", 2) == (4, 0)
    assert costmodel.predicted_cost("classical", "cdft", 4) == (16, 0)
    assert costmodel.predicted_cost("improved", "cdft", 2) == (4, 0)
    assert [costmodel.predicted_cost("classical", "rdft", N) for N in (2, 4)] == [(2, 0), (6, 0)]
    assert [costmodel.predicted_cost("classical", "dct0", N) for N in (2, 4)] == [(2, 0), (4, 0)]


def test_validation():
    with pytest.raises(ValueError):
        costmodel.predicted_cost("classical", "dst0", 2)
    with pytest.raises(ValueError):
        costmodel.predicted_cost("improved", "cdft", 12)
    with pytest.raises(ValueError):
        costmodel.predicted_cost("improved", "dst0", 2)
    with pytest.raises(ValueError):
        costmodel.predicted_cost("fast", "cdft", 16)
    with pytest.raises(ValueError):
        costmodel.measured_cost("improved", "dft", 16)


def test_cost_rows_and_csv():
    rows = costmodel.cost_rows("improved", "cdft", sizes=[16, 64])
    assert [r.N for r in rows] == [16, 64]
    assert all(r.consistent for r in rows)
    assert rows[0].flops_pred == 168
    assert rows[1].flops_meas == 1160

    buf = io.StringIO()
    costmodel.write_cost_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == ("algorithm,transform,N,adds_pred,adds_meas,"
                        "muls_pred,muls_meas,flops_pred,flops_meas")
    assert lines[1] == "improved,cdft,16,148,148,20,20,168,168"
    assert lines[2] == "improved,cdft,64,964,964,196,196,1160,1160"


def test_default_size_sweep():
    rows = costmodel.cost_rows("classical")
    assert [r.N for r in rows] == [1 << p for p in range(2, 12)]
    assert all(r.consistent for r in rows)


def test_improved_cdft_takes_the_split_radix_count():
    # the paper's headline: the improved QFT needs the adds and muls of
    # split-radix 3add/3mul, stated independently of both recursions
    assert costmodel.split_radix_cost(16) == (148, 20)
    for p in range(1, 17):
        N = 1 << p
        assert costmodel.measured_cost("improved", "cdft", N) == costmodel.split_radix_cost(N)
        if N >= 16:
            assert costmodel.measured_cost("classical", "cdft", N) > costmodel.split_radix_cost(N)
    with pytest.raises(ValueError):
        costmodel.split_radix_cost(12)
