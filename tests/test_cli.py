"""Command-line front end: subcommands, formats, exit codes."""

import numpy as np
import pytest

from quickfourier import reference
from quickfourier.cli import main


def test_transform_inline_dct(capsys):
    assert main(["transform", "--transform", "dct0",
                 "--inline", "[1,0,0,0,0,0,0,0,1]", "--counts"]) == 0
    captured = capsys.readouterr()
    values = [float(v) for v in captured.out.split()]
    assert values == [2, 0, 2, 0, 2, 0, 2, 0, 2]
    assert "adds=27 muls=5 flops=32" in captured.err


def test_transform_impulse_cdft(capsys):
    assert main(["transform", "--transform", "cdft", "--impulse", "--n", "8"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8
    for line in lines:
        re, im = line.split(",")
        assert float(re) == 1.0 and float(im) == 0.0


def test_transform_random_matches_oracle(capsys):
    assert main(["transform", "--algorithm", "classical", "--transform", "rdft",
                 "--random", "42", "--n", "16"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    got = np.array([complex(float(l.split(",")[0]), float(l.split(",")[1]))
                    for l in lines])
    from quickfourier.accuracy import random_real_batch
    x = random_real_batch(16, 42, 1)[:, 0]
    want = reference.rdft_naive(x)
    assert np.max(np.abs(got - want)) < 1e-12


def test_transform_file_input(tmp_path, capsys):
    path = tmp_path / "signal.txt"
    path.write_text("# a comment\n1.0\n2.0\n3.0\n4.0\n")
    assert main(["transform", "--transform", "rdft", "--input", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    want = reference.rdft_naive(np.array([1.0, 2.0, 3.0, 4.0]))
    got = np.array([complex(float(l.split(",")[0]), float(l.split(",")[1]))
                    for l in lines])
    assert np.max(np.abs(got - want)) < 1e-14


def test_transform_file_complex(tmp_path, capsys):
    path = tmp_path / "signal.txt"
    path.write_text("1.0,0.0\n0.0,1.0\n-1.0,0.0\n0.0,-1.0\n")
    assert main(["transform", "--transform", "cdft", "--input", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    got = np.array([complex(float(l.split(",")[0]), float(l.split(",")[1]))
                    for l in lines])
    # exp(2 pi i n/4) concentrates on the single harmonic k = 1 under
    # the negative-exponent convention
    assert np.max(np.abs(got - np.array([0, 4, 0, 0]))) < 1e-15


def test_transform_output_precision(tmp_path):
    out = tmp_path / "spectrum.txt"
    assert main(["transform", "--transform", "dct0",
                 "--inline", "[0.1,0.2,0.3]", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    # %.17g keeps the full float64 value
    assert float(lines[0]) == 0.1 + 0.2 + 0.3


def test_cost_table_csv(capsys):
    assert main(["cost-table", "--algorithm", "classical", "--sizes", "16,2048"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ("algorithm,transform,N,adds_pred,adds_meas,"
                       "muls_pred,muls_meas,flops_pred,flops_meas")
    assert lines[1] == "classical,cdft,16,160,160,22,22,182,182"
    assert lines[2] == "classical,cdft,2048,70656,70656,16898,16898,87554,87554"


def test_accuracy_csv(capsys):
    assert main(["accuracy", "--sizes", "256", "--trials", "10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "algorithm,N,trials,mean_rel_rms_error"
    assert lines[1].startswith("classical,256,10,")
    assert lines[2].startswith("improved,256,10,")


def test_tree_dump(capsys):
    assert main(["tree", "--algorithm", "classical", "--transform", "dct0",
                 "--n", "16"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("classical dct0 N=16")
    assert "dc_t1e N=16" in out


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("selftest passed")
    assert out.count("ok ") == 8


@pytest.mark.parametrize("argv", [
    ["transform", "--transform", "cdft", "--inline", "[1,2,3]"],  # not a power of two
    ["transform", "--transform", "rdft", "--inline", "[1,2j,3,4]"],  # complex input
    ["transform", "--impulse"],  # missing --n
    ["transform", "--transform", "cdft", "--input", "/nonexistent/file"],
    ["transform", "--transform", "cdft", "--inline", "not a list"],
    ["cost-table", "--algorithm", "classical", "--transform", "dst0", "--sizes", "2"],
    ["tree", "--algorithm", "improved", "--n", "12"],
    # complex samples for a real transform, even with zero imaginary parts
    ["transform", "--transform", "rdft", "--inline", "[1,0j,3,4]"],
    ["transform", "--transform", "cdft", "--inline", "[1, None, 2, 3]"],  # not numeric
    ["transform", "--transform", "cdft", "--inline", "[[1,2],[3,4]]"],  # not one signal
    ["accuracy", "--sizes", "16", "--trials", "0"],
    # --n must agree with the periodization of the samples given
    ["transform", "--transform", "dct0", "--inline", "[1,2,3]", "--n", "64"],
])
def test_validation_exits_one(argv, capsys):
    assert main(argv) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv,option", [
    # a closed-form check of no size would pass having checked nothing
    (["cost-table", "--algorithm", "classical", "--sizes", ""], "--sizes"),
    (["cost-table", "--algorithm", "improved", "--sizes", ","], "--sizes"),
    # and an accuracy run of no size must not run the default sizes instead
    (["accuracy", "--sizes", ","], "--sizes"),
    (["accuracy", "--sizes", "16", "--trials", "-1"], "--trials"),
    (["accuracy", "--sizes", "16", "--trials", "0"], "--trials"),
])
def test_empty_sizes_and_no_trials_exit_one(argv, option, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert option in captured.err


def test_argparse_errors_exit_one():
    with pytest.raises(SystemExit) as info:
        main(["bogus-subcommand"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["transform", "--algorithm", "fastest", "--inline", "[1,2]"])
    assert info.value.code == 1


def test_unparseable_inline_samples_give_one_message(capsys):
    # the parser's own message names an AST node by its memory address
    argv = ["transform", "--inline", "[2**64,0,0,0]"]
    errors = []
    for _ in range(2):
        assert main(argv) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "0x" not in errors[0]
    assert "[2**64,0,0,0]" in errors[0]


def test_n_that_disagrees_names_both_values(capsys):
    assert main(["transform", "--transform", "dct0", "--inline", "[1,2,3]", "--n", "64"]) == 1
    err = capsys.readouterr().err
    assert "64" in err and "N = 4" in err
    assert main(["transform", "--transform", "dct0", "--inline", "[1,2,3]", "--n", "4"]) == 0


def test_cost_table_covers_every_pair(capsys):
    assert main(["cost-table", "--algorithm", "classical", "--transform", "dst0",
                 "--sizes", "4,64"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1:] == ["classical,dst0,4,0,0,0,0,0,0", "classical,dst0,64,196,196,49,49,245,245"]
