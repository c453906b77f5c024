"""Command-line front end.

Subcommands: transform (run one transform on a signal), cost-table
(predicted versus measured operation counts as CSV), accuracy (float32
rounding-error experiment as CSV), tree (decomposition dump), selftest
(compact end-to-end battery).

Exit codes: 0 on success, 1 on any validation problem (bad arguments,
malformed input, unsupported sizes), 2 if an internal consistency check
fails.
"""

import argparse
import ast
import contextlib
import sys

import numpy as np

from . import accuracy, costmodel, reference, tree
from .counting import OpCounter, build_trig_table
from .taxonomy import storage_sizes


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; bad arguments are a validation
    # problem, which this tool reports as 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@contextlib.contextmanager
def _output(path):
    """Standard output when path is None, else the file at path, closed on exit."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _stored_length(transform, N):
    kind = {"cdft": "cx_tt", "rdft": "re_tt", "dct0": "dc_tt", "dst0": "ds_tt"}
    sizes = storage_sizes(kind[transform], N)
    if transform == "cdft":
        return N  # complex samples
    if transform == "rdft":
        return N
    return sizes.ln


def _parse_number(token):
    value = ast.literal_eval(token)
    if not isinstance(value, (int, float, complex)):
        raise ValueError(f"not a number: {token!r}")
    return value


def _read_samples_file(path):
    values = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) == 1:
                values.append(float(parts[0]))
            elif len(parts) == 2:
                values.append(complex(float(parts[0]), float(parts[1])))
            else:
                raise ValueError(f"expected 're' or 're,im' per line, got {line!r}")
    if not values:
        raise ValueError(f"no samples in {path}")
    return values


def _coerce_input(transform, values):
    arr = np.asarray(values)
    if transform == "cdft":
        return arr.astype(np.complex128)
    if np.iscomplexobj(arr):
        if np.any(arr.imag != 0):
            raise ValueError(f"{transform} takes real samples")
        arr = arr.real
    return arr.astype(np.float64)


def _gather_input(args):
    if args.input is not None:
        return _coerce_input(args.transform, _read_samples_file(args.input))
    if args.inline is not None:
        try:
            values = ast.literal_eval(args.inline)
        except (SyntaxError, ValueError) as exc:
            raise ValueError(f"could not parse inline samples: {exc}") from None
        if not isinstance(values, (list, tuple)):
            raise ValueError("inline samples must be a [..] list")
        return _coerce_input(args.transform, list(values))
    if args.n is None:
        raise ValueError("--impulse and --random need --n")
    length = _stored_length(args.transform, args.n)
    if args.impulse:
        if args.transform == "cdft":
            x = np.zeros(length, dtype=np.complex128)
        else:
            x = np.zeros(length, dtype=np.float64)
        x[0] = 1.0
        return x
    if args.transform == "cdft":
        return accuracy.random_signal(args.n, args.random, 0, np.complex128)
    return accuracy.random_real_batch(length, args.random, 1)[:, 0]


def _run_transform(args):
    x = _gather_input(args)
    fn = costmodel.transform_fn(args.algorithm, args.transform)
    counter = OpCounter()
    spectrum = fn(x, counter=counter)
    with _output(args.output) as out:
        if np.iscomplexobj(spectrum):
            for v in spectrum:
                out.write(f"{v.real:.17g},{v.imag:.17g}\n")
        else:
            for v in spectrum:
                out.write(f"{v:.17g}\n")
    if args.counts:
        print(f"adds={counter.adds} muls={counter.muls} flops={counter.flops}",
              file=sys.stderr)
    return 0


def _parse_sizes(text):
    if text is None:
        return None
    return [int(tok) for tok in text.split(",") if tok]


def _run_cost_table(args):
    rows = costmodel.cost_table(args.algorithm, args.transform,
                                _parse_sizes(args.sizes))
    mismatches = [r for r in rows if not r.consistent]
    with _output(args.output) as out:
        costmodel.write_cost_csv(rows, out)
    if mismatches:
        raise AssertionError(
            f"{len(mismatches)} rows disagree with the closed form")
    return 0


def _run_accuracy(args):
    rows = accuracy.accuracy_experiment(
        sizes=tuple(_parse_sizes(args.sizes) or accuracy.DEFAULT_SIZES),
        trials=args.trials, seed=args.seed, pipeline=args.pipeline)
    with _output(args.output) as out:
        accuracy.write_accuracy_csv(rows, out)
    return 0


def _run_tree(args):
    root = tree.build_tree(args.algorithm, args.transform, args.n)
    text = tree.render_tree(root, args.algorithm, args.transform)
    with _output(args.output) as out:
        out.write(text + "\n")
    allow = args.algorithm == "classical"
    bad = tree.conservation_violations(root, allow_t1_growth=allow)
    if bad:
        raise AssertionError(f"storage audit failed at {bad[0].node_label}")
    return 0


def _run_selftest(args):
    rng = np.random.default_rng(0)

    for algorithm, table_counts in (("classical", costmodel.CLASSICAL_CDFT_COUNTS),
                                    ("improved", costmodel.IMPROVED_CDFT_COUNTS)):
        for N in (16, 256):
            if costmodel.measured_cost(algorithm, "cdft", N) != table_counts[N]:
                raise AssertionError(f"{algorithm} cdft count drifted at N={N}")
        print(f"ok {algorithm} operation counts")

    for algorithm in costmodel.ALGORITHMS:
        z = rng.uniform(-0.5, 0.5, 256) + 1j * rng.uniform(-0.5, 0.5, 256)
        got = costmodel.transform_fn(algorithm, "cdft")(z)
        want = reference.cdft_naive(z)
        err = float(accuracy.relative_rms_error(got, want))
        if err > 1e-11:
            raise AssertionError(f"{algorithm} cdft error {err:.3g} at N=256")
        print(f"ok {algorithm} matches the brute-force spectrum ({err:.3g})")

    for algorithm, want in (("classical", 63), ("improved", 64)):
        table = build_trig_table(algorithm, 256, np.float64)
        z = rng.uniform(-0.5, 0.5, 256) + 1j * rng.uniform(-0.5, 0.5, 256)
        costmodel.transform_fn(algorithm, "cdft")(z, table=table, counter=OpCounter())
        if table.touched_count() != want:
            raise AssertionError(
                f"{algorithm} touched {table.touched_count()} constants, not {want}")
        print(f"ok {algorithm} constant footprint ({want})")

    for algorithm in ("classical", "improved"):
        root = tree.build_tree(algorithm, "cdft", 256)
        bad = tree.conservation_violations(root, algorithm == "classical")
        if bad:
            raise AssertionError(f"{algorithm} storage audit failed")
        print(f"ok {algorithm} storage audit")

    print("selftest passed")
    return 0


def build_parser():
    parser = _Parser(prog="qft", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("transform", help="run one transform on a signal")
    p.add_argument("--algorithm", choices=("classical", "improved"),
                   default="improved")
    p.add_argument("--transform", choices=costmodel.TRANSFORMS, default="cdft")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="file with one sample per line: re or re,im")
    src.add_argument("--inline", help="samples as a literal list, e.g. [1,2,0.5]")
    src.add_argument("--impulse", action="store_true",
                     help="first stored sample one, the rest zero (needs --n)")
    src.add_argument("--random", type=int, metavar="SEED",
                     help="uniform(-0.5,0.5) samples from SEED (needs --n)")
    p.add_argument("--n", type=int, help="periodization for --impulse/--random")
    p.add_argument("--counts", action="store_true",
                   help="report adds/muls/flops on stderr")
    p.add_argument("--output", help="write the spectrum here instead of stdout")
    p.set_defaults(func=_run_transform)

    p = sub.add_parser("cost-table", help="predicted vs measured operation counts (CSV)")
    p.add_argument("--algorithm", choices=("classical", "improved"),
                   required=True)
    p.add_argument("--transform", choices=costmodel.TRANSFORMS, default="cdft")
    p.add_argument("--sizes", help="comma-separated periodizations")
    p.add_argument("--output")
    p.set_defaults(func=_run_cost_table)

    p = sub.add_parser("accuracy", help="float32 rounding-error experiment (CSV)")
    p.add_argument("--sizes", help="comma-separated periodizations")
    p.add_argument("--trials", type=int, default=accuracy.DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=accuracy.DEFAULT_SEED)
    p.add_argument("--pipeline", choices=("two_tier", "single_tier"),
                   default="two_tier")
    p.add_argument("--output")
    p.set_defaults(func=_run_accuracy)

    p = sub.add_parser("tree", help="decomposition tree dump")
    p.add_argument("--algorithm", choices=("classical", "improved"),
                   required=True)
    p.add_argument("--transform", choices=costmodel.TRANSFORMS, default="cdft")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(func=_run_tree)

    p = sub.add_parser("selftest", help="compact end-to-end battery")
    p.set_defaults(func=_run_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
