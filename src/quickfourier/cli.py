"""Command-line front end.

Subcommands: transform (run one transform on a signal), cost-table
(predicted versus measured operation counts as CSV), accuracy (float32
rounding-error experiment as CSV), tree (decomposition dump), selftest
(compact end-to-end battery).

Each subcommand imports the research modules it runs, so `qft transform`
loads none of accuracy, costmodel, reference or tree.

Exit codes: 0 on success, 1 on any validation problem (bad arguments,
malformed input, unsupported sizes), 2 if an internal consistency check
fails.
"""

import argparse
import ast
import contextlib
import sys
import threading

import numpy as np

from . import ALGORITHMS, TRANSFORMS, transform_fn
from .counting import OpCounter, TrigTable
from .taxonomy import periodization, stored_length


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


def _parse_inline(text):
    try:
        values = ast.literal_eval(text)
    except (SyntaxError, ValueError, TypeError, RecursionError):
        # the parser's own message may hold a node's memory address
        raise ValueError(f"could not parse inline samples {text!r}: expected a "
                         f"list of number literals, e.g. [1, 2.5, 3j]") from None
    # the spectrum is printed as one signal, so one flat list of them
    x = np.asarray(values)
    if x.ndim != 1:
        raise ValueError("inline samples must be a flat [..] list")
    return x


def _gather_input(args):
    if args.input is not None or args.inline is not None:
        if args.input is not None:
            x = np.asarray(_read_samples_file(args.input))
        else:
            x = _parse_inline(args.inline)
        N = periodization(args.transform, len(x))
        if args.n not in (None, N):
            raise ValueError(f"--n {args.n} does not match the N = {N} of the "
                             f"{len(x)} samples given")
        return x
    if args.n is None:
        raise ValueError("--impulse and --random need --n")
    length = stored_length(args.transform, args.n)
    if args.impulse:
        x = np.zeros(length)  # real samples: cdft takes them as well
        x[0] = 1.0
        return x
    from . import accuracy

    if args.transform == "cdft":
        return accuracy.random_signal(args.n, args.random, 0, np.complex128)
    return accuracy.random_real_batch(length, args.random, 1)[:, 0]


def _run_transform(args):
    x = _gather_input(args)
    fn = transform_fn(args.algorithm, args.transform)
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
    """The comma-separated sizes of --sizes, or None when it is not given."""
    sizes = None if text is None else [int(tok) for tok in text.split(",") if tok]
    if sizes == []:
        raise ValueError(f"--sizes {text!r} lists no size")
    return sizes


def _run_cost_table(args):
    from . import costmodel

    rows = costmodel.cost_rows(args.algorithm, args.transform, _parse_sizes(args.sizes))
    mismatches = [r for r in rows if not r.consistent]
    with _output(args.output) as out:
        costmodel.write_cost_csv(rows, out)
    if mismatches:
        raise AssertionError(
            f"{len(mismatches)} rows disagree with the closed form")
    return 0


def _run_accuracy(args):
    from . import accuracy

    if args.trials is not None and args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    rows = accuracy.accuracy_experiment(
        sizes=tuple(_parse_sizes(args.sizes) or accuracy.DEFAULT_SIZES),
        trials=accuracy.DEFAULT_TRIALS if args.trials is None else args.trials,
        seed=accuracy.DEFAULT_SEED if args.seed is None else args.seed,
        pipeline=args.pipeline)
    with _output(args.output) as out:
        accuracy.write_accuracy_csv(rows, out)
    return 0


def _run_tree(args):
    from . import tree

    root = tree.build_tree(args.algorithm, args.transform, args.n)
    text = tree.render_tree(root, args.algorithm, args.transform)
    with _output(args.output) as out:
        out.write(text + "\n")
    allow = tree.allows_t1_growth(args.algorithm)
    bad = tree.conservation_violations(root, allow_t1_growth=allow)
    if bad:
        raise AssertionError(f"storage audit failed at {bad[0].node_label}")
    return 0


def _three_calls(fn, z, runs):
    """Append (spectrum bytes, adds, muls, sorted constants touched) of
    three calls of fn on z to runs."""
    for _ in range(3):
        table, counter = TrigTable(np.float64), OpCounter()
        out = fn(z, table=table, counter=counter)
        runs.append((out.tobytes(), counter.adds, counter.muls, sorted(table.touched)))


def _run_selftest(args):
    from . import accuracy, costmodel, reference, tree

    rng = np.random.default_rng(0)

    for algorithm in ALGORITHMS:
        for N in (16, 256):
            if (costmodel.measured_cost(algorithm, "cdft", N)
                    != costmodel.predicted_cost(algorithm, "cdft", N)):
                raise AssertionError(f"{algorithm} cdft count drifted at N={N}")
        print(f"ok {algorithm} operation counts")

    for algorithm in ALGORITHMS:
        z = rng.uniform(-0.5, 0.5, 256) + 1j * rng.uniform(-0.5, 0.5, 256)
        got = transform_fn(algorithm, "cdft")(z)
        want = reference.cdft_naive(z)
        err = float(accuracy.relative_rms_error(got, want))
        if err > 1e-11:
            raise AssertionError(f"{algorithm} cdft error {err:.3g} at N=256")
        print(f"ok {algorithm} matches the brute-force spectrum ({err:.3g})")

    for algorithm, want in (("classical", 63), ("improved", 64)):
        table = TrigTable(np.float64)
        z = rng.uniform(-0.5, 0.5, 256) + 1j * rng.uniform(-0.5, 0.5, 256)
        transform_fn(algorithm, "cdft")(z, table=table, counter=OpCounter())
        if table.touched_count() != want:
            raise AssertionError(
                f"{algorithm} touched {table.touched_count()} constants, not {want}")
        print(f"ok {algorithm} constant footprint ({want})")

    for algorithm in ALGORITHMS:
        z = rng.uniform(-0.5, 0.5, 256) + 1j * rng.uniform(-0.5, 0.5, 256)
        # in a fresh thread call 1 runs plain, call 2 records and call 3 replays
        runs = []
        worker = threading.Thread(target=_three_calls,
                                  args=(transform_fn(algorithm, "cdft"), z, runs))
        worker.start()
        worker.join()
        if len(runs) != 3 or runs[2] != runs[0]:
            raise AssertionError(f"{algorithm} cdft replay differs from its plain run")
        print(f"ok {algorithm} replay matches the plain run")

    for algorithm in ALGORITHMS:
        root = tree.build_tree(algorithm, "cdft", 256)
        bad = tree.conservation_violations(root, tree.allows_t1_growth(algorithm))
        if bad:
            raise AssertionError(f"{algorithm} storage audit failed")
        print(f"ok {algorithm} storage audit")

    print("selftest passed")
    return 0


def build_parser():
    parser = _Parser(prog="qft", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("transform", help="run one transform on a signal")
    p.add_argument("--algorithm", choices=ALGORITHMS, default="improved")
    p.add_argument("--transform", choices=TRANSFORMS, default="cdft")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="file with one sample per line: re or re,im")
    src.add_argument("--inline", help="samples as a literal list, e.g. [1,2,0.5]")
    src.add_argument("--impulse", action="store_true",
                     help="first stored sample one, the rest zero (needs --n)")
    src.add_argument("--random", type=int, metavar="SEED",
                     help="uniform(-0.5,0.5) samples from SEED (needs --n)")
    p.add_argument("--n", type=int, help="periodization: needed by --impulse/--random, "
                   "checked against the length of --input/--inline samples")
    p.add_argument("--counts", action="store_true",
                   help="report adds/muls/flops on stderr")
    p.add_argument("--output", help="write the spectrum here instead of stdout")
    p.set_defaults(func=_run_transform)

    p = sub.add_parser("cost-table", help="predicted vs measured operation counts (CSV)")
    p.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    p.add_argument("--transform", choices=TRANSFORMS, default="cdft")
    p.add_argument("--sizes", help="comma-separated periodizations")
    p.add_argument("--output")
    p.set_defaults(func=_run_cost_table)

    p = sub.add_parser("accuracy", help="float32 rounding-error experiment (CSV)")
    p.add_argument("--sizes", help="comma-separated periodizations")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--pipeline", choices=("two_tier", "single_tier"),
                   default="two_tier")
    p.add_argument("--output")
    p.set_defaults(func=_run_accuracy)

    p = sub.add_parser("tree", help="decomposition tree dump")
    p.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    p.add_argument("--transform", choices=TRANSFORMS, default="cdft")
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
