"""Command-line harness.

Subcommands: generate, fit, eval, sweep, transfer, baseline-rb,
baseline-taylor, theory, timing. The output root defaults to the
OPSURROGATE_OUT environment variable (falling back to the working
directory). `--threads 1` pins the BLAS/FFT thread pools before numpy is
imported, which is the mode in which artifacts are bit-reproducible.
"""

from __future__ import annotations

import argparse
import os
import sys

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _pin_threads(argv):
    """Set the thread-pool variables from `--threads` in argv, before numpy
    loads. The value is read by argparse itself, so `--threads N`,
    `--threads=N` and unambiguous abbreviations all count; the full parser
    validates it afterwards and reports any error."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--threads")
    try:
        threads = pre.parse_known_args(argv)[0].threads
    except argparse.ArgumentError:
        return
    if threads is not None:
        for var in _THREAD_VARS:
            os.environ[var] = threads


def _out_root(args) -> str:
    """The output root, made before any work so that a bad one fails first."""
    root = args.out or os.environ.get("OPSURROGATE_OUT", ".")
    os.makedirs(root, exist_ok=True)
    return root


def _add_common(p):
    p.add_argument("--threads", type=int, default=None,
                   help="pin BLAS/FFT threads (1 => bit-reproducible)")
    p.add_argument("--out", default=None,
                   help="output root (default: $OPSURROGATE_OUT or cwd)")


def _add_problem_args(p, problems):
    p.add_argument("--problem", required=True, choices=problems)
    p.add_argument("--resolution", type=_checked(int, lambda v: v >= 2, "an integer >= 2"),
                   required=True)
    p.add_argument("--count", type=_non_negative_int, required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--cutoff", type=_non_negative_int, default=None,
                   help="KL truncation wavenumber (default: grid Nyquist)")
    p.add_argument("--beta", type=_positive_float, default=1e-2)
    p.add_argument("--t-final", type=_positive_float, default=1.0)
    p.add_argument("--coeff-dim", type=_positive_int, default=64)


def _problem_config(args):
    from .datasets import ProblemConfig

    return ProblemConfig(
        problem=args.problem,
        resolution=args.resolution,
        count=args.count,
        seed=args.seed,
        cutoff=args.cutoff,
        beta=args.beta,
        t_final=args.t_final,
        coeff_dim=args.coeff_dim,
    )


def _checked(cast, ok, what: str):
    """An argparse type: `cast(text)` when `ok` holds for it; anything else
    is a usage error that asks for `what`."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_non_negative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_positive_float = _checked(float, lambda v: 0.0 < v < float("inf"),
                           "a finite positive number")


_regressor_list = _checked(lambda text: tuple(text.split(",")),
                           lambda v: set(v) <= {"nn", "linear"},
                           "a comma-separated list of nn and linear")


def _positive_ints(text: str) -> tuple:
    try:
        return tuple(_positive_int(v) for v in text.split(","))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text!r}") from None


def _add_fit_args(p):
    from .regressors import FitConfig

    p.add_argument("--d", type=_positive_int, required=True, help="reduced dimension")
    p.add_argument("--regressor", choices=["nn", "linear"], default=FitConfig.regressor)
    p.add_argument("--epochs", type=_positive_int, default=FitConfig.epochs)
    p.add_argument("--batch-size", type=_positive_int, default=FitConfig.batch_size)
    p.add_argument("--fit-seed", type=_non_negative_int, default=FitConfig.seed)
    p.add_argument("--hidden", type=_positive_ints, default=FitConfig.hidden,
                   help="comma-separated hidden layer widths")
    p.add_argument("--unweighted", action="store_true",
                   help="use plain Euclidean (not quadrature-weighted) PCA")


def _fit_config(args):
    from .regressors import FitConfig

    return FitConfig(
        d=args.d,
        regressor=args.regressor,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.fit_seed,
        hidden=args.hidden,
        weighted=not args.unweighted,
    )


def _print_row(row: dict):
    """One CSV record, after its header line, on stdout."""
    import csv

    writer = csv.DictWriter(sys.stdout, fieldnames=list(row))
    writer.writeheader()
    writer.writerow(row)


def cmd_generate(args) -> int:
    from .datasets import generate_dataset, write_dataset

    cfg = _problem_config(args)
    path = os.path.join(_out_root(args), args.name)
    ds = generate_dataset(cfg)
    write_dataset(ds, path)
    print(f"wrote dataset {path} ({cfg.count} samples at n={cfg.resolution})")
    return 0


def cmd_fit(args) -> int:
    from .datasets import read_dataset
    from .harness import fit_from_dataset, save_surrogate

    ds = read_dataset(args.dataset)
    test_ds = read_dataset(args.test_dataset) if args.test_dataset else None
    fit_cfg = _fit_config(args)
    path = os.path.join(_out_root(args), args.name)
    sur, result = fit_from_dataset(ds, fit_cfg, test_ds=test_ds)
    meta = {
        "problem": ds.config.problem,
        "train_count": ds.config.count,
        "train_seed": ds.config.seed,
        "fit_seed": fit_cfg.seed,
        "epochs": fit_cfg.epochs,
    }
    save_surrogate(sur, path, meta, result)
    print(f"wrote surrogate {path} (d={fit_cfg.d}, regressor={fit_cfg.regressor})")
    if result is not None:
        print("\n".join(_learning_rate_report(result)))
    return 0


def _learning_rate_report(result) -> list[str]:
    """The chosen learning rate, as its `meta` line, then one line per
    rejected candidate with the epoch and loss at which it blew up."""
    lines = [f"learning_rate = {result.learning_rate!r}"]
    for lr, why in result.diagnostics["rejected"].items():
        lines.append(f"rejected learning_rate = {lr!r} ({why})")
    return lines


def cmd_eval(args) -> int:
    import csv

    from .datasets import read_dataset
    from .harness import evaluate, load_surrogate, regressor_kind

    sur = load_surrogate(args.model)
    test = read_dataset(args.dataset)
    error, online, skipped = evaluate(sur, test, allow_transfer=args.transfer)
    row = {
        "problem": test.config.problem,
        "resolution": test.resolution,
        "d": sur.pca_in.d,
        "N": test.config.count,
        "regressor": regressor_kind(sur),
        "relative_error": repr(error),
        "online_seconds": repr(online),
        "skipped_zero_norm": skipped,
    }
    if args.csv:  # stdout gets the row only once the file has it
        with open(args.csv, "a+", newline="") as fh:
            fh.seek(0)
            header = fh.readline().rstrip("\r\n")
            if header and header != ",".join(row):
                print(f"error: {args.csv} has the columns {header!r}, not "
                      f"{','.join(row)!r}; append to a new file", file=sys.stderr)
                return 2
            w = csv.DictWriter(fh, fieldnames=list(row))
            if not header:
                w.writeheader()
            w.writerow(row)
    _print_row(row)
    return 0


def cmd_sweep(args) -> int:
    from .harness import SWEEP_COLUMNS, run_sweep, write_csv, write_svg_lines

    base = _problem_config(args)
    fit_cfg = _fit_config(args)
    root = _out_root(args)
    values = list(args.values)
    rows = run_sweep(base, fit_cfg, args.axis, values, args.n_test,
                     args.test_seed, regressors=args.regressors)
    csv_path = os.path.join(root, f"{args.name}.csv")
    write_csv(csv_path, rows, SWEEP_COLUMNS)
    axis_key = {"resolution": "resolution", "dimension": "d", "samples": "N"}[args.axis]
    series = {}
    for reg in args.regressors:
        pts = [(r[axis_key], r["relative_error"]) for r in rows
               if r["regressor"] == reg and r["status"] == "ok"]
        if pts:
            series[reg] = ([p[0] for p in pts], [p[1] for p in pts])
    if series:
        write_svg_lines(os.path.join(root, f"{args.name}.svg"), series,
                        args.axis, "relative test error")
    print(f"wrote {csv_path} ({len(rows)} rows)")
    failed = [r for r in rows if r["status"] != "ok"]
    for r in failed:
        print(f"cell failed: {r}", file=sys.stderr)
    return 1 if failed else 0


def cmd_transfer(args) -> int:
    from .datasets import read_dataset
    from .harness import check_grid, evaluate, load_surrogate, transfer_surrogate

    sur = load_surrogate(args.model)
    test = read_dataset(args.dataset)
    check_grid(sur, test, allow_transfer=True)
    moved, gram_residual = transfer_surrogate(sur, test.resolution)
    error, online, skipped = evaluate(moved, test)
    row = {
        "source_n": sur.pca_in.n,
        "target_n": test.resolution,
        "gram_residual": repr(gram_residual),
        "relative_error": repr(error),
        "online_seconds": repr(online),
        "skipped_zero_norm": skipped,
    }
    _print_row(row)
    return 0


def cmd_baseline_rb(args) -> int:
    from dataclasses import replace

    import numpy as np

    from .datasets import generate_dataset
    from .grid import quadrature_weights
    from .pca import fit_pca
    from .surrogate import RbSolver, relative_errors

    base = _problem_config(args)
    train = generate_dataset(base)
    test = generate_dataset(replace(base, count=args.n_test, seed=args.test_seed))
    pca_out = fit_pca(train.ys, train.config.domain, train.resolution, args.d)
    n = base.resolution
    preds = RbSolver(pca_out).solve(test.xs, np.ones(n * n))
    ratios, _ = relative_errors(preds, test.ys, quadrature_weights("box2d", n))
    row = {"method": "rb", "problem": base.problem, "d": args.d,
           "relative_error": repr(float(np.mean(ratios)))}
    _print_row(row)
    return 0


def cmd_baseline_taylor(args) -> int:
    from .harness import write_csv
    from .protocols import CHKIFA_COLUMNS, run_chkifa_comparison

    base = _problem_config(args)
    path = os.path.join(_out_root(args), f"{args.name}.csv")
    budgets = list(args.budgets)
    rows = run_chkifa_comparison(base, budgets, args.n_test, args.test_seed)
    write_csv(path, rows, CHKIFA_COLUMNS)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


THEORY_CHECKS = ("fan", "mc-rate", "chebyshev", "lipschitz")


def cmd_theory(args) -> int:
    import csv

    from .random_fields import mu_g_spec

    if args.check == "fan":
        from .theory import check_fan

        report = check_fan(args.dim, args.d, args.trials, args.seed)
    elif args.check == "mc-rate":
        from .theory import check_mc_covariance_rate

        spec = mu_g_spec(8 if args.cutoff is None else args.cutoff)
        n_list = list(args.n_list)
        report = check_mc_covariance_rate(spec, n_list, args.trials, args.seed)
    elif args.check == "chebyshev":
        from .theory import check_chebyshev_coverage

        spec = mu_g_spec(16 if args.cutoff is None else args.cutoff)
        report = check_chebyshev_coverage(
            spec, args.d, args.delta, args.n_train, args.n_test, args.seed
        )
    else:
        import numpy as np

        from .pca import fit_pca
        from .random_fields import derive_seed, sample_field
        from .theory import check_encoder_lipschitz

        spec = mu_g_spec(16 if args.cutoff is None else args.cutoff)
        data = np.stack([sample_field(spec, 33, derive_seed(args.seed, i)).values
                         for i in range(args.n_train)])
        model = fit_pca(data, "box2d", 33, args.d)
        report = check_encoder_lipschitz(model, args.trials, args.seed + 1)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["key", "value"])
            writer.writerows(report.rows())
    print(report.summary())
    return 0 if report.passed else 1


def cmd_timing(args) -> int:
    from .harness import write_csv
    from .protocols import TIMING_COLUMNS, run_rb_timing

    base = _problem_config(args)
    fit_cfg = _fit_config(args)
    path = os.path.join(_out_root(args), f"{args.name}.csv")
    d_list = list(args.d_list)
    rows = run_rb_timing(base, d_list, fit_cfg)
    write_csv(path, rows, TIMING_COLUMNS)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # numpy loads here, after `_pin_threads`
    from .datasets import COEFFICIENT_PROBLEMS, PROBLEMS

    parser = argparse.ArgumentParser(
        prog="opsurrogate",
        description="PCA + latent-regressor surrogates for PDE solution maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample inputs, solve, write a dataset")
    _add_common(p)
    _add_problem_args(p, PROBLEMS)
    p.add_argument("--name", required=True, help="dataset directory name")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit", help="fit PCA + regressor from a dataset")
    _add_common(p)
    _add_fit_args(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--test-dataset", default=None,
                   help="optional validation set for the per-epoch test error of an nn fit")
    p.add_argument("--name", required=True, help="model directory name")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="relative test error of a saved surrogate; "
                       "CSV columns: problem,resolution,d,N,regressor,"
                       "relative_error,online_seconds,skipped_zero_norm")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--transfer", action="store_true",
                   help="move the PCA bases if grids differ")
    p.add_argument("--csv", default=None, help="append the row to this CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="sweep one axis; CSV columns: problem,"
                       "resolution,d,N,regressor,relative_error,online_seconds,status")
    _add_common(p)
    _add_problem_args(p, PROBLEMS)
    _add_fit_args(p)
    p.add_argument("--axis", required=True, choices=["resolution", "dimension",
                                                     "samples"])
    p.add_argument("--values", type=_positive_ints, required=True,
                   help="comma-separated axis values")
    p.add_argument("--n-test", type=_positive_int, default=100)
    p.add_argument("--test-seed", type=_non_negative_int, default=777)
    p.add_argument("--regressors", type=_regressor_list, default="nn,linear",
                   help="comma-separated regressors to fit per cell: nn, linear")
    p.add_argument("--name", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("transfer", help="evaluate a surrogate on another mesh "
                       "by moving its PCA bases; CSV columns: source_n,target_n,"
                       "gram_residual,relative_error,online_seconds,"
                       "skipped_zero_norm")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("baseline-rb", help="reduced-basis Galerkin error")
    _add_common(p)
    _add_problem_args(p, COEFFICIENT_PROBLEMS)
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--n-test", type=_positive_int, default=50)
    p.add_argument("--test-seed", type=_non_negative_int, default=777)
    p.set_defaults(func=cmd_baseline_rb)

    p = sub.add_parser("baseline-taylor", help="Taylor truncation vs PCA+linear "
                       "at equal solve budgets; CSV: method,d,budget,"
                       "relative_error,test_hash")
    _add_common(p)
    _add_problem_args(p, ("coeff_model",))
    p.add_argument("--budgets", type=_positive_ints, required=True)
    p.add_argument("--n-test", type=_positive_int, default=100)
    p.add_argument("--test-seed", type=_non_negative_int, default=777)
    p.add_argument("--name", required=True)
    p.set_defaults(func=cmd_baseline_taylor)

    p = sub.add_parser("theory", help=f"run an empirical theory check: "
                       f"{', '.join(THEORY_CHECKS)}")
    _add_common(p)
    p.add_argument("check", choices=THEORY_CHECKS)
    p.add_argument("--dim", type=_positive_int, default=6)
    p.add_argument("--d", type=_positive_int, default=2)
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--cutoff", type=_non_negative_int, default=None)
    p.add_argument("--n-list", type=_positive_ints, default="64,128,256,512,1024")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--n-train", type=_positive_int, default=200)
    p.add_argument("--n-test", type=_positive_int, default=1000)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("timing", help="online/offline timing: RB vs PCA+NN vs "
                       "PCA+linear; CSV: method,d,online_s,offline_s")
    _add_common(p)
    _add_problem_args(p, COEFFICIENT_PROBLEMS)
    _add_fit_args(p)
    p.add_argument("--d-list", type=_positive_ints, required=True)
    p.add_argument("--name", required=True)
    p.set_defaults(func=cmd_timing)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _pin_threads(argv)  # must happen before numpy is imported
    parser = build_parser()
    args = parser.parse_args(argv)
    from .datasets import FormatError
    from .grid import ShapeError
    from .pca import PcaConfigError, RankDeficiencyError
    from .random_fields import ConfigError

    try:
        return args.func(args)
    except (ConfigError, PcaConfigError, RankDeficiencyError, ShapeError, FormatError,
            OSError) as exc:
        # a flag in its own range that does not fit the others or the data,
        # such as a KL cutoff above Nyquist or d above the data's rank, a file
        # that does not match its `meta`, or an output path that cannot be written
        parser.exit(2, f"{parser.prog} {args.command}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
