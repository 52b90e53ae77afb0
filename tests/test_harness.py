import csv
import dataclasses
import importlib.util
import os
import re
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest

import opsurrogate
from opsurrogate.cli import (
    _THREAD_VARS,
    _fit_config,
    _learning_rate_report,
    _pin_threads,
    build_parser,
    main,
)
from opsurrogate.datasets import (
    FormatError,
    ProblemConfig,
    generate_dataset,
    read_meta,
    write_dataset,
    write_meta,
)
from opsurrogate.harness import (
    FitConfig,
    evaluate,
    fit_from_dataset,
    load_surrogate,
    regressor_kind,
    run_sweep,
    save_surrogate,
    transfer_surrogate,
    write_csv,
    write_svg_lines,
)
from opsurrogate.grid import ShapeError
from opsurrogate.random_fields import ConfigError
from opsurrogate.regressors import init_mlp, train_mlp
from opsurrogate.surrogate import predict_batch


def single_threaded_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    # Child processes run in other directories, where an inherited relative
    # PYTHONPATH (such as `src`) resolves to nothing: put the source root of
    # the package this process imported first, as an absolute path.
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(opsurrogate.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root, *filter(None, env.get("PYTHONPATH", "").split(os.pathsep))])
    return env


def run_cli(args, cwd, check=True):
    proc = subprocess.run([sys.executable, "-m", "opsurrogate", *args],
                          cwd=cwd, env=single_threaded_env(),
                          capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr}")
    return proc


@pytest.fixture(scope="module")
def poisson_train():
    return generate_dataset(ProblemConfig(problem="poisson", resolution=17,
                                          count=48, seed=11))


@pytest.fixture(scope="module")
def poisson_test():
    return generate_dataset(ProblemConfig(problem="poisson", resolution=17,
                                          count=24, seed=12))


def test_refit_is_deterministic(poisson_train, poisson_test):
    cfg = FitConfig(d=10, regressor="linear", seed=1)
    e1 = evaluate(fit_from_dataset(poisson_train, cfg)[0], poisson_test)[0]
    e2 = evaluate(fit_from_dataset(poisson_train, cfg)[0], poisson_test)[0]
    assert abs(e1 - e2) < 1e-12


def test_full_rank_linear_fit_is_exact(poisson_train):
    # d = N on a linear problem: latent map is exactly affine
    small = generate_dataset(ProblemConfig(problem="poisson", resolution=17,
                                           count=24, seed=13))
    sur, _ = fit_from_dataset(small, FitConfig(d=24, regressor="linear", seed=2))
    err, _, _ = evaluate(sur, small)
    assert err < 1e-6


def test_train_error_below_test_error(poisson_train, poisson_test):
    sur, _ = fit_from_dataset(poisson_train, FitConfig(d=10, regressor="linear",
                                                       seed=3))
    train_err, _, _ = evaluate(sur, poisson_train)
    test_err, _, _ = evaluate(sur, poisson_test)
    assert train_err <= test_err


def test_evaluate_counts_zero_norm_targets(poisson_train, poisson_test):
    sur, _ = fit_from_dataset(poisson_train, FitConfig(d=10, regressor="linear",
                                                       seed=3))
    keep = np.ones(poisson_test.ys.shape[0], dtype=bool)
    keep[[0, 5]] = False
    ys = np.where(keep[:, None], poisson_test.ys, 0.0)
    with pytest.warns(RuntimeWarning):
        err, _, skipped = evaluate(sur, dataclasses.replace(poisson_test, ys=ys))
    assert skipped == 2
    kept = dataclasses.replace(poisson_test, xs=poisson_test.xs[keep], ys=ys[keep])
    kept_err, _, kept_skipped = evaluate(sur, kept)
    assert err == pytest.approx(kept_err, rel=1e-14) and kept_skipped == 0
    with pytest.raises(ValueError, match="zero norm"):
        evaluate(sur, dataclasses.replace(poisson_test, ys=np.zeros_like(ys)))


def test_nn_loss_history_recorded(tmp_path, poisson_train, poisson_test):
    sur, result = fit_from_dataset(
        poisson_train,
        FitConfig(d=6, regressor="nn", epochs=3, seed=4, hidden=(16, 16)),
        test_ds=poisson_test)
    assert np.all(np.isfinite(result.train_loss))
    assert len(result.test_metric) == len(result.train_loss)
    save_surrogate(sur, str(tmp_path), {"problem": "poisson"}, result)
    assert read_meta(str(tmp_path / "meta"))["learning_rate"] == repr(result.learning_rate)
    with open(tmp_path / "loss_history.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_mse", "test_relative_error"]
    assert rows[1:] == [[str(i), repr(loss), repr(test)] for i, (loss, test)
                        in enumerate(zip(result.train_loss, result.test_metric))]


@pytest.mark.parametrize("problem, n, regressor, error, words", [
    # as many values per row (256) on another domain: nothing else would fail
    ("burgers", 256, "nn", ShapeError, ["torus1d n=256", "box2d n=16"]),
    ("poisson", 16, "linear", ConfigError, ["--regressor nn", "opsurrogate eval"]),
])
def test_fit_rejects_a_test_set_it_cannot_use_before_any_pca(monkeypatch, problem, n,
                                                             regressor, error, words):
    train = generate_dataset(ProblemConfig(problem="poisson", resolution=16, count=4,
                                           seed=1))
    test = generate_dataset(ProblemConfig(problem=problem, resolution=n, count=2, seed=2))
    monkeypatch.setattr("opsurrogate.harness.fit_pca",
                        lambda *a, **k: pytest.fail("PCA ran before the check"))
    with pytest.raises(error) as exc:
        fit_from_dataset(train, FitConfig(d=2, regressor=regressor, epochs=1,
                                          hidden=(4,)), test)
    assert str(exc.value).startswith("--test-dataset (test_ds) ")
    assert all(w in str(exc.value) for w in words), exc.value


def test_save_load_roundtrip(tmp_path, poisson_train, poisson_test):
    for reg, extra in (("linear", {}), ("nn", {"epochs": 2, "hidden": (8, 8)})):
        sur, res = fit_from_dataset(poisson_train,
                                    FitConfig(d=5, regressor=reg, seed=5, **extra))
        path = str(tmp_path / reg)
        save_surrogate(sur, path)
        back = load_surrogate(path)
        p1 = predict_batch(sur, poisson_test.xs)
        p2 = predict_batch(back, poisson_test.xs)
        assert np.array_equal(p1, p2)


def test_save_is_byte_identical(tmp_path, poisson_train):
    sur, _ = fit_from_dataset(poisson_train, FitConfig(d=5, regressor="linear",
                                                       seed=6))
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    save_surrogate(sur, a)
    save_surrogate(sur, b)
    for name in sorted(os.listdir(a)):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_load_rejects_truncated_weight_file(tmp_path, poisson_train):
    sur, _ = fit_from_dataset(poisson_train, FitConfig(d=5, regressor="nn", epochs=1,
                                                       seed=8, hidden=(8,)))
    path = tmp_path / "model"
    save_surrogate(sur, str(path))
    w0 = path / "w0.f64"
    size = w0.stat().st_size
    w0.write_bytes(w0.read_bytes()[:-8])
    with pytest.raises(FormatError) as exc:
        load_surrogate(str(path))
    message = str(exc.value)
    assert str(w0) in message and str(size) in message and str(size - 8) in message


def test_load_rejects_wrong_format_version(tmp_path, poisson_train):
    sur, _ = fit_from_dataset(poisson_train, FitConfig(d=5, regressor="linear"))
    path = tmp_path / "model"
    save_surrogate(sur, str(path))
    meta = (path / "meta").read_text()
    assert "format_version = 1\n" in meta
    (path / "meta").write_text(meta.replace("format_version = 1\n", "format_version = 2\n"))
    with pytest.raises(FormatError, match="format_version 2"):
        load_surrogate(str(path))


@pytest.mark.parametrize("edit, wanted", [
    (lambda meta: meta.pop("weighted"), "missing key 'weighted'"),
    (lambda meta: meta.update(n_in="seventeen"), "cannot parse n_in = 'seventeen'"),
], ids=["missing_key", "unparsable_int"])
def test_eval_with_a_broken_model_meta_is_a_one_line_error(tmp_path, capsys, poisson_train,
                                                           edit, wanted):
    sur, _ = fit_from_dataset(poisson_train, FitConfig(d=5, regressor="linear"))
    model = tmp_path / "model"
    save_surrogate(sur, str(model))
    meta = read_meta(str(model / "meta"))
    edit(meta)
    write_meta(str(model / "meta"), meta)
    write_dataset(poisson_train, str(tmp_path / "data"))
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--model", str(model), "--dataset", str(tmp_path / "data")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("opsurrogate eval: error: ") and err.count("\n") == 1
    assert str(model / "meta") in err and wanted in err


@pytest.fixture(scope="module")
def bundles(tmp_path_factory, poisson_train):
    """A dataset directory `data` and a linear model directory `model`."""
    root = tmp_path_factory.mktemp("bundles")
    write_dataset(poisson_train, str(root / "data"))
    sur, _ = fit_from_dataset(poisson_train, FitConfig(d=4, regressor="linear"))
    save_surrogate(sur, str(root / "model"))
    return root


def _append_non_ascii(bundle):
    with open(bundle / "meta", "ab") as fh:
        fh.write(b"note = \xff\n")


# (command, the bundle it reads, how that bundle is broken, the path the
# error must name relative to the bundle root, what the error must say)
BAD_BUNDLES = {
    "fit_no_such_dataset": ("fit", "nosuch", None, "nosuch", "no such directory"),
    "eval_no_such_model": ("eval", "nosuch", None, "nosuch", "no such directory"),
    "eval_model_without_meta": ("eval", "empty", lambda b: b.mkdir(), "empty",
                                "not a dataset or model directory"),
    "fit_meta_not_ascii": ("fit", "data", _append_non_ascii, "data/meta",
                           "does not decode"),
    "fit_missing_y": ("fit", "data", lambda b: (b / "y.f64").unlink(), "data/y.f64",
                      "missing tensor 'y'"),
    "eval_missing_lin_bias": ("eval", "model", lambda b: (b / "lin_bias.f64").unlink(),
                              "model/lin_bias.f64", "missing tensor 'lin_bias'"),
    "eval_missing_target_mean": ("eval", "model",
                                 lambda b: (b / "target_mean.f64").unlink(),
                                 "model/target_mean.f64", "missing tensor 'target_mean'"),
}


@pytest.mark.parametrize("case", sorted(BAD_BUNDLES))
def test_cli_bad_bundle_path_is_a_one_line_error(tmp_path, bundles, case):
    command, name, breakage, named, wanted = BAD_BUNDLES[case]
    root = tmp_path / "root"
    shutil.copytree(bundles, root)
    if breakage is not None:
        breakage(root / name)
    if command == "fit":
        argv = ["fit", "--d", "2", "--regressor", "linear", "--dataset", str(root / name),
                "--out", str(root), "--name", "refit"]
    else:
        argv = ["eval", "--model", str(root / name), "--dataset", str(root / "data")]
    proc = run_cli(argv, cwd=str(tmp_path), check=False)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"opsurrogate {command}: error: "), proc.stderr
    assert str(root / named) in proc.stderr and wanted in proc.stderr, proc.stderr


def test_linear_model_directory_keeps_the_affine_format(bundles, poisson_train):
    # the one-layer network is saved as the affine map, and loads back as it
    model = bundles / "model"
    meta = read_meta(str(model / "meta"))
    assert meta["regressor"] == "linear" and "layer_dims" not in meta
    assert {"lin_matrix.f64", "lin_bias.f64", "target_mean.f64", "target_std.f64"} <= \
        set(os.listdir(model))
    assert "w0.f64" not in os.listdir(model)
    back = load_surrogate(str(model))
    assert back.regressor.dims == [4, 4] and regressor_kind(back) == "linear"
    sur, _ = fit_from_dataset(poisson_train, FitConfig(d=4, regressor="linear"))
    assert np.array_equal(predict_batch(back, poisson_train.xs),
                          predict_batch(sur, poisson_train.xs))


def test_save_rejects_mixed_weighted_flags(tmp_path, poisson_train):
    # the model format stores one `weighted` flag for both PCAs
    sur, _ = fit_from_dataset(poisson_train, FitConfig(d=5, regressor="linear"))
    mixed = dataclasses.replace(
        sur, pca_out=dataclasses.replace(sur.pca_out, weighted=False))
    with pytest.raises(ValueError, match="weighted"):
        save_surrogate(mixed, str(tmp_path / "model"))
    assert not (tmp_path / "model").exists()


def test_transfer_surrogate_moves_grid(poisson_train):
    fine_test = generate_dataset(ProblemConfig(problem="poisson", resolution=33,
                                               count=12, seed=14))
    sur, _ = fit_from_dataset(poisson_train, FitConfig(d=8, regressor="linear",
                                                       seed=7))
    moved, resid = transfer_surrogate(sur, 33)
    assert moved.pca_in.n == 33
    assert resid < 1e-1
    err, _, _ = evaluate(moved, fine_test)
    assert np.isfinite(err)
    with pytest.raises(ValueError):
        evaluate(sur, fine_test)


def test_run_sweep_dimension_axis(poisson_train):
    base = ProblemConfig(problem="poisson", resolution=17, count=32, seed=15)
    rows = run_sweep(base, FitConfig(d=4, regressor="linear", seed=8),
                     axis="dimension", values=[8, 2, 4], n_test=8,
                     test_seed=16, regressors=("linear",))
    assert [r["d"] for r in rows] == [2, 4, 8]
    assert all(r["status"] == "ok" for r in rows)


def test_run_sweep_samples_axis_error_trend(poisson_train):
    base = ProblemConfig(problem="poisson", resolution=17, count=128, seed=17)
    rows = run_sweep(base, FitConfig(d=10, regressor="linear", seed=9),
                     axis="samples", values=[16, 64, 128], n_test=32,
                     test_seed=18, regressors=("linear",))
    errs = [r["relative_error"] for r in rows]
    # non-increasing within noise
    assert errs[-1] <= errs[0] * 1.2


def test_run_sweep_records_cell_failures():
    base = ProblemConfig(problem="poisson", resolution=17, count=8, seed=19)
    rows = run_sweep(base, FitConfig(d=4, regressor="linear", seed=10),
                     axis="dimension", values=[4, 16], n_test=4,
                     test_seed=20, regressors=("linear",))
    by_d = {r["d"]: r for r in rows}
    assert by_d[4]["status"] == "ok"
    assert by_d[16]["status"].startswith("failed")


def test_write_csv_and_svg(tmp_path):
    rows = [{"a": 1, "b": 2.5}, {"a": 2, "b": 1.25}]
    csv_path = str(tmp_path / "out.csv")
    write_csv(csv_path, rows, ["a", "b"])
    with open(csv_path) as fh:
        got = list(csv.DictReader(fh))
    assert got[0]["a"] == "1"

    svg_path = str(tmp_path / "out.svg")
    write_svg_lines(svg_path, {"m": ([1, 2, 4], [0.5, 0.25, 0.1])},
                    "x", "err")
    text = open(svg_path).read()
    assert "<svg" in text and "polyline" in text


# CLI surface


def test_cli_generate_is_byte_identical(tmp_path):
    for name in ("r1", "r2"):
        run_cli(["generate", "--problem", "poisson", "--resolution", "17",
                 "--count", "6", "--seed", "21", "--threads", "1",
                 "--out", str(tmp_path), "--name", name], cwd=str(tmp_path))
    for f in sorted(os.listdir(tmp_path / "r1")):
        assert (tmp_path / "r1" / f).read_bytes() == \
            (tmp_path / "r2" / f).read_bytes()


def test_cli_fit_eval_pipeline(tmp_path):
    run_cli(["generate", "--problem", "poisson", "--resolution", "17",
             "--count", "24", "--seed", "22", "--threads", "1",
             "--out", str(tmp_path), "--name", "train"], cwd=str(tmp_path))
    run_cli(["generate", "--problem", "poisson", "--resolution", "17",
             "--count", "8", "--seed", "23", "--threads", "1",
             "--out", str(tmp_path), "--name", "test"], cwd=str(tmp_path))
    run_cli(["fit", "--dataset", str(tmp_path / "train"), "--d", "6",
             "--regressor", "linear", "--threads", "1",
             "--out", str(tmp_path), "--name", "model"], cwd=str(tmp_path))
    results = tmp_path / "results.csv"
    proc = run_cli(["eval", "--model", str(tmp_path / "model"),
                    "--dataset", str(tmp_path / "test"), "--threads", "1",
                    "--csv", str(results)],
                   cwd=str(tmp_path))
    lines = proc.stdout.strip().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["problem", "resolution", "d", "N", "regressor"]
    row = dict(zip(header, lines[1].split(",")))
    assert 0 <= float(row["relative_error"]) < 1
    assert row["skipped_zero_norm"] == "0"
    assert results.read_text().splitlines()[0] == lines[0]
    # appending under another header would misalign the columns
    old = "problem,resolution,d,N,regressor,relative_error,online_seconds\n"
    results.write_text(old)
    proc = run_cli(["eval", "--model", str(tmp_path / "model"),
                    "--dataset", str(tmp_path / "test"), "--csv", str(results)],
                   cwd=str(tmp_path), check=False)
    assert proc.returncode == 2 and "append to a new file" in proc.stderr
    assert proc.stdout == "" and results.read_text() == old
    proc = run_cli(["transfer", "--model", str(tmp_path / "model"),
                    "--dataset", str(tmp_path / "test"), "--threads", "1"],
                   cwd=str(tmp_path))
    header, values = (line.split(",") for line in proc.stdout.strip().splitlines())
    moved = dict(zip(header, values))
    assert moved["relative_error"] == row["relative_error"]
    assert moved["skipped_zero_norm"] == "0"
    # an NN fit reports the learning rate it chose, as written to `meta`
    proc = run_cli(["fit", "--dataset", str(tmp_path / "train"), "--d", "4",
                    "--regressor", "nn", "--hidden", "8", "--epochs", "2",
                    "--batch-size", "8", "--threads", "1",
                    "--out", str(tmp_path), "--name", "nn"], cwd=str(tmp_path))
    chosen = [line for line in proc.stdout.splitlines()
              if line.startswith("learning_rate = ")]
    meta = (tmp_path / "nn" / "meta").read_text().splitlines()
    assert len(chosen) == 1 and chosen[0] in meta


def test_cli_eval_empty_test_set_is_usage_error(tmp_path):
    run_cli(["generate", "--problem", "poisson", "--resolution", "17",
             "--count", "12", "--seed", "24", "--threads", "1",
             "--out", str(tmp_path), "--name", "train"], cwd=str(tmp_path))
    run_cli(["generate", "--problem", "poisson", "--resolution", "17",
             "--count", "0", "--seed", "25", "--threads", "1",
             "--out", str(tmp_path), "--name", "empty"], cwd=str(tmp_path))
    run_cli(["fit", "--dataset", str(tmp_path / "train"), "--d", "4",
             "--regressor", "linear", "--threads", "1",
             "--out", str(tmp_path), "--name", "model"], cwd=str(tmp_path))
    proc = run_cli(["eval", "--model", str(tmp_path / "model"),
                    "--dataset", str(tmp_path / "empty")],
                   cwd=str(tmp_path), check=False)
    assert proc.returncode != 0


def test_cli_eval_on_another_grid_points_to_transfer(tmp_path):
    for name, n in (("train", "17"), ("coarse", "9")):
        run_cli(["generate", "--problem", "poisson", "--resolution", n,
                 "--count", "12", "--seed", "26", "--threads", "1",
                 "--out", str(tmp_path), "--name", name], cwd=str(tmp_path))
    run_cli(["fit", "--dataset", str(tmp_path / "train"), "--d", "4",
             "--regressor", "linear", "--threads", "1",
             "--out", str(tmp_path), "--name", "model"], cwd=str(tmp_path))
    proc = run_cli(["eval", "--model", str(tmp_path / "model"),
                    "--dataset", str(tmp_path / "coarse")],
                   cwd=str(tmp_path), check=False)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "--transfer" in proc.stderr and "n=17" in proc.stderr and "n=9" in proc.stderr


def test_cli_transfer_to_another_domain_is_usage_error(tmp_path):
    out = str(tmp_path)
    for problem, n in (("poisson", "17"), ("burgers", "16")):
        assert main(["generate", "--problem", problem, "--resolution", n, "--count", "8",
                     "--seed", "27", "--out", out, "--name", problem]) == 0
    assert main(["fit", "--dataset", str(tmp_path / "poisson"), "--d", "4",
                 "--regressor", "linear", "--out", out, "--name", "model"]) == 0
    proc = run_cli(["transfer", "--model", str(tmp_path / "model"),
                    "--dataset", str(tmp_path / "burgers")], cwd=out, check=False)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "box2d n=17" in proc.stderr and "torus1d n=16" in proc.stderr


def _check_train_surrogate(stdout):
    errors = dict(re.findall(r"^(linear|nn)\s*: relative test error (\S+)", stdout, re.M))
    assert sorted(errors) == ["linear", "nn"], stdout
    assert all(np.isfinite(float(e)) for e in errors.values()), stdout


def _check_solver_validation(stdout):
    match = re.search(r"Burgers vs Cole-Hopf.*\n\s+relative L2 error (\S+)", stdout)
    assert match and float(match.group(1)) < 1e-6, stdout


DEMO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "demos")
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
DEMO_CHECKS = {"train_surrogate.py": _check_train_surrogate,
               "solver_validation.py": _check_solver_validation}


@pytest.mark.parametrize("demo", sorted(f for f in os.listdir(DEMO_DIR)
                                         if f.endswith(".py")))
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, os.path.join(DEMO_DIR, demo)],
                          env=single_threaded_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    DEMO_CHECKS.get(demo, lambda stdout: None)(proc.stdout)


@pytest.mark.skipif(not os.path.isfile(os.path.join(PERFBENCH, "child.py")),
                    reason="no perfbench/ in this checkout")
def test_perfbench_trace_table_names_resolve(monkeypatch):
    # the benchmark's tracer wraps these module attributes by name; one that
    # no longer resolves is skipped there and only counted as a missing wrap
    monkeypatch.setattr(sys, "path", list(sys.path))  # child.py prepends its own dir
    spec = importlib.util.spec_from_file_location("perfbench_child",
                                                  os.path.join(PERFBENCH, "child.py"))
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    table = child.trace_table(child.Tracer(), np)
    assert table
    for module_name, attr, *_ in table:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_cli_theory_commands(tmp_path):
    proc = run_cli(["theory", "fan", "--trials", "200", "--threads", "1"],
                   cwd=str(tmp_path))
    assert "[PASS]" in proc.stdout
    bad = run_cli(["theory", "no-such-check"], cwd=str(tmp_path), check=False)
    assert bad.returncode != 0
    listing = bad.stderr + bad.stdout
    assert "fan" in listing


@pytest.mark.parametrize("argv", [
    ["fit", "--dataset", "x", "--name", "m"],
    ["sweep", "--problem", "poisson", "--resolution", "9", "--count", "4",
     "--axis", "dimension", "--values", "2", "--name", "s"],
    ["timing", "--problem", "darcy_lognormal", "--resolution", "9", "--count", "4",
     "--d-list", "2", "--name", "t"],
])
def test_fit_flag_defaults_are_the_fit_config_defaults(argv):
    args = build_parser().parse_args([*argv, "--d", "3"])
    assert _fit_config(args) == FitConfig(d=3)


@pytest.mark.parametrize("flag", [["--epochs", "-1"], ["--epochs", "0"],
                                  ["--batch-size", "-4"], ["--batch-size", "0"],
                                  ["--hidden", "8,0"], ["--hidden", "8,,8"]])
def test_fit_rejects_non_positive_training_flags(capsys, flag):
    argv = ["fit", "--d", "4", "--dataset", "train", "--name", "model", *flag]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and flag[0] in err and "positive integer" in err


GENERATE = ["generate", "--problem", "poisson", "--resolution", "17", "--count", "4",
            "--name", "data"]
SWEEP = ["sweep", "--problem", "poisson", "--resolution", "17", "--count", "4",
         "--d", "4", "--axis", "samples", "--values", "8", "--name", "sweep"]
BASELINE_RB = ["baseline-rb", "--problem", "darcy_lognormal", *GENERATE[3:7], "--d", "4"]
BASELINE_TAYLOR = ["baseline-taylor", "--problem", "coeff_model", *GENERATE[3:7],
                   "--name", "t", "--budgets", "8"]
TIMING = ["timing", *BASELINE_RB[1:7], "--d", "4", "--name", "t", "--d-list", "4"]


@pytest.mark.parametrize("argv, flag, wanted", [
    (GENERATE, ["--count", "-1"], "non-negative integer"),
    (GENERATE, ["--resolution", "1"], "integer >= 2"),
    (GENERATE, ["--seed", "-1"], "non-negative integer"),
    (GENERATE, ["--cutoff", "-1"], "non-negative integer"),
    (["fit", "--dataset", "train", "--name", "model", "--d", "4"], ["--d", "0"],
     "positive integer"),
    (["fit", "--dataset", "train", "--name", "model", "--d", "4"], ["--fit-seed", "-1"],
     "non-negative integer"),
    (SWEEP, ["--values", "8,x"], "positive integers"),
    (SWEEP, ["--test-seed", "-3"], "non-negative integer"),
    (TIMING, ["--d-list", "4,-2"], "positive integers"),
    (BASELINE_TAYLOR, ["--budgets", "8,x"], "positive integers"),
    (BASELINE_RB, ["--d", "-4"], "positive integer"),
    (["theory", "mc-rate"], ["--n-list", "64,0"], "positive integers"),
    (["theory", "fan"], ["--seed", "-1"], "non-negative integer"),
    (["theory", "fan"], ["--dim", "0"], "positive integer"),
    (["theory", "fan"], ["--d", "0"], "positive integer"),
    (["theory", "fan"], ["--trials", "0"], "positive integer"),
    (["theory", "chebyshev"], ["--n-train", "0"], "positive integer"),
    (["theory", "chebyshev"], ["--n-test", "-5"], "positive integer"),
    (BASELINE_RB, ["--n-test", "0"], "positive integer"),
    (BASELINE_TAYLOR, ["--n-test", "0"], "positive integer"),
    (SWEEP, ["--n-test", "0"], "positive integer"),
    (GENERATE, ["--coeff-dim", "0"], "positive integer"),
    (BASELINE_RB, ["--problem", "poisson"], "invalid choice"),
    (BASELINE_TAYLOR, ["--problem", "darcy_piecewise"], "invalid choice"),
    (SWEEP, ["--regressors", "linear,foo"], "nn and linear"),
    (SWEEP, ["--regressors", ""], "nn and linear"),
    (SWEEP, ["--regressors", "nn,"], "nn and linear"),
    (SWEEP, ["--regressors", "NN"], "nn and linear"),
    (TIMING, ["--problem", "poisson"], "invalid choice"),
])
def test_out_of_range_integer_flags_are_usage_errors(capsys, argv, flag, wanted):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*argv, *flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and flag[0] in err and wanted in err


@pytest.mark.parametrize("text, parsed", [("nn,linear", ("nn", "linear")),
                                          ("linear", ("linear",))])
def test_sweep_regressors_parse(text, parsed):
    assert build_parser().parse_args(SWEEP).regressors == ("nn", "linear")
    assert build_parser().parse_args([*SWEEP, "--regressors", text]).regressors == parsed


BURGERS = ["generate", "--problem", "burgers", "--resolution", "16", "--count", "2",
           "--name", "data"]


@pytest.mark.parametrize("flag", [["--beta", "-1"], ["--beta", "nan"], ["--beta", "0"],
                                  ["--t-final", "inf"], ["--t-final", "0"],
                                  ["--t-final", "x"]])
def test_bad_burgers_float_flags_are_usage_errors(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([*BURGERS, "--out", str(tmp_path), *flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and flag[0] in err and "finite positive number" in err
    assert not (tmp_path / "data").exists()


# (argv, the path under the copied bundle root that the error must name)
UNWRITABLE_OUTPUTS = {
    "eval_csv": (["eval", "--model", "{root}/model", "--dataset", "{root}/data",
                  "--csv", "{root}/nodir/x.csv"], "nodir/x.csv"),
    "theory_csv": (["theory", "fan", "--trials", "50", "--csv", "{root}/nodir/t.csv"],
                   "nodir/t.csv"),
    "fit_out_is_a_file": (["fit", "--dataset", "{root}/data", "--d", "2", "--regressor",
                           "linear", "--out", "{root}/model/meta", "--name", "m"],
                          "model/meta"),
    "sweep_out_is_a_file": ([*SWEEP, "--regressors", "linear", "--out", "{root}/model/meta"],
                            "model/meta"),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_path_is_a_one_line_error(tmp_path, capsys, monkeypatch,
                                                    bundles, case):
    argv, named = UNWRITABLE_OUTPUTS[case]
    root = tmp_path / "root"
    shutil.copytree(bundles, root)
    # a sweep checks where it writes before it runs any cell
    monkeypatch.setattr("opsurrogate.harness.run_sweep",
                        lambda *a, **k: pytest.fail("the sweep ran first"))
    with pytest.raises(SystemExit) as exc:
        main([arg.format(root=root) for arg in argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"opsurrogate {argv[0]}: error: ") and err.count("\n") == 1, err
    assert str(root / named) in err, err
    assert out == "", "a command that fails prints no result"


def test_fit_data_that_does_not_fit_is_a_one_line_error(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["generate", "--problem", "coeff_model", "--coeff-dim", "3",
                 "--resolution", "9", "--count", "8", "--out", out, "--name", "rank3"]) == 0
    assert main(["generate", "--problem", "coeff_model", "--resolution", "17",
                 "--count", "2", "--out", out, "--name", "fine"]) == 0
    fit = ["fit", "--regressor", "linear", "--dataset", f"{out}/rank3", "--out", out,
           "--name", "model"]
    for extra, wanted in ((["--d", "6"], ["rank < d"]),
                          (["--d", "2", "--test-dataset", f"{out}/fine"],
                           ["--test-dataset", "n=17", "n=9"])):
        with pytest.raises(SystemExit) as exc:
            main([*fit, *extra])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("opsurrogate fit: error: ") and err.count("\n") == 1, err
        assert all(w in err for w in wanted), err
    assert not (tmp_path / "model").exists()


def test_fit_linear_with_a_test_dataset_is_a_one_line_error(tmp_path, capsys, bundles):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--regressor", "linear", "--d", "2", "--dataset", f"{bundles}/data",
              "--test-dataset", f"{bundles}/data", "--out", str(tmp_path), "--name", "m"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert err.startswith("opsurrogate fit: error: --test-dataset ") and err.count("\n") == 1
    assert "--regressor nn" in err and "opsurrogate eval" in err, err
    assert out == "" and not (tmp_path / "m").exists()


@pytest.mark.parametrize("argv", [
    ["transfer", "--model", "{root}/model", "--dataset", "{root}/empty"],
    ["fit", "--dataset", "{root}/data", "--test-dataset", "{root}/empty", "--d", "2",
     "--hidden", "4", "--epochs", "2", "--out", "{root}", "--name", "nn"],
])
def test_empty_test_set_is_a_one_line_error(tmp_path, capsys, bundles, poisson_train, argv):
    root = tmp_path / "root"
    shutil.copytree(bundles, root)
    write_dataset(poisson_train.head(0), str(root / "empty"))
    with pytest.raises(SystemExit) as exc:
        main([arg.format(root=root) for arg in argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert err == f"opsurrogate {argv[0]}: error: empty test set\n"
    assert out == "" and not (root / "nn").exists()


def test_theory_cutoff_zero_is_not_the_default(capsys):
    printed = []
    for cutoff in ("0", "8"):
        main(["theory", "mc-rate", "--trials", "20", "--cutoff", cutoff])
        printed.append(capsys.readouterr().out)
    assert printed[0] != printed[1]


def test_in_range_integer_flags_parse():
    args = build_parser().parse_args(
        [*SWEEP, "--count", "0", "--seed", "3", "--cutoff", "0", "--values", "8,16",
         "--fit-seed", "0", "--beta", "1e-3", "--t-final", "2"])
    assert (args.count, args.seed, args.cutoff, args.values, args.fit_seed) == \
        (0, 3, 0, (8, 16), 0)
    assert (args.beta, args.t_final) == (1e-3, 2.0)


@pytest.mark.parametrize("argv, wanted", [
    (["generate", "--problem", "poisson", "--resolution", "9", "--count", "2",
      "--cutoff", "40", "--name", "data"], "Nyquist"),
    (["generate", "--problem", "burgers", "--resolution", "12", "--count", "2",
      "--name", "data"], "power of two"),
    (["fit", "--d", "50", "--regressor", "linear", "--dataset", "{out}/train",
      "--name", "model"], "d <= N"),
])
def test_settings_that_do_not_fit_the_data_are_errors(tmp_path, capsys, argv, wanted):
    out = str(tmp_path)
    assert main(["generate", "--problem", "poisson", "--resolution", "9", "--count", "3",
                 "--out", out, "--name", "train"]) == 0
    with pytest.raises(SystemExit) as exc:
        main([arg.format(out=out) for arg in argv] + ["--out", out])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"opsurrogate {argv[0]}: error: ") and wanted in err


@pytest.mark.parametrize("argv, wanted", [
    (["theory", "fan", "--d", "7", "--dim", "6"], "d=7, dim=6"),
    (["theory", "chebyshev", "--delta", "2"], "got 2.0"),
    (["theory", "lipschitz", "--cutoff", "1", "--d", "8"], "rank < d"),
])
def test_theory_settings_that_do_not_fit_are_one_line_errors(capsys, argv, wanted):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("opsurrogate theory: error: ") and err.count("\n") == 1
    assert wanted in err


def test_readme_cli_examples_parse():
    # every `opsurrogate ...` command in README's code blocks, with its
    # backslash continuations joined
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", fh.read(), re.M | re.S)
    commands = [line.strip() for block in blocks
                for line in re.sub(r"\\\n\s*", " ", block).splitlines()
                if line.strip().startswith("opsurrogate ")]
    assert len(commands) >= 12
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {command}")


def test_learning_rate_report_names_each_rejected_rate():
    rng = np.random.default_rng(11)
    x = 10 * rng.standard_normal((64, 3))
    y = 10 * rng.standard_normal((64, 3))
    cfg = FitConfig(d=3, epochs=8, batch_size=16, seed=4, learning_rates=(1e6, 1e-4))
    result = train_mlp(init_mlp([3, 16, 3], seed=5), x, y, cfg)
    lines = _learning_rate_report(result)
    assert lines[0] == "learning_rate = 0.0001"
    why = result.diagnostics["rejected"][1e6]
    assert lines[1:] == [f"rejected learning_rate = 1000000.0 ({why})"]
    assert why.startswith("epoch 0: loss ")


def test_cli_help_documents_csv_schemas():
    proc = run_cli(["--help"], cwd="/tmp")
    assert "CSV" in proc.stdout


def test_cli_import_leaves_numpy_unloaded(tmp_path):
    # `--threads` can only take effect if the entry point has not loaded
    # numpy (and with it the BLAS thread pool) before `main` pins it.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, opsurrogate.cli; print('numpy' in sys.modules)"],
        cwd=str(tmp_path), env=single_threaded_env(),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("flag", [["--threads=1"], ["--threads", "1"]])
def test_pin_threads_accepts_both_spellings(monkeypatch, flag):
    for var in _THREAD_VARS:
        monkeypatch.setenv(var, "7")
    _pin_threads(["generate", *flag])
    assert {var: os.environ[var] for var in _THREAD_VARS} == \
        {var: "1" for var in _THREAD_VARS}


def test_every_export_resolves():
    # a name left in the lazy export table after its definition is deleted
    # would only fail when first used
    for name in opsurrogate.__all__:
        assert getattr(opsurrogate, name) is not None, name
    namespace = {}
    exec("from opsurrogate import *", namespace)
    assert set(opsurrogate.__all__) <= set(namespace)
