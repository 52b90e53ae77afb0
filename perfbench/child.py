"""One benchmark run of one workload, in a fresh single-threaded interpreter.

Started by run.py with the BLAS thread variables already pinned. Prints
`ready` once the interpreter, the package and its BLAS are loaded; with
--setup-only it stops there. Otherwise it runs the offline pipeline
(generate -> fit -> eval [-> transfer]) through `opsurrogate.cli.main`
several times, then a batch phase and a closed loop of single queries
through the public surrogate API, checks every output, and writes
result.json into the run directory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spec import LAYERS, SIZES, WORKLOADS  # noqa: E402
from tracing import Tracer  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PKG = "opsurrogate"

# offline passes run until this share of --seconds is used (at least two)
PIPELINE_SHARE = 0.6
P99_WINDOW = 1000         # queries per latency window; p99 has 10 samples beyond it
MIN_QUERIES = 3 * P99_WINDOW
MAX_TRACED_QUERIES = 20000  # bounds the spans a traced run keeps in memory
QUERY_INPUTS = 64         # distinct query inputs drawn from --seed
BATCH_SHARE = 0.1         # of --seconds, for the predict_batch passes
MIN_BATCH_PASSES = 5

RESIDUAL_TOL = 1e-8       # ||A u - f|| / ||f|| of stored Darcy solutions
RESIDUAL_SAMPLES = 4      # per generated elliptic dataset
QUERY_MATCH_TOL = 1e-12   # single query vs. the matching predict_batch row

# problem -> which side of -div(a grad u) = f the input function is
ELLIPTIC_INPUT = {"darcy_piecewise": "coefficient", "linear_elliptic": "forcing"}


class Pass(NamedTuple):
    """One pass of the offline pipeline."""
    times: dict          # step kind -> seconds, plus "wall"
    outputs: dict        # "eval"/"transfer" -> CSV row
    hashes: dict         # artifact directory -> sha256
    tracer: Tracer | None


class Checks:
    def __init__(self):
        self.rows = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.rows.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.rows if not ok)


# ---------------------------------------------------------------------------
# environment record

def _blas_build(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"


def blas_threads() -> dict:
    """Thread count of every loaded OpenBLAS that exports a query for it."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return {}
    out = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[os.path.basename(path)] = int(fn())
                    break
            if os.path.basename(path) in out:
                break
    return out


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _filesystem(path: Path) -> str:
    target = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                parts = line.split()
                mnt = parts[1]
                if (target == mnt or target.startswith(mnt.rstrip("/") + "/")) \
                        and len(mnt) > len(best):
                    best, fstype = mnt, parts[2]
    except OSError:
        pass
    return f"{fstype} ({best or '?'})"


def environment(np, scipy, artifact_dir: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_build(np),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": _git_sha(ROOT),
        "artifact_fs": _filesystem(artifact_dir),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# trace table: (module the caller looks the name up in, name, callee layer, hook)

def _bound(timed, args, kwargs) -> dict:
    bound = inspect.signature(timed).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _dir_bytes(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def trace_table(tr: Tracer, np):
    def operators(timed, *args, **kwargs):
        problem = _bound(timed, args, kwargs)["problem"]
        tr.sample("operators", hashlib.sha1(problem.a.values.tobytes()).hexdigest())
        return timed(*args, **kwargs)

    def cg_iterations(timed, *args, callback=None, **kwargs):
        iters = 0

        def counting(xk):
            nonlocal iters
            iters += 1
            if callback is not None:
                callback(xk)

        try:
            return timed(*args, callback=counting, **kwargs)
        finally:
            tr.sample("cg_iters", iters)

    def burgers_steps(timed, *args, **kwargs):
        out = timed(*args, **kwargs)
        a = _bound(timed, args, kwargs)
        u0 = np.atleast_2d(np.asarray(a["u0"], dtype=np.float64))
        umax = max(float(np.max(np.abs(u0))), 1e-8)
        # the solver's shared advective CFL step for the batch
        h = 1.0 / u0.shape[1]
        tr.count("burgers_steps", max(1, math.ceil(a["t_final"] * umax / (a["cfl_safety"] * h))))
        return out

    def bytes_read(timed, *args, **kwargs):
        tr.count("bytes_read", _dir_bytes(_bound(timed, args, kwargs)["directory"]))
        return timed(*args, **kwargs)

    def bytes_written(key):
        def hook(timed, *args, **kwargs):
            out = timed(*args, **kwargs)
            tr.count(key, _dir_bytes(_bound(timed, args, kwargs)["directory"]))
            return out
        return hook

    def gram_residual(timed, *args, **kwargs):
        moved, residual = timed(*args, **kwargs)
        tr.sample("gram_residual", float(residual))
        return moved, residual

    def train(timed, *args, **kwargs):
        a = _bound(timed, args, kwargs)
        metric = a.get("test_metric_fn")
        if metric is not None:
            a["test_metric_fn"] = tr.wrap(metric, "harness.test_metric", "harness")
        result = timed(**a)
        rejected = result.diagnostics.get("rejected", {})
        wasted = 0
        for message in rejected.values():
            # "epoch <k>: loss ... exceeded ..." -> epochs 0..k were run
            head = str(message).split(":", 1)[0].split()
            wasted += int(head[1]) + 1 if len(head) == 2 and head[1].isdigit() else 0
        tr.count("epochs_wasted", wasted)
        tr.count("lr_restarts", len(rejected))
        tr.count("epochs_run", len(result.train_loss) - 1 + wasted)
        return result

    def flops(timed, *args, **kwargs):
        a = _bound(timed, args, kwargs)
        rows = np.atleast_2d(a["x"]).shape[0]
        # forward + weight gradient per layer, plus the input gradient of
        # every layer but the first
        for i, w in enumerate(a["model"].weights):
            tr.count("grad_flops", 2.0 * rows * w.size * (3 if i else 2))
        return timed(*args, **kwargs)

    P = PKG + "."
    return [
        (P + "datasets", "generate_dataset", "datasets", None),
        (P + "datasets", "write_dataset", "datasets", bytes_written("bytes_written")),
        (P + "datasets", "read_dataset", "datasets", bytes_read),
        (P + "datasets", "sample_field", "random_fields", None),
        (P + "datasets", "solve_darcy", "solvers", operators),
        (P + "datasets", "solve_burgers_batch", "solvers", burgers_steps),
        (P + "solvers", "assemble_darcy_system", "solvers", None),
        (P + "solvers", "cg", "solvers", cg_iterations),
        (P + "harness", "fit_pca", "pca", None),
        (P + "harness", "transfer_basis", "pca", None),
        (P + "pca", "encode_batch", "pca", None),
        (P + "pca", "decode_batch", "pca", None),
        (P + "pca", "interpolate", "grid", None),
        (P + "pca", "subsample", "grid", None),
        (P + "surrogate", "encode_batch", "pca", None),
        (P + "surrogate", "decode_batch", "pca", None),
        (P + "harness", "fit_surrogate", "surrogate", None),
        (P + "harness", "relative_test_error", "surrogate", None),
        (P + "harness", "relative_errors", "surrogate", None),
        (P + "surrogate", "predict_batch", "surrogate", None),
        (P + "surrogate", "predict_function", "surrogate", None),
        (P + "surrogate", "train_mlp", "regressors", train),
        (P + "surrogate", "fit_linear", "regressors", None),
        (P + "surrogate", "predict", "regressors", None),
        (P + "regressors", "init_mlp", "regressors", None),
        (P + "regressors", "mlp_loss_and_grads", "regressors", flops),
        (P + "regressors", "mlp_loss", "regressors", None),
        (P + "regressors", "mlp_forward", "regressors", None),
        (P + "harness", "fit_from_dataset", "harness", None),
        (P + "harness", "save_surrogate", "harness", bytes_written("model_bytes")),
        (P + "harness", "load_surrogate", "harness", None),
        (P + "harness", "evaluate", "harness", None),
        (P + "harness", "transfer_surrogate", "harness", gram_residual),
    ]


# ---------------------------------------------------------------------------
# offline pipeline

def _csv_row(text: str) -> dict:
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows[-1] if rows else {}


def run_pipeline(cli, wl, size, out: Path, tracer: Tracer | None):
    """One pass of the CLI steps. Returns (times, outputs, failure). Each
    step is a root span; its run id is `<pass directory>/<step number>`."""
    out.mkdir(parents=True)
    times = {"generate": 0.0, "fit": 0.0, "eval": 0.0, "transfer": 0.0}
    outputs = {}
    t_start = time.perf_counter()
    for step, (kind, argv) in enumerate(wl.cli_steps(size, str(out))):
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(buf):
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    tracer.run = f"{out.name}/{step}"
                    rc = tracer.call(f"cli.{kind}", "cli", cli.main, argv)
        except (Exception, SystemExit):
            return times, outputs, f"{kind} {' '.join(argv)}:\n{traceback.format_exc()}"
        times[kind] += time.perf_counter() - t0
        if rc != 0:
            return times, outputs, f"{kind} exited with {rc}: {buf.getvalue()}"
        if kind in ("eval", "transfer"):
            outputs[kind] = _csv_row(buf.getvalue())
    times["wall"] = time.perf_counter() - t_start
    return times, outputs, None


def artifact_hashes(out: Path) -> dict:
    hashes = {}
    for entry in sorted(out.iterdir()):
        h = hashlib.sha256()
        for f in sorted(entry.iterdir()):
            h.update(f.name.encode() + b"\0")
            h.update(f.read_bytes())
        hashes[entry.name] = h.hexdigest()
    return hashes


# ---------------------------------------------------------------------------
# output checks

def check_datasets(mods, np, wl, out: Path, checks: Checks):
    datasets, grid, solvers = mods["datasets"], mods["grid"], mods["solvers"]
    for spec in wl.datasets:
        ds = datasets.read_dataset(str(out / spec.name))
        n = ds.resolution
        if wl.problem == "burgers":
            growth = np.linalg.norm(ds.ys, axis=1) / np.linalg.norm(ds.xs, axis=1)
            checks.add(f"burgers_l2_nonincreasing[{spec.name}]",
                       bool(np.all(growth <= 1.0 + 1e-12)),
                       f"max ||u(T)||/||u0|| = {growth.max():.6f} over {len(growth)} samples")
            continue
        side = ELLIPTIC_INPUT[wl.problem]
        if side == "forcing":
            a = datasets.fixed_coefficient(n, ds.config.cutoff)
        worst = 0.0
        picks = sorted({int(i) for i in np.linspace(0, len(ds.xs) - 1, RESIDUAL_SAMPLES)})
        for i in picks:
            if side == "coefficient":
                a, f = grid.GridFunction("box2d", n, ds.xs[i]), np.ones(n * n)
            else:
                f = ds.xs[i]
            A = solvers.assemble_darcy_system(a)
            b = f.reshape(n, n)[1:-1, 1:-1].reshape(-1)
            u = ds.ys[i].reshape(n, n)[1:-1, 1:-1].reshape(-1)
            worst = max(worst, float(np.linalg.norm(A @ u - b) / np.linalg.norm(b)))
        checks.add(f"darcy_residual[{spec.name}]", worst <= RESIDUAL_TOL,
                   f"max ||Au-f||/||f|| = {worst:.2e} over samples {picks} (<= {RESIDUAL_TOL:g})")


def check_reference(name: str, value: float, reference: dict, checks: Checks):
    ref = reference.get(name)
    if ref is None:
        checks.add(f"{name}_reference", False, "no reference recorded")
        return
    lo, hi = ref["value"] * (1 - ref["rel_tol"]), ref["value"] * (1 + ref["rel_tol"])
    checks.add(f"{name}_reference", lo <= value <= hi,
               f"{value:.6g} within [{lo:.6g}, {hi:.6g}] "
               f"(reference {ref['value']:g} +/- {ref['rel_tol']:.0%})")


# ---------------------------------------------------------------------------
# online phases

def batch_phase(surrogate, sur, xs, seconds: float):
    rates = []
    t_end = time.perf_counter() + seconds
    while len(rates) < MIN_BATCH_PASSES or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        surrogate.predict_batch(sur, xs)
        rates.append(xs.shape[0] / (time.perf_counter() - t0))
    return rates


def query_inputs(mods, test, seed: int) -> list:
    """QUERY_INPUTS fresh native-grid draws from the workload's input measure."""
    random_fields = mods["random_fields"]
    spec = test.config.measure()
    return [random_fields.sample_field(spec, test.resolution,
                                       random_fields.derive_seed(seed, i))
            for i in range(QUERY_INPUTS)]


def percentile(values, q: float) -> float:
    """Nearest-rank q-quantile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def query_phase(mods, np, sur, inputs, seed, deadline, tracer, checks):
    """Closed loop of single queries, each issued when the previous returns.

    Latencies are summarised per window of P99_WINDOW consecutive queries
    (the window's p50 and p99, which has 10 samples beyond it), so memory
    stays flat however many queries fit and a burst of outside noise moves
    one window rather than the result. Returns (window p50s, window p99s,
    failures, queries attempted)."""
    surrogate = mods["surrogate"]
    reference = surrogate.predict_batch(sur, np.stack([x.values for x in inputs]))
    order = np.random.default_rng(seed).permutation(len(inputs))
    window, p50s, p99s = [], [], []
    failures, worst, compared = 0, 0.0, set()
    limit = MAX_TRACED_QUERIES if tracer is not None else math.inf
    k = 0
    while k < MIN_QUERIES or (time.perf_counter() < deadline and k < limit):
        i = int(order[k % len(order)])
        if tracer is not None:
            tracer.run = f"q{k}"
        k += 1
        t0 = time.perf_counter()
        try:
            out = surrogate.predict_function(sur, inputs[i])
        except Exception:
            failures += 1
            traceback.print_exc()
            continue
        window.append(time.perf_counter() - t0)
        if len(window) == P99_WINDOW:
            p50s.append(percentile(window, 0.5))
            p99s.append(percentile(window, 0.99))
            window = []
        if i not in compared:
            compared.add(i)
            row = reference[i]
            err = float(np.max(np.abs(out.values - row)) / max(1.0, np.max(np.abs(row))))
            worst = max(worst, err)
    checks.add("query_matches_batch", worst <= QUERY_MATCH_TOL,
               f"max |single - batch| = {worst:.2e} over {len(compared)} distinct inputs "
               f"(<= {QUERY_MATCH_TOL:g})")
    return p50s, p99s, failures, k


# ---------------------------------------------------------------------------
# per-layer metrics

def query_metrics(tq: Tracer) -> dict:
    """Median cost per single query of each layer on the query path."""
    def per_query_us(values):
        return statistics.median(values) * 1e6 if values else 0.0

    return {
        "regressors.forward_us_per_query": per_query_us(tq.durations("regressors.predict")),
        "pca.encode_us_per_query": per_query_us(tq.durations("pca.encode_batch")),
        "pca.decode_us_per_query": per_query_us(tq.durations("pca.decode_batch")),
        "surrogate.query_self_us": per_query_us(tq.self_by_name("surrogate.predict_function")),
    }


def layer_metrics(tr: Tracer, wall: float) -> dict:
    """Per-layer metrics of one traced pass of the offline pipeline."""
    iters = tr.samples.get("cg_iters", [])
    grad_s = tr.total("regressors.mlp_loss_and_grads")
    m = {
        "random_fields.sample_s": tr.total("random_fields.sample_field"),
        "random_fields.samples": tr.calls("random_fields.sample_field"),
        "solvers.darcy_s": tr.total("solvers.solve_darcy"),
        "solvers.darcy_solves": tr.calls("solvers.solve_darcy"),
        "solvers.cg_iters_mean": statistics.fmean(iters) if iters else 0.0,
        "solvers.cg_iters_max": max(iters, default=0),
        "solvers.assemble_s": tr.total("solvers.assemble_darcy_system"),
        "solvers.distinct_operators": len(set(tr.samples.get("operators", []))),
        "solvers.burgers_s": tr.total("solvers.solve_burgers_batch"),
        "solvers.burgers_steps": tr.counters.get("burgers_steps", 0),
        "datasets.generate_self_s": sum(tr.self_by_name("datasets.generate_dataset")),
        "datasets.write_s": tr.total("datasets.write_dataset"),
        "datasets.read_s": tr.total("datasets.read_dataset"),
        "datasets.bytes_written": tr.counters.get("bytes_written", 0),
        "datasets.bytes_read": tr.counters.get("bytes_read", 0),
        "pca.fit_s": tr.total("pca.fit_pca"),
        "pca.encode_s": tr.total("pca.encode_batch"),
        "pca.decode_s": tr.total("pca.decode_batch"),
        "pca.transfer_s": tr.total("pca.transfer_basis"),
        "pca.transfer_gram_residual": max(tr.samples.get("gram_residual", []), default=0.0),
        "grid.interpolate_s": tr.total("grid.interpolate"),
        "regressors.train_s": tr.total("regressors.train_mlp"),
        "regressors.grad_s": grad_s,
        "regressors.grad_calls": tr.calls("regressors.mlp_loss_and_grads"),
        "regressors.loss_s": tr.total("regressors.mlp_loss"),
        "regressors.update_s": sum(tr.self_by_name("regressors.train_mlp")),
        "regressors.grad_gflop_per_s":
            tr.counters.get("grad_flops", 0) / grad_s / 1e9 if grad_s else 0.0,
        "regressors.epochs_run": tr.counters.get("epochs_run", 0),
        "regressors.epochs_wasted": tr.counters.get("epochs_wasted", 0),
        "regressors.lr_restarts": tr.counters.get("lr_restarts", 0),
        "regressors.fit_linear_s": tr.total("regressors.fit_linear"),
        "harness.save_s": tr.total("harness.save_surrogate"),
        "harness.load_s": tr.total("harness.load_surrogate"),
        "harness.model_bytes": tr.counters.get("model_bytes", 0),
    }
    by_layer = tr.self_by_layer()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - sum(by_layer.values())
    m["trace.missing_wraps"] = len(tr.missing)
    return m


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        print(f"error: {', '.join(unpinned)} must be 1 before numpy loads", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import scipy

    from opsurrogate import (cli, datasets, grid, harness, pca, random_fields,  # noqa: F401
                             regressors, solvers, surrogate)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    t_begin = time.perf_counter()

    mods = {"datasets": datasets, "grid": grid, "solvers": solvers,
            "surrogate": surrogate, "harness": harness, "random_fields": random_fields}
    wl = WORKLOADS[args.workload]
    run_dir = Path(args.run_dir)
    work = run_dir / "work"
    reference = json.loads((HERE / "reference.json").read_text())[wl.name][args.size]
    env = environment(np, scipy, run_dir)
    checks = Checks()
    checks.add("thread_env_pinned", all(env["thread_env"][v] == "1" for v in THREAD_VARS),
               str(env["thread_env"]))
    if env["blas_threads"]:
        checks.add("blas_threads_1", all(v == 1 for v in env["blas_threads"].values()),
                   str(env["blas_threads"]))
    notes = [] if env["blas_threads"] else [
        "BLAS thread count: cannot be checked (no OpenBLAS thread query found)"]

    # -- offline passes ----------------------------------------------------
    reps, traced_reps = [], []
    failed_ops = attempted_ops = 0
    steps_per_rep = len(wl.cli_steps(args.size, "."))
    budget = PIPELINE_SHARE * args.seconds
    failure = None
    while True:
        k = len(reps) + len(traced_reps)
        tracer = Tracer() if args.trace and k % 2 == 0 else None
        out = work / f"rep{k}"
        attempted_ops += steps_per_rep + wl.samples(args.size)
        if tracer is not None:
            with tracer:
                tracer.install(trace_table(tracer, np))
                times, outputs, failure = run_pipeline(cli, wl, args.size, out, tracer)
        else:
            times, outputs, failure = run_pipeline(cli, wl, args.size, out, None)
        if failure:
            failed_ops += steps_per_rep + wl.samples(args.size)
            print(f"pipeline failed: {failure}", file=sys.stderr)
            break
        done = Pass(times, outputs, artifact_hashes(out), tracer)
        (traced_reps if tracer is not None else reps).append(done)
        elapsed = time.perf_counter() - t_begin
        if len(reps) + len(traced_reps) >= 2 and (not args.trace or (reps and traced_reps)) \
                and elapsed + times["wall"] > budget:
            break

    result = {"workload": wl.name, "seed": args.seed, "size": args.size,
              "trace": args.trace, "env": env}
    e2e, layers, lines = {}, {}, list(notes)
    all_reps = reps + traced_reps
    query_failures = queries = 0
    if not failure:
        last = work / f"rep{len(all_reps) - 1}"
        check_datasets(mods, np, wl, last, checks)
        first = all_reps[0]
        checks.add("artifacts_identical_across_passes",
                   all(r.hashes == first.hashes for r in all_reps),
                   f"{len(all_reps)} passes")
        result["artifact_sha256"] = first.hashes
        rel_error = float(first.outputs["eval"]["relative_error"])
        check_reference("rel_test_error", rel_error, reference, checks)
        transfer_error = 0.0
        if wl.transfer:
            transfer_error = float(first.outputs["transfer"]["relative_error"])
            check_reference("rel_test_error_transfer", transfer_error, reference, checks)

        sur = harness.load_surrogate(str(last / "model"))
        test = datasets.read_dataset(str(last / wl.datasets[1].name))
        rates = batch_phase(surrogate, sur, test.xs, BATCH_SHARE * args.seconds)
        inputs = query_inputs(mods, test, args.seed)
        qtracer = Tracer() if args.trace else None
        if qtracer is not None:
            with qtracer:
                qtracer.install(trace_table(qtracer, np))
                p50s, p99s, query_failures, queries = query_phase(
                    mods, np, sur, inputs, args.seed, t_begin + args.seconds, qtracer, checks)
        else:
            p50s, p99s, query_failures, queries = query_phase(
                mods, np, sur, inputs, args.seed, t_begin + args.seconds, None, checks)
        attempted_ops += queries
        failed_ops += query_failures

        def med(key, runs):
            return statistics.median(r.times[key] for r in runs)

        timed_reps = reps or traced_reps
        e2e = {
            "wall_s": med("wall", timed_reps),
            "generate_s": med("generate", timed_reps),
            "fit_s": med("fit", timed_reps),
            "predict_p50_ms": statistics.median(p50s) * 1e3,
            "predict_p99_ms": statistics.median(p99s) * 1e3,
            "predict_batch_per_s": statistics.median(rates),
            "rel_test_error": rel_error,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        lines.append(f"passes: {len(reps)} untraced, {len(traced_reps)} traced; "
                     f"queries: {queries} closed-loop (1 client); p50 and p99 = medians "
                     f"over {len(p99s)} windows of {P99_WINDOW} queries of each window's "
                     f"p50 and p99 (10 samples beyond it); "
                     f"batch passes: {len(rates)} x {test.xs.shape[0]} rows")
        if wl.transfer:
            lines.append(f"rel_test_error_transfer = {transfer_error!r} "
                         f"(gram residual {first.outputs['transfer']['gram_residual']})")
        if args.trace:
            # one whole traced pass, the one with the median wall time, so that
            # its layer self times add up to its wall time
            median_pass = sorted(traced_reps, key=lambda r: r.times["wall"])[
                (len(traced_reps) - 1) // 2]
            layers = layer_metrics(median_pass.tracer, median_pass.times["wall"])
            layers.update(query_metrics(qtracer))
            layers["trace.overhead_s"] = (med("wall", traced_reps) - med("wall", reps)
                                          if reps else 0.0)
            layers["rel_test_error_transfer"] = transfer_error
            for name in traced_reps[0].tracer.missing:
                lines.append(f"missing wrap: {name}; its layer metrics read 0")
            with open(run_dir / "spans.jsonl", "w") as fh:
                for r in traced_reps:
                    r.tracer.write(fh)
                qtracer.write(fh)

    failed_ops += checks.failed
    attempted_ops += len(checks.rows)
    layers["failed_frac"] = failed_ops / attempted_ops
    result.update({"e2e": e2e, "layers": layers, "lines": lines,
                   "checks": checks.rows, "attempted": attempted_ops,
                   "failed": failed_ops, "correct": not failure and checks.failed == 0})
    (run_dir / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
