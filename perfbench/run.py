"""Benchmark of the opsurrogate pipeline: generate -> fit -> eval -> query.

    python3 perfbench/run.py --workload darcy_nn --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. Each run starts the workload in a fresh
single-process child interpreter with OMP/OPENBLAS/MKL_NUM_THREADS=1 set
before numpy loads, after a few set-up-only children that time interpreter
start, imports and BLAS load. The child drives the CLI and the public API,
checks the outputs, and the run prints one line per metric and, last, one
JSON object with the keys correct, attempted, failed and metrics. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones. The exit code
is nonzero if any operation or check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spec import END_TO_END, LAYERS, PER_LAYER, SIZES, WORKLOADS  # noqa: E402

SETUP_PROBES = 5
RUN_LIMIT_S = 170.0      # the whole run, probes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    # fixed string hashing, so set and dict layouts repeat from run to run
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


class Child:
    """child.py in its own interpreter, killed if it outlives `deadline`."""

    def __init__(self, args, run_dir: Path, deadline: float, setup_only: bool):
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size, "--run-dir", str(run_dir)]
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.PIPE, text=True)
        self.killer = threading.Timer(max(0.0, deadline - t0), self.proc.kill)
        self.killer.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            code = self.finish()
            raise RuntimeError(f"child did not become ready (exit code {code})")

    def finish(self) -> int:
        self.proc.stdout.read()
        code = self.proc.wait()
        self.killer.cancel()
        return code


def fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full",
                   help="smoke: tiny inputs for the benchmark's own tests")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "opsurrogate" / "cli.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    run_dir = HERE / "runs" / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                               f"{args.size}-{time.time_ns()}")
    run_dir.mkdir(parents=True)
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            probe = Child(args, run_dir, deadline, setup_only=True)
            probe.finish()
            setups.append(probe.setup_s)
        child = Child(args, run_dir, deadline, setup_only=False)
        setups.append(child.setup_s)
        code = child.finish()
        if code != 0 or not (run_dir / "result.json").is_file():
            raise RuntimeError(f"workload child exited with {code}")
        result = json.loads((run_dir / "result.json").read_text())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir / "work", ignore_errors=True)

    metrics = dict(result["e2e"], setup_s=statistics.median(setups))
    env = result["env"]
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace}: run directory {run_dir.relative_to(ROOT)}")
    print(f"env: nproc {env['nproc']} (allowed {env['cpus_allowed']}), python "
          f"{env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, git {env['git_sha']}")
    print(f"env: blas {env['blas']}; threads {env['blas_threads']}; "
          f"artifacts on {env['artifact_fs']}")
    for line in result["lines"]:
        print(line)
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    for name, ok, detail in result["checks"]:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for name, digest in result.get("artifact_sha256", {}).items():
        print(f"sha256 {name} {digest}")

    table, source = (PER_LAYER, result["layers"]) if args.trace else (END_TO_END, metrics)
    out = {}
    for name, unit, *_ in table:
        if name in source:
            out[name] = {"value": source[name], "unit": unit}
            print(f"{name} = {fmt(source[name])} {unit}")
    print(f"failed: {result['failed']} of {result['attempted']} solves, CLI steps, "
          f"queries and checks (failed_frac {result['failed'] / result['attempted']!r})")
    if args.trace:
        layers = result["layers"]
        total = sum(layers.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
        print(f"self times sum to {total:.4f} s of traced wall {layers.get('trace.wall_s', 0.0):.4f} s;"
              f" unattributed {layers.get('trace.unattributed_s', 0.0):.4f} s")
    correct = bool(result["correct"]) and len(out) == len(table)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))
    return 0 if correct and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
