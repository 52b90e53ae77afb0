"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spec import END_TO_END, HIGHER_IS_BETTER, PER_LAYER, WORKLOADS  # noqa: E402
from tracing import Span, Tracer, covered_length, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(root: Path, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def result_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_line(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    table = PER_LAYER if trace == "1" else END_TO_END
    assert list(result["metrics"]) == [row[0] for row in table]
    for name, unit, *_ in table:
        assert result["metrics"][name]["unit"] == unit
    if trace == "1":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["trace.missing_wraps"] == 0
        assert abs(m["trace.unattributed_s"]) < 0.05 * m["trace.wall_s"]


def test_self_time_arithmetic():
    # root [0, 10] with children [1, 4], [4, 6] and [8, 9]; the first child
    # has a grandchild [2, 3]
    spans = [
        Span(0, "cli.fit", "cli", 0.0, 10.0, None, "r"),
        Span(1, "pca.fit_pca", "pca", 1.0, 4.0, 0, "r"),
        Span(2, "grid.interpolate", "grid", 2.0, 3.0, 1, "r"),
        Span(3, "pca.encode_batch", "pca", 4.0, 6.0, 0, "r"),
        Span(4, "harness.save_surrogate", "harness", 8.0, 9.0, 0, "r"),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 4.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 1.0})
    tracer = Tracer()
    tracer.spans = spans
    by_layer = tracer.self_by_layer()
    assert by_layer == pytest.approx({"cli": 4.0, "pca": 4.0, "grid": 1.0, "harness": 1.0})
    # self times of a properly nested tree add up to the root's duration
    assert sum(by_layer.values()) == pytest.approx(spans[0].duration)
    # overlapping children are counted once; parts outside the parent are clipped
    assert covered_length([(1.0, 4.0), (3.0, 6.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert covered_length([(-1.0, 2.0), (5.0, 20.0)], 0.0, 10.0) == pytest.approx(7.0)


def test_tracer_reports_missing_names_and_restores_wraps():
    import tracing

    tracer = Tracer()
    original = tracing.covered_length
    with tracer:
        tracer.install([("tracing", "covered_length", "grid", None),
                        ("tracing", "no_such_function", "pca", None)])
        assert tracer.missing == ["tracing.no_such_function (pca)"]
        tracing.covered_length([(0.0, 1.0)], 0.0, 1.0)
    assert tracing.covered_length is original
    assert [s.name for s in tracer.spans] == ["grid.covered_length"]


def test_metric_names_units_and_benchmark_json_agree():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] \
        == [tuple(row) for row in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (n, u, "higher" if n in HIGHER_IS_BETTER else "lower") for n, u in PER_LAYER]
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in doc["end_to_end"])
    for w in doc["workloads"]:
        assert NAME.fullmatch(w["name"]) and len(w["why"]) <= 200 and "\n" not in w["why"]


def _copy_checkout(dest: Path, with_sources: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__", ".pytest_cache"))
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def test_broken_check_exits_nonzero(tmp_path):
    root = _copy_checkout(tmp_path)
    ref_path = root / "perfbench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    ref["burgers_small_nn"]["smoke"]["rel_test_error"]["value"] = 1e-6
    ref_path.write_text(json.dumps(ref))
    proc = run_bench(root, "--workload", "burgers_small_nn", "--seed", "3",
                     "--seconds", "1", "--size", "smoke")
    assert proc.returncode != 0
    result = result_line(proc)
    assert not result["correct"] and result["failed"] >= 1
    assert "check FAIL rel_test_error_reference" in proc.stdout


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    root = _copy_checkout(tmp_path, with_sources=False)
    proc = run_bench(root, "--workload", "elliptic_linear", "--seed", "0",
                     "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
