"""Smoke test of the benchmark: every workload with a few small jobs on a
fixed seed, untimed, traced and repeated.

    python3 -m pytest benchmark/test_smoke.py -q

Checks the output schema against BENCHMARK.json, the correctness gate,
that the CLI reports hash the same in all three runs, the span tree of the
traced run (no orphans, no negative self time), and that the benchmark
refuses to run without the latfact sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SEED = 11
JOBS = 4
WORKLOADS = ("sp-presented", "finite-tables", "represent-usc")

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--jobs", str(JOBS)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_schema(result, metric_specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    units = {m["name"]: m["unit"] for m in metric_specs}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)), name
        assert metric["unit"] == units[name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload(workload):
    spec = bench_spec()
    digests = []
    for trace in (0, 1, 0):
        result = result_of(run(workload, trace))
        check_schema(result, spec["per_layer" if trace else "end_to_end"])
        assert result["correct"], result
        assert result["failed"] == 0
        saved = json.loads((OUT / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
        assert not saved["failures"] and not saved["problems"]
        digests.append(saved["digest"])
        if trace:
            spans = json.loads((ROOT / saved["spans_file"]).read_text())["spans"]
            assert spans
            assert tracer.check_span_tree([tuple(s) for s in spans]) == []
            assert all(s[6] >= 0 and s[5] is not None for s in spans)
            assert result["metrics"]["trace.covered_pct"]["value"] >= 90.0
    assert len(set(digests)) == 1, digests
    if workload != "finite-tables":
        assert digests[0] is not None


def test_refuses_without_sources():
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmark").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "benchmark")
    try:
        proc = run("sp-presented", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_benchmark_spec_matches_the_metrics():
    spec = bench_spec()
    assert spec["command"] == ["python3", "benchmark/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    layer_names = {m["name"] for m in spec["per_layer"]}
    for layer in [tracer.JOB, *tracer.LAYERS]:
        assert {f"{layer}.self_pct", f"{layer}.calls"} <= layer_names
