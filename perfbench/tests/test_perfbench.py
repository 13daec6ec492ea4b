"""The benchmark's own tests: tiny passes of every workload, both run kinds.

Run with ``python3 -m pytest -q perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  - first: it puts the program's src/ on sys.path
import harness  # noqa: E402
import ledger  # noqa: E402
from repro.obs.trace import read_trace, validate_trace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Operation-count scale of the tiny workloads (sizes of graphs unchanged).
TINY = 0.03


def _names(kind: str) -> set:
    return {metric["name"] for metric in SPEC[kind]}


def test_spec_lists_every_workload():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_untraced_pass(name, tmp_path):
    workload = WORKLOADS[name](3, scale=TINY)
    result, record = run.untraced_run(workload, 0.0, str(tmp_path))
    assert record["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _names("end_to_end")
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for metric, value in result["metrics"].items():
        assert value["value"] > 0, metric
        assert value["unit"] == units[metric]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_pass(name, tmp_path, monkeypatch):
    monkeypatch.setattr(ledger, "MAX_LAYER_QUERIES", 3)
    workload = WORKLOADS[name](3, scale=TINY)
    traces = tmp_path / "traces"
    result, record = ledger.traced_run(workload, 0.0, str(tmp_path), str(traces))
    assert record["errors"] == []
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == _names("per_layer")
    coverage = result["metrics"]["ledger.coverage"]["value"]
    assert 0.0 <= coverage <= 1.0 + 1e-9

    stem = traces / f"{workload.name}-seed3"
    program = read_trace(f"{stem}.program.jsonl")
    assert validate_trace(program) == []
    spans = [json.loads(line) for line in open(f"{stem}.harness.jsonl", encoding="utf-8")]
    assert spans and ledger.span_errors(spans) == []
    assert ledger.self_time_errors(spans) == []


def test_span_checks_catch_broken_spans():
    spans = [
        {"span": 0, "parent": None, "name": "call.submit", "call": 0, "start": 0.0, "end": 0.001},
        {"span": 1, "parent": 0, "name": "plan.compile", "call": 0, "start": 0.0, "end": 0.002},
        {"span": 2, "parent": 7, "name": "plan.evaluate", "call": 0, "start": 0.002, "end": 0.001},
    ]
    assert any("orphan" in e for e in ledger.span_errors(spans))
    assert any("negative" in e for e in ledger.span_errors(spans))
    assert any("exceed wall" in e for e in ledger.self_time_errors(spans))


@pytest.mark.parametrize("name", ["zipf-serve", "update-churn", "cold-compile"])
def test_shape_counts_repeat_for_a_seed(name, tmp_path):
    shapes = []
    for attempt in range(2):
        workload = WORKLOADS[name](5, scale=TINY)
        state = tmp_path / str(attempt)
        state.mkdir()
        shapes.append(harness.run_round(workload, str(state)).shape)
    assert shapes[0] == shapes[1]
    if name == "cold-compile":
        assert shapes[0]["plan.compiles"] > 0
    if name == "update-churn":
        assert shapes[0]["persist.wal_appends"] > 0


def test_workloads_are_a_function_of_the_seed():
    for build in WORKLOADS.values():
        first, again, other = build(7, scale=TINY), build(7, scale=TINY), build(8, scale=TINY)
        assert pickle.dumps(first.ops) == pickle.dumps(again.ops)
        assert pickle.dumps(first.ops) != pickle.dumps(other.ops)


def test_reference_check_catches_a_wrong_answer(tmp_path):
    workload = WORKLOADS["update-churn"](3, scale=TINY)
    answers = harness.run_round(workload, str(tmp_path)).answers
    assert harness.reference_mismatches(workload, answers) == []
    position = next(i for i, a in enumerate(answers) if isinstance(a, Fraction))
    answers[position] += Fraction(1, 10**12)
    assert harness.reference_mismatches(workload, answers)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "zipf-serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
