"""The benchmark's own test: reduced-size runs of every workload.

Run from the root of the checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench(HERE.parent, "--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:  # the tracer sees exactly the points the inputs fix
        assert result["metrics"]["census.points_covered"]["value"] == report["report"]["points"]


@pytest.fixture(scope="module")
def workloads():
    run.load_package()
    import workloads

    return workloads


def test_wrong_golden_value_is_a_failed_op(workloads):
    ops = workloads.build("count-filter", 7, 1, smoke=True)
    wrong = dataclasses.replace(ops[0], expect="0")
    result = run.run_pass([wrong] + ops[1:])
    assert [f["op"] for f in result["failures"]] == [wrong.name]


def test_missing_refusal_is_a_failed_op(workloads):
    ops = workloads.build("count-filter", 7, 1, smoke=True)
    refused = ops[-1]
    assert refused.expect.startswith(workloads.CAP)
    unrefused = dataclasses.replace(
        refused,
        call=lambda: workloads.census.kac_polynomial(
            workloads.multi_loop_quiver(2), workloads.multi_loop_quiver(2).dim((1,))
        ),
    )
    assert run.run_pass([unrefused])["failures"][0]["got"] == {"2": "1"}


@pytest.mark.parametrize("workload", ["kac-census", "count-filter"])
def test_relabelling_changes_no_output(workloads, workload):
    digests = {run.run_pass(workloads.build(workload, seed, 1, smoke=True))["digest"] for seed in (1, 2)}
    assert len(digests) == 1


def test_outputs_match_across_worker_counts(workloads):
    one, two = (run.run_pass(workloads.build("count-filter", 7, w, smoke=True)) for w in (1, 2))
    assert one["digest"] == two["digest"] and not one["failures"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "kac-census", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
