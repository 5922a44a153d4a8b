"""Smoke test of the benchmark itself, at a tiny input size.

    python3 -m pytest bench/test_smoke.py

Runs every workload untraced and traced for one second each and checks
that every metric named in BENCHMARK.json is printed with its unit, that
traced and untraced passes print byte-identical stage stdout, that every
span's self time is >= 0, and that the benchmark refuses to run where the
package sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.fixture(scope="module")
def runs():
    """(workload, trace) -> (stdout lines, result record of the run)."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            work = ROOT / ".bench-work" / f"{workload}-seed{SEED}-trace{trace}-tiny"
            record = json.loads((work / "result.json").read_text())
            out[workload, trace] = (proc.stdout.splitlines(), record, work)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_with_unit(runs, workload, trace):
    lines, _, _ = runs[workload, trace]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    table = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
    for m in expected:
        assert table.get(m["name"]) == m["unit"], m["name"]
    for name in ("ops_total", "ops_failed"):
        assert table.get(name) == "count"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_stdout_identical_to_untraced(runs, workload):
    _, untraced, _ = runs[workload, 0]
    _, traced, _ = runs[workload, 1]
    # Within the traced run every pass is compared to its first, untraced
    # pass; across runs the stage stdout digests must agree too.
    assert traced["failed"] == 0
    assert traced["pass_walls_s"]["traced"]
    assert traced["stdout_sha256"] == untraced["stdout_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_nonnegative(runs, workload):
    _, _, work = runs[workload, 1]
    spans = [json.loads(line) for line in (work / "spans.jsonl").open()]
    assert spans
    assert all(s["self"] >= 0 for s in spans)
    steps = ("solver.weights", "solver.z_step", "solver.q_step", "solver.f_step",
             "solver.e_step")
    for solve in (s for s in spans if s["name"] == "solver.solve"):
        children = [s for s in spans if s["parent"] == solve["id"]]
        assert {c["name"] for c in children} <= set(steps)
        covered = sum(c["end"] - c["start"] for c in children)
        assert covered + solve["self"] == solve["end"] - solve["start"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
