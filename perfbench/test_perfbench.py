"""Smoke test of the benchmark itself (about two minutes):

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs for a few ops.  The test checks that every metric of
BENCHMARK.json is printed with its unit, that the exact counts of two
traced runs with one seed are equal, that the per-op layer times add up,
and that a corrupted reference value makes the run fail.
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
sys.path.insert(0, str(HERE))

from spans import breakdown  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 5
EXACT_UNITS = ("count", "bytes")


def bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    facts = json.loads(lines[-2]) if len(lines) > 1 else None
    return proc, result, facts


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_and_correct(workload):
    proc, result, facts = bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(facts["env"]) >= {"commit", "python", "numpy", "scipy", "nproc",
                                 "loadavg_start", "loadavg_end", "load_exceeds_nproc"}
    assert len(facts["info"]["setup_samples_s"]) == 3
    assert len(facts["info"]["setup_wall_samples_s"]) == 3
    assert facts["info"]["probe_slowness_p50"] > 0 and facts["info"]["wall_latency_p50_ms"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_layers_add_up(workload):
    runs = [bench(workload, 1) for _ in range(2)]
    for proc, result, _ in runs:
        assert proc.returncode == 0, proc.stderr
        assert result["correct"]
        assert_metrics(result, BENCH["per_layer"])
    first, second = (r[1]["metrics"] for r in runs)
    exact = [k for k, m in first.items() if m["unit"] in EXACT_UNITS]
    assert "fock.apply_transform.terms_out" in exact
    assert {k: first[k]["value"] for k in exact} == {k: second[k]["value"] for k in exact}
    permanents = first["fock.permanent.calls"]["value"]
    assert (permanents > 0) == (workload == "oracle_verify")

    spans = json.loads((ROOT / runs[1][2]["info"]["spans"]).read_text())
    for name, start, end, parent, op, _ in spans:
        if parent is not None:
            p = spans[parent]
            assert p[1] <= start <= end <= p[2] and p[4] == op, name
    ops = breakdown(spans)
    assert ops
    for entry in ops.values():
        assert sum(entry["self_ns"].values()) + entry["untraced_ns"] == entry["op_ns"]


def copy_checkout(dest: Path) -> None:
    """The benchmark's files under ``dest``, without the package."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


@pytest.mark.parametrize("workload", ["cli_manifests", "sweep_dense"])
def test_corrupted_reference_fails_the_run(workload, tmp_path):
    copy_checkout(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    reference[workload]["hom"]["p_cc"]["points"][5] += 1e-6
    path.write_text(json.dumps(reference))
    proc, result, _ = bench(workload, 0, cwd=tmp_path)
    assert proc.returncode == 1
    assert not result["correct"] and result["failed"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    copy_checkout(tmp_path)
    proc, result, _ = bench("sweep_dense", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
