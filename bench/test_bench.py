"""Tests of the benchmark itself: reduced-size runs and the correctness gates.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_run_emits_every_metric(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    for line in want:
        assert any(out.startswith(f"{line} = ") for out in proc.stdout.splitlines()), line


def _corrupt_catalog(wl):
    wl.expect["nonfiliform"].add((7, 65))          # g7^65 is (n-5)-filiform


def _corrupt_conjugate(wl):
    wl.expect["verdicts"][0] = False                # g7^65 is char. nilpotent


def _corrupt_tables(wl):
    wl.expect["weight_failing"].discard(49)         # printed row 49 is defective


@pytest.mark.parametrize("workload,corrupt", [
    ("catalog-check", _corrupt_catalog),
    ("conjugate-invariants", _corrupt_conjugate),
    ("paper-tables", _corrupt_tables),
])
def test_corrupted_expectation_drives_fail_ratio(workload, corrupt):
    wl = workloads.WORKLOADS[workload](3, small=True)
    assert run.measure(wl, 0).failed == 0
    corrupt(wl)
    result = run.measure(wl, 0)
    assert result.attempted >= 1
    assert result.failed / result.attempted > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("paper-tables", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_self_time_subtracts_children():
    t = tracing.Tracer(clock=None)
    t.spans = [
        ["outer", 0.0, 10.0, -1, 0, None],
        ["inner", 1.0, 3.0, 0, 0, None],
        ["inner", 4.0, 8.0, 0, 0, None],
        ["leaf", 5.0, 6.0, 2, 0, None],
    ]
    assert t.self_times() == [4.0, 2.0, 3.0, 1.0]


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (20, 30, 344, 3125):
        q = run.tail_percentile(n)
        ordered = list(range(n))
        beyond = sum(1 for x in ordered if x > run.percentile(ordered, q))
        assert beyond >= 10
        assert sum(1 for x in ordered if x > run.percentile(ordered, q + 1)) < 10
    assert run.tail_percentile(10) == 100
