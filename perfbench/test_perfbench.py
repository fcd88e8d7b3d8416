"""Smoke test of the benchmark at tiny sizes (about a minute):

    python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = workloads.workloads("tiny")


def bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return detail, result


def mirrorflow(wl, work: Path, seed: int = 5):
    argv = wl.write_inputs(work, seed)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "mirrorflow", *argv], cwd=work, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        wl.name: wl.why for wl in workloads.workloads().values()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_reported_with_its_unit(workload, trace):
    detail, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert detail["work"]["steps"] + detail["work"]["covariation_steps"] > 0
    assert len(detail["digest"]) == 64


def test_nonzero_exit_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-quick", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_corrupted_csv_fails_its_operation(tmp_path):
    wl = TINY["ensemble-samd"]
    status, stdout = mirrorflow(wl, tmp_path)
    clean = workloads.check_outputs(wl, tmp_path, status, stdout)
    assert (clean.attempted, clean.failed, clean.problems) == (4, 0, ())

    traj = tmp_path / workloads.OUT_DIR / "trajectory_001.csv"
    traj.write_bytes(traj.read_bytes()[:-20])
    truncated = workloads.check_outputs(wl, tmp_path, status, stdout)
    assert truncated.failed == 1 and truncated.digest != clean.digest

    summary = tmp_path / workloads.OUT_DIR / "ensemble.csv"
    summary.write_text(summary.read_text().replace(",", ",nan,", 1))
    assert workloads.check_outputs(wl, tmp_path, status, stdout).failed == 4


def test_flipped_verify_line_fails_its_check(tmp_path):
    wl = TINY["verify-quick"]
    status, stdout = mirrorflow(wl, tmp_path)
    clean = workloads.check_outputs(wl, tmp_path, status, stdout)
    assert (status, clean.attempted, clean.failed) == (0, 2, 0)

    flipped = stdout.replace("PASS", "FAIL", 1)
    assert workloads.check_outputs(wl, tmp_path, 1, flipped).failed == 1
    # a FAIL line with exit status 0, or a missing line, fails every check
    assert workloads.check_outputs(wl, tmp_path, 0, flipped).failed == 2
    dropped = "".join(stdout.splitlines(keepends=True)[1:])
    assert workloads.check_outputs(wl, tmp_path, 1, dropped).failed == 2
