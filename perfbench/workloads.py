"""The benchmark's workloads: seeded inputs for one `mirrorflow` command
each, and the checks that decide whether an invocation's outputs are right.

Every workload is a single CLI invocation whose size does not depend on the
seed: the seed only picks the random streams. The seed can still move the
CSV byte count (the digits written) and the verify `apt` check's restart count.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

OUT_DIR = "out"
SCENARIO = "scenario.cfg"

TRAJECTORY_HEADER = (
    "t,x_1,x_2,x_3,z_1,z_2,z_3,gap,energy,b,martingale".split(",")
)
ENSEMBLE_HEADER = (
    "t,mean_gap,std_gap,stderr_gap,mean_energy,std_energy,gap_bound,b,envelope".split(",")
)
GAP_FLOOR = -1e-12


@dataclass(frozen=True)
class Workload:
    """One CLI invocation. `scenario` holds the scenario-file keys (the
    benchmark adds `seed`); verify workloads pass `--seed` instead."""

    name: str
    why: str
    command: str
    scenario: dict | None = None
    checks: tuple[str, ...] = ()

    def write_inputs(self, work: Path, seed: int) -> list[str]:
        """Write the seeded inputs into `work`; return the CLI arguments,
        relative to `work`, so that no output depends on where it lies."""
        if self.command == "verify":
            return ["verify", *self.checks, "--seed", str(seed)]
        lines = [f"{key} = {value}" for key, value in self.scenario.items()]
        lines.append(f"seed = {seed}")
        (work / SCENARIO).write_text("\n".join(lines) + "\n")
        return [self.command, "--config", SCENARIO, "--out", OUT_DIR]

    @property
    def trajectories(self) -> int:
        return int(self.scenario["ensemble.count"])

    @property
    def recorded_rows(self) -> int:
        """Rows per trajectory: every stride-th step plus the final state."""
        t0 = float(self.scenario.get("run.t0", 1.0))
        steps = round((float(self.scenario["run.t_end"]) - t0) / float(self.scenario["run.h"]))
        return math.ceil(steps / int(self.scenario["run.record_stride"])) + 1


@dataclass
class Outcome:
    """Checked outputs of one invocation. An operation is one trajectory's
    output (ensemble) or one check (verify)."""

    attempted: int
    failed: int
    digest: str
    csv_rows: int = 0
    csv_bytes: int = 0
    problems: tuple[str, ...] = ()


def _check_table(path: Path, header: list[str], rows: int, gap_column: str,
                 blank_ok=lambda row, column: False) -> tuple[str | None, int, int]:
    """(problem or None, data rows, bytes) for one CSV output: exact header
    and row count, every cell finite (blank only where `blank_ok`), and the
    gap column at or above GAP_FLOOR."""
    if not path.is_file():
        return f"{path.name}: missing", 0, 0
    text = path.read_text(encoding="utf-8")
    size = len(text.encode())
    if not text.endswith("\n"):
        return f"{path.name}: truncated", 0, size
    lines = text.split("\n")[:-1]
    if lines[0].split(",") != header:
        return f"{path.name}: header {lines[0]!r}", 0, size
    if len(lines) - 1 != rows:
        return f"{path.name}: {len(lines) - 1} rows, expected {rows}", len(lines) - 1, size
    gap_at = header.index(gap_column)
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != len(header):
            return f"{path.name}: row {i} has {len(cells)} cells", rows, size
        for column, cell in zip(header, cells):
            if cell == "" and blank_ok(i, column):
                continue
            try:
                value = float(cell)
            except ValueError:
                return f"{path.name}: row {i} {column} = {cell!r}", rows, size
            if not math.isfinite(value):
                return f"{path.name}: row {i} {column} not finite", rows, size
        if float(cells[gap_at]) < GAP_FLOOR:
            return f"{path.name}: row {i} gap below {GAP_FLOOR}", rows, size
    return None, rows, size


def _digest(parts) -> str:
    h = hashlib.sha256()
    for name, data in parts:
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def check_outputs(wl: Workload, work: Path, exit_code: int, stdout: str) -> Outcome:
    """Check one invocation's outputs; a failure that is not tied to one
    operation (exit status, aggregate file, manifest) fails all of them."""
    if wl.command == "verify":
        return _check_verify(wl, exit_code, stdout)
    out = work / OUT_DIR
    n = wl.trajectories
    names = [f"trajectory_{i:03d}.csv" for i in range(n)]
    problems, failed, csv_rows, csv_bytes = [], 0, 0, 0
    for name in names:
        problem, rows, size = _check_table(out / name, TRAJECTORY_HEADER, wl.recorded_rows, "gap")
        csv_rows, csv_bytes = csv_rows + rows, csv_bytes + size
        if problem:
            problems.append(problem)
            failed += 1
    whole = [] if exit_code == 0 else [f"exit status {exit_code}"]
    whole += [f"{name}: missing" for name in ("manifest.txt", SCENARIO)
              if not (out / name).is_file()]
    # b and the envelope start at t0, where the ensemble CSV leaves them blank
    problem, rows, size = _check_table(
        out / "ensemble.csv", ENSEMBLE_HEADER, wl.recorded_rows, "mean_gap",
        blank_ok=lambda row, column: row == 0 and column in ("b", "envelope"),
    )
    csv_rows, csv_bytes = csv_rows + rows, csv_bytes + size
    whole += [problem] if problem else []
    if whole:
        problems, failed = whole + problems, n
    files = sorted(p for p in out.iterdir() if p.is_file()) if out.is_dir() else []
    digest = _digest((p.name, p.read_bytes()) for p in files)
    return Outcome(n, failed, digest, csv_rows, csv_bytes, tuple(problems))


def _check_verify(wl: Workload, exit_code: int, stdout: str) -> Outcome:
    lines = stdout.splitlines()
    problems = []
    for i, check in enumerate(wl.checks):
        line = lines[i] if i < len(lines) else ""
        if not line.startswith(f"PASS {check}: "):
            problems.append(f"{check}: {line or 'no report line'}")
    failed = len(problems)
    # verify exits 1 exactly when a check fails; anything else fails every check
    if len(lines) != len(wl.checks) or (exit_code != 0) != (failed > 0) or exit_code not in (0, 1):
        problems.insert(0, f"exit status {exit_code} with {len(lines)} report lines")
        failed = len(wl.checks)
    digest = _digest([("stdout", stdout.encode())])
    return Outcome(len(wl.checks), failed, digest, problems=tuple(problems))


QUICK_CHECKS = (
    "mirror-algebra", "gradients", "deterministic-rate", "nesterov",
    "primal-averaging", "covariation", "apt", "determinism",
)

_SAMD = {
    "system.kind": "samd",
    "objective.kind": "sum-exp",
    "objective.source": "default",
    "mirror.kind": "entropic-simplex",
    "noise.kind": "scalar",
    "noise.sigma0": 0.1,
    "run.t0": 1.0,
    "run.h": 0.01,
    "run.record_stride": 10,
}
# Workload sizes: "full" is what the benchmark measures; "tiny" keeps the same
# shapes at a few hundred steps, for the benchmark's own smoke test.
_SIZES = {
    "full": {"samd": {"run.t_end": 5.0, "ensemble.count": 100}, "checks": QUICK_CHECKS},
    "tiny": {"samd": {"run.t_end": 1.5, "ensemble.count": 4},
             "checks": ("gradients", "determinism")},
}


def workloads(size: str = "full") -> dict[str, Workload]:
    s = _SIZES[size]
    wls = [
        Workload(
            "ensemble-samd",
            "100 independent noisy samd trajectories: the per-step kernel and the "
            "noise draws do most of the work, so batching the kernel or the draws moves it most",
            "ensemble", {**_SAMD, **s["samd"]},
        ),
        Workload(
            "verify-quick",
            "the eight verify checks without the large ensembles: maps and objectives in "
            "bulk, plus the covariation loop, the APT restarts and stride-1 averaging",
            "verify", checks=s["checks"],
        ),
    ]
    return {wl.name: wl for wl in wls}
