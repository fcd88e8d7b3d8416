"""Benchmark of the mirrorflow command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark writes the workload's seeded
inputs (perfbench/workloads.py), then repeats rounds for about S seconds. A
round is one set-up (import, parse and oracle solve: what every invocation
pays before its work) and one full CLI invocation, each in a fresh
interpreter, and it checks the invocation's outputs; every other round skips
the set-up, which leaves more of the run to the invocations. One untimed
set-up comes first, to fill the bytecode cache.

With --trace 0 the invocations carry only call-level work counters, and the
last line of stdout reports the end-to-end metrics. With --trace 1 traced and
untraced invocations alternate, and the last line reports the per-layer
metrics of the traced ones. The line before it holds the details: timing
samples, work counts, output digest and the machine.

Every invocation repeats the same seeded work, so its work counts and output
digest must equal the first invocation's; one that differs fails all its
operations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
PROBE = HERE / "probe.py"
CHILD_TIMEOUT_S = 150
MIN_SETUPS = {"full": 5, "tiny": 1}


class ChildFailed(RuntimeError):
    pass


def run_child(mode: str, argv: list[str], work: Path, trace: bool = False) -> dict:
    """Run probe.py in a fresh interpreter, wall-timed from spawn to exit.
    Returns its exit status, wall seconds, peak RSS, output and probe JSON."""
    result = work / f"{mode}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(PROBE), mode, str(result)] + ["--trace"] * trace + ["--"] + argv
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "status": proc.returncode,
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": (work / "stdout").read_text(errors="replace"),
        "stderr": (work / "stderr").read_text(errors="replace"),
        "data": json.loads(result.read_text()) if result.is_file() else None,
    }


def set_up(argv: list[str], work: Path) -> dict:
    """One set-up in a fresh interpreter; it must succeed and import
    mirrorflow from this checkout."""
    run = run_child("setup", argv, work)
    if run["status"] != 0 or run["data"] is None:
        raise ChildFailed(f"set-up failed (status {run['status']}):\n{run['stderr']}")
    if Path(run["data"]["mirrorflow"]) != SRC / "mirrorflow":
        raise ChildFailed(f"mirrorflow imported from {run['data']['mirrorflow']}, not {SRC}")
    return run


def measure(wl, argv: list[str], work: Path, seconds: float, trace: bool, min_setups: int):
    """Rounds of a set-up (every other round) and one CLI invocation for
    about `seconds` (and, when tracing, until one traced invocation has run);
    the CLI invocations alternate untraced and traced. Another round starts
    only if, at the median round length, it ends less than half a round past
    `seconds`, so that long rounds do not stretch the run. Interleaving
    spreads the set-up samples over the same stretch of time as the
    invocations; workloads with few long rounds get set-ups added at the end
    up to `min_setups`."""
    set_up(argv, work)  # untimed: fills the bytecode cache
    deadline = time.perf_counter() + seconds
    setups, runs, rounds = [], [], []
    while (not runs or time.perf_counter() + statistics.median(rounds) / 2 < deadline
           or (trace and len(runs) < 2)):
        start = time.perf_counter()
        if len(runs) % 2 == 0:
            setups.append(set_up(argv, work))
        traced = trace and len(runs) % 2 == 1
        shutil.rmtree(work / workloads.OUT_DIR, ignore_errors=True)
        run = run_child("cli", argv, work, traced)
        outcome = workloads.check_outputs(wl, work, run["status"], run["stdout"])
        data = run.pop("data") or {}
        run.update(traced=traced, outcome=outcome, spans=data.get("spans", []),
                   work=dict(data.get("counts", {}), csv_rows=outcome.csv_rows,
                             csv_bytes=outcome.csv_bytes))
        if runs and (run["work"], outcome.digest) != (runs[0]["work"], runs[0]["outcome"].digest):
            outcome.problems += ("work counts or output digest differ from the first invocation",)
            outcome.failed = outcome.attempted
        if outcome.problems or run["status"] != 0:
            print(f"invocation {len(runs)}: {'; '.join(outcome.problems[:5])}\n"
                  f"{run['stderr'][-2000:]}", file=sys.stderr)
        runs.append(run)
        rounds.append(time.perf_counter() - start)
    while len(setups) < min_setups:
        setups.append(set_up(argv, work))
    return setups, runs


def timing(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (None below eleven samples), and the sample count."""
    n = len(samples)
    out = {"median": statistics.median(samples), "n": n, "samples": samples}
    if n > 10:
        out["percentile"] = 100.0 * (n - 10) / n
        out["value_at_percentile"] = sorted(samples)[n - 11]
    else:
        out["percentile"] = out["value_at_percentile"] = None
    return out


def layer_metrics(spans: list, work: dict) -> dict:
    """Per-layer numbers of one traced invocation. Self time is a span's
    duration minus that of its direct children."""
    total, self_time, calls = defaultdict(float), defaultdict(float), Counter()
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, _) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child[i]
        calls[name] += 1

    def per(a, b, scale=1.0):
        return a * scale / b if b else 0.0

    csv_s = total["output.to_csv"] + total["output.ensemble_to_csv"]
    m = {
        "objectives.oracle_s": total["objectives.solve_minimizer"],
        "objectives.oracle_calls": work["oracle_calls"],
        "dynamics.simulate_calls": work["simulate_calls"],
        "dynamics.steps": work["steps"],
        "dynamics.kernel_s": self_time["dynamics.simulate"],
        "dynamics.us_per_step": per(self_time["dynamics.simulate"], work["steps"], 1e6),
        "dynamics.record_rows": work["record_rows"],
        "dynamics.energy_s": total["dynamics.energy_value"],
        "dynamics.us_per_record": per(total["dynamics.energy_value"], work["record_rows"], 1e6),
        "noise.draw_calls": calls["noise.standard_normals"],
        "noise.draws": work["noise_draws"],
        "noise.draw_s": total["noise.standard_normals"],
        "analysis.aggregate_s": self_time["analysis.ensemble"],
        "analysis.ensemble_bytes": work["ensemble_bytes"],
        "analysis.apt_s": total["analysis.apt_experiment"],
        "analysis.covariation_s": total["analysis.covariation_check"],
        "output.csv_s": csv_s,
        "output.csv_rows": work["csv_rows"],
        "output.csv_bytes": work["csv_bytes"],
        "output.mb_per_s": per(work["csv_bytes"], csv_s, 1e-6),
    }
    for check in workloads.QUICK_CHECKS:
        m[f"verify.{check}_s"] = total[f"verify.{check}"]
    return m


def machine(setup_data: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "platform": platform.platform(),
        "python": setup_data["python"],
        "numpy": setup_data["numpy"],
        "scipy": setup_data["scipy"],
        "commit": git_commit(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's git metadata, or None outside a git clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(MIN_SETUPS), default="full",
                        help="workload sizes; tiny is for the benchmark's smoke test")
    args = parser.parse_args(argv)
    table = workloads.workloads(args.size)
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
    if not (SRC / "mirrorflow" / "cli.py").is_file():
        print(f"no mirrorflow sources under {SRC}", file=sys.stderr)
        return 2
    wl = table[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = HERE / ".work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        argv = wl.write_inputs(work, args.seed)
        setups, runs = measure(wl, argv, work, args.seconds, bool(args.trace),
                               MIN_SETUPS[args.size])
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    attempted = sum(r["outcome"].attempted for r in runs)
    failed = sum(r["outcome"].failed for r in runs)
    work_done = runs[0]["work"]
    wall = timing([r["wall_s"] for r in plain])
    setup = timing([s["wall_s"] for s in setups])
    steps = work_done.get("steps", 0) + work_done.get("covariation_steps", 0)
    end_to_end = {
        "wall_s": wall["median"],
        "setup_s": setup["median"],
        "steps_per_s": steps / wall["median"],
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
    }
    values = end_to_end
    if args.trace:
        layers = [layer_metrics(r["spans"], r["work"]) for r in traced]
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        values["cli.import_s"] = statistics.median(s["data"]["import_s"] for s in setups)
        values["config.parse_s"] = statistics.median(s["data"]["parse_s"] for s in setups)
        values["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced) / wall["median"] - 1.0)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(json.dumps({
        "workload": wl.name, "why": wl.why, "seed": args.seed, "size": args.size,
        "trace": args.trace, "wall_s": wall, "setup_s": setup,
        "traced_wall_s": [r["wall_s"] for r in traced],
        "end_to_end": end_to_end, "failed_frac": failed / attempted,
        "work": work_done, "steps": steps, "digest": runs[0]["outcome"].digest,
        "problems": sorted({p for r in runs for p in r["outcome"].problems}),
        "machine": machine(setups[0]["data"]),
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
