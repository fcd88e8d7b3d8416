"""Child side of the benchmark: one mirrorflow phase in a fresh interpreter,
with what it measured written as JSON to OUT.

    python3 probe.py setup OUT -- ARGV...
        Import mirrorflow.cli, parse ARGV and the scenario, and finish
        build_spec with its oracle solve (for verify, the first certificate),
        timing each phase. This is the set-up every invocation pays.
    python3 probe.py cli OUT [--trace] -- ARGV...
        Run mirrorflow.cli.main(ARGV) and exit with its status. Call-level
        counters (a few hundred calls) record the work done; --trace also keeps
        a span for every call into each layer, per-step ones included.

mirrorflow must be importable (the benchmark puts the checkout's src/ first
on PYTHONPATH).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path


def setup(argv: list[str]) -> dict:
    t0 = time.perf_counter()
    import mirrorflow.cli as cli

    t1 = time.perf_counter()
    args = cli.build_parser().parse_args(argv)
    if args.command == "verify":
        from mirrorflow import presets
        from mirrorflow.maps import make_map

        t2 = time.perf_counter()
        presets.certificate_for(presets.default_sum_exp(), make_map("entropic-simplex", 3))
    else:
        from mirrorflow.config import build_spec, parse_config

        cfg = parse_config(Path(args.config))
        t2 = time.perf_counter()
        build_spec(cfg)
    t3 = time.perf_counter()

    import mirrorflow
    import numpy
    import scipy

    return {
        "import_s": t1 - t0,
        "parse_s": t2 - t1,
        "build_s": t3 - t2,
        "mirrorflow": str(Path(mirrorflow.__file__).resolve().parent),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Probe:
    """Work counters at call boundaries and, when tracing, spans kept in
    memory as [name, start, end, parent index] (parent -1 at the top)."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.counts = dict.fromkeys(
            ("simulate_calls", "steps", "covariation_steps", "record_rows",
             "noise_streams", "noise_draws", "oracle_calls", "ensemble_bytes"), 0)
        self.streams = []
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, after=None):
        """`fn` with a span named `name` (when tracing) and `after(result,
        bound arguments)` called once the span has closed."""
        if not self.trace and after is None:
            return fn
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.trace:
                index = len(spans)
                spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[index][2] = time.perf_counter()
            else:
                result = fn(*args, **kwargs)
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(result, bound.arguments)
            return result

        return wrapper

    def install(self) -> None:
        import mirrorflow.cli  # noqa: F401  (imports every layer)
        from mirrorflow import analysis, config, dynamics, noise, objectives, verify

        counts = self.counts

        def simulated(traj, a):
            counts["simulate_calls"] += 1
            counts["steps"] += dynamics.step_count(a["spec"].rates.t0, a["t_end"], a["h"])[0]
            counts["record_rows"] += traj.n_recorded

        def covaried(result, a):
            counts["covariation_steps"] += a["steps"]

        def solved(result, a):
            counts["oracle_calls"] += 1

        def ensembled(result, a):
            arrays = ("times", "x", "z", "gap", "energy", "b", "martingale")
            counts["ensemble_bytes"] += sum(
                getattr(tr, k).nbytes for tr in result[1] for k in arrays
                if getattr(tr, k) is not None)

        def stream_made(result, a):
            self.streams.append(a["self"])

        functions = [
            (config, "parse_config", "config.parse_config", None),
            (config, "build_spec", "config.build_spec", None),
            (objectives, "solve_minimizer", "objectives.solve_minimizer", solved),
            (dynamics, "simulate", "dynamics.simulate", simulated),
            (dynamics, "energy_value", "dynamics.energy_value", None),
            (analysis, "ensemble", "analysis.ensemble", ensembled),
            (analysis, "apt_experiment", "analysis.apt_experiment", None),
            (analysis, "covariation_check", "analysis.covariation_check", covaried),
            (analysis, "ensemble_to_csv", "output.ensemble_to_csv", None),
        ]
        for module, attr, name, after in functions:
            original = getattr(module, attr)
            wrapper = self.wrap(original, name, after)
            # `from .x import f` binds f in every importing module: rebind all
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").partition(".")[0] == "mirrorflow":
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

        methods = [
            (noise.NoiseStream, "__init__", "noise.NoiseStream", stream_made),
            (noise.NoiseStream, "standard_normals", "noise.standard_normals", None),
            (dynamics.Trajectory, "to_csv", "output.to_csv", None),
        ] + [
            (verify.Verifier, f"check_{check.replace('-', '_')}", f"verify.{check}", None)
            for check in verify.CHECK_NAMES
        ]
        for cls, attr, name, after in methods:
            setattr(cls, attr, self.wrap(getattr(cls, attr), name, after))

    def report(self) -> dict:
        self.counts["noise_streams"] = len(self.streams)
        self.counts["noise_draws"] = sum(s.position for s in self.streams)
        return {"counts": self.counts, "spans": self.spans}


def main() -> int:
    mode, out = sys.argv[1], Path(sys.argv[2])
    split = sys.argv.index("--")
    argv = sys.argv[split + 1:]
    if mode == "setup":
        out.write_text(json.dumps(setup(argv)))
        return 0
    probe = Probe(trace="--trace" in sys.argv[3:split])
    probe.install()
    import mirrorflow.cli

    status = mirrorflow.cli.main(argv)
    out.write_text(json.dumps(probe.report()))
    return status


if __name__ == "__main__":
    sys.exit(main())
