"""Command-line drivers: single runs, ensembles, rate sweeps, side-by-side
system comparisons on shared noise, and the verification suites.

    mirrorflow simulate --config scenario.cfg --out results/
    mirrorflow ensemble --config scenario.cfg
    mirrorflow rates    --config sweep.cfg
    mirrorflow compare  --config scenario.cfg
    mirrorflow verify [check ...]

Every run writes CSV data plus a manifest that pins the configuration hash,
step size, and per-trajectory seeds; rerunning from a manifest's
configuration reproduces the outputs bit for bit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import presets
from .analysis import (
    default_fit_window,
    ensemble,
    ensemble_to_csv,
    expected_value_bound,
    fit_indices,
    fit_rate_exponent,
)
from .config import (
    ScenarioConfig,
    alpha_r_token,
    build_spec,
    check_ensemble_size,
    emit_config,
    parse_config,
    with_overrides,
    write_manifest,
)
from .dynamics import AVERAGED_KINDS, record_grid, simulate, write_csv
from .errors import ConfigError, MirrorflowError
from .noise import NoiseStream
from .schedules import optimal_amd_exponents, optimal_smd_exponent
from .verify import CHECK_NAMES, Verifier


def _load_config(args) -> ScenarioConfig:
    cfg = parse_config(Path(args.config)) if args.config else ScenarioConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    return with_overrides(cfg, **overrides) if overrides else cfg


def _outdir(cfg: ScenarioConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _plot(args, path: Path, series, title: str, ylabel: str = "value") -> None:
    """With --plots, write the (label, times, values) series whose values
    are not None as an SVG line chart at path."""
    if args.plots:
        from .svg import line_chart

        line_chart(path, [s for s in series if s[2] is not None], title=title, ylabel=ylabel)


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    spec, cert = build_spec(cfg)
    out = _outdir(cfg)
    stream = NoiseStream(cfg.seed, 0) if spec.is_stochastic else None
    traj = simulate(
        spec, cert, t_end=cfg.t_end, h=cfg.h,
        record_stride=cfg.record_stride, stream=stream,
    )
    traj.to_csv(out / "trajectory_000.csv")
    (out / "scenario.cfg").write_text(emit_config(cfg))
    write_manifest(out / "manifest.txt", cfg, "simulate",
                   {"trajectories": 1, "f_star": repr(cert.f_star)}, streams=1)
    _plot(args, out / "trajectory_000.svg",
          [("gap", traj.times, traj.gap), ("energy", traj.times, traj.energy)],
          f"{cfg.system_kind} run")
    print(f"wrote {out / 'trajectory_000.csv'}")
    return 0


def cmd_ensemble(args) -> int:
    cfg = _load_config(args)
    check_ensemble_size(cfg)
    spec, cert = build_spec(cfg)
    out = _outdir(cfg)
    stats, trajs = ensemble(
        spec, cert, t_end=cfg.t_end, h=cfg.h, record_stride=cfg.record_stride,
        count=cfg.count, base_seed=cfg.seed,
    )
    gap_bound = None
    if spec.kind in AVERAGED_KINDS and trajs[0].has_energy:
        gap_bound = expected_value_bound(spec, cert, trajs[0].energy[0], stats.times.tolist())
    ensemble_to_csv(stats, out / "ensemble.csv", gap_bound=gap_bound)
    for i, traj in enumerate(trajs):
        traj.to_csv(out / f"trajectory_{i:03d}.csv")
    (out / "scenario.cfg").write_text(emit_config(cfg))
    write_manifest(out / "manifest.txt", cfg, "ensemble",
                   {"trajectories": cfg.count, "f_star": repr(cert.f_star)})
    _plot(args, out / "ensemble.svg",
          [("mean gap", stats.times, stats.mean_gap),
           ("mean energy", stats.times, stats.mean_energy)],
          f"{cfg.system_kind} ensemble (n={cfg.count})")
    print(f"wrote {out / 'ensemble.csv'} and {cfg.count} trajectory files")
    return 0


def _check_fit_window(cfg: ScenarioConfig) -> None:
    """Raise ShortFitWindow before any run when the recorded grid puts too
    few points inside the rate fit window."""
    _, times = record_grid(cfg.t0, cfg.t_end, cfg.h, cfg.record_stride)
    fit_indices(times, default_fit_window(cfg.t_end))


def _sweep_cells(cfg: ScenarioConfig):
    """Admit every sweep run before any runs: the validated run configs of
    each (alpha_sigma, alpha_s) cell, and why each rejected token was left out."""
    cells, skipped = [], []
    for alpha_sigma in cfg.sweep_alpha_sigma:
        for alpha_s in cfg.sweep_alpha_s:
            runs = []
            for token in cfg.sweep_alpha_r:
                relative, alpha_r = alpha_r_token(token)
                try:
                    if relative:
                        alpha_r += optimal_amd_exponents(alpha_sigma, alpha_s)
                    runs.append(with_overrides(cfg, system_kind="samd", alpha_r=alpha_r,
                                               alpha_s=alpha_s, alpha_sigma=alpha_sigma))
                except MirrorflowError as exc:
                    skipped.append(f"alpha_r={token}: {exc}")
            if runs:
                cells.append(runs)
    return cells, skipped


def cmd_rates(args) -> int:
    """Sweep noise and rate exponents; fit the decay of the mean gap per
    cell and flag the empirically best energy-weight exponent."""
    cfg = _load_config(args)
    check_ensemble_size(cfg)
    cells, skipped = _sweep_cells(cfg)
    if not cells:
        raise ConfigError("; ".join(["no admissible sweep cell", *dict.fromkeys(skipped)]))
    for reason in skipped:
        print(f"skip {reason}", file=sys.stderr)
    _check_fit_window(cfg)
    rows = []
    for runs in cells:
        cell = []
        for run_cfg in runs:
            alpha_sigma, alpha_s, alpha_r = run_cfg.alpha_sigma, run_cfg.alpha_s, run_cfg.alpha_r
            spec, cert = build_spec(run_cfg)
            stats, _ = ensemble(
                spec, cert, t_end=cfg.t_end, h=cfg.h,
                record_stride=cfg.record_stride, count=cfg.count,
                base_seed=cfg.seed,
            )
            fit = fit_rate_exponent(stats.times, stats.mean_gap, default_fit_window(cfg.t_end))
            bound_slope = max(alpha_s - alpha_r, alpha_r + 2.0 * alpha_sigma - alpha_s - 1.0)
            cell.append({
                "alpha_sigma": alpha_sigma, "alpha_s": alpha_s, "alpha_r": alpha_r,
                "slope": fit.slope, "stderr": fit.stderr,
                "predicted_slope": alpha_sigma - 0.5, "bound_slope": bound_slope,
            })
        best = min(cell, key=lambda r: r["slope"])
        for r in cell:
            r["best_in_cell"] = int(r is best)
        rows.extend(cell)
    header = ["alpha_sigma", "alpha_s", "alpha_r", "slope", "stderr",
              "predicted_slope", "bound_slope", "best_in_cell"]
    out = _outdir(cfg)
    path = out / "rates.csv"
    write_csv(path, header, [[r[k] for r in rows] for k in header])
    write_manifest(out / "manifest.txt", cfg, "rates", {"rows": len(rows)})
    for r in rows:
        flag = " (best)" if r["best_in_cell"] else ""
        print(
            f"alpha_sigma={r['alpha_sigma']:+.2f} alpha_s={r['alpha_s']:.2f} "
            f"alpha_r={r['alpha_r']:.2f}: slope={r['slope']:+.3f} "
            f"predicted={r['predicted_slope']:+.3f}{flag}"
        )
    print(f"wrote {path}")
    return 0


def cmd_compare(args) -> int:
    """Non-accelerated versus averaged stochastic runs on identical noise
    streams, each configured by its optimal exponent rule."""
    cfg = _load_config(args)
    check_ensemble_size(cfg)
    choice = optimal_smd_exponent(cfg.alpha_sigma)
    smd_cfg = with_overrides(cfg, system_kind="smd", alpha_s=choice.alpha_s)
    samd_cfg = with_overrides(
        cfg, system_kind="samd", alpha_s=choice.alpha_s, alpha_r="auto"
    )
    _check_fit_window(cfg)
    results, fits = {}, {}
    for label, run_cfg in (("smd", smd_cfg), ("samd", samd_cfg)):
        spec, cert = build_spec(run_cfg)
        stats, _ = ensemble(
            spec, cert, t_end=cfg.t_end, h=cfg.h, record_stride=cfg.record_stride,
            count=cfg.count, base_seed=cfg.seed,
        )
        results[label] = stats
        fits[label] = fit_rate_exponent(stats.times, stats.mean_gap,
                                        default_fit_window(cfg.t_end))
    out = _outdir(cfg)
    path = out / "compare.csv"
    smd, samd = results["smd"], results["samd"]
    write_csv(path, ["t", "mean_gap_smd", "std_gap_smd", "mean_gap_samd", "std_gap_samd"],
              [smd.times, smd.mean_gap, smd.std_gap, samd.mean_gap, samd.std_gap])
    write_manifest(out / "manifest.txt", cfg, "compare",
                   {"alpha_s": choice.alpha_s,
                    "predicted_rate_exponent": choice.rate_exponent})
    _plot(args, out / "compare.svg",
          [("smd mean gap", smd.times, smd.mean_gap),
           ("samd mean gap", samd.times, samd.mean_gap)],
          f"alpha_sigma = {cfg.alpha_sigma}", ylabel="gap")
    for label, fit in fits.items():
        print(f"{label}: fitted slope {fit.slope:+.3f} (stderr {fit.stderr:.3f})")
    print(f"wrote {path}")
    return 0


def cmd_verify(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ConfigError("seed must be >= 0")
    names = args.checks or None
    verifier = Verifier(
        base_seed=args.seed if args.seed is not None else presets.DEFAULT_BASE_SEED
    )
    results = verifier.run(names)
    for res in results:
        print(res.line())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report = out / "verify.txt"
        report.write_text("".join(res.line() + "\n" for res in results))
        print(f"wrote {report}")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorflow",
        description="Continuous-time mirror descent dynamics simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="path to a scenario file (flat key = value)")
        p.add_argument("--out", help="output directory (overrides the config)")
        p.add_argument("--seed", type=int, help="base seed override")
        p.add_argument("--plots", action="store_true",
                       help="also write self-contained SVG charts")

    p = sub.add_parser("simulate", help="one trajectory to CSV")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ensemble", help="seeded ensemble with statistics")
    add_common(p)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("rates", help="exponent sweep with fitted decay rates")
    add_common(p)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("compare", help="paired smd/samd ensembles on shared noise")
    add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="run named verification suites")
    p.add_argument("checks", nargs="*", metavar="check",
                   help=f"subset of: {', '.join(CHECK_NAMES)} (default: all)")
    p.add_argument("--out", help="also write the report to this directory")
    p.add_argument("--seed", type=int, help="base seed override")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MirrorflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
