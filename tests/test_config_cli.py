import hashlib
import os
import subprocess
import sys
import time
import tomllib
from pathlib import Path

import numpy as np
import pytest

import mirrorflow
from mirrorflow.analysis import envelope
from mirrorflow.cli import main
from mirrorflow.config import (
    ScenarioConfig,
    build_rates,
    build_spec,
    config_digest,
    emit_config,
    parse_config,
    validate,
    with_overrides,
)
from mirrorflow.errors import ParseError, ValidationError
from mirrorflow.schedules import coupled_bundle, noise_integral
from mirrorflow.verify import CHECK_NAMES

MINIMAL = """
# a minimal stochastic scenario
system.kind = samd
rates.alpha_s = 0.5
rates.alpha_r = auto
noise.sigma0 = 0.1
run.t_end = 5.0
ensemble.count = 3
seed = 11
"""


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.system_kind == "samd"
        assert cfg.count == 3
        assert cfg.seed == 11
        assert cfg.mirror_kind == "entropic-simplex"
        assert cfg.h == 0.01

    def test_round_trip_identity(self):
        cfg = parse_config(MINIMAL)
        assert parse_config(emit_config(cfg)) == cfg
        # also stable under a second round trip
        assert parse_config(emit_config(parse_config(emit_config(cfg)))) == cfg
        assert config_digest(cfg) == config_digest(parse_config(emit_config(cfg)))

    @pytest.mark.parametrize("alpha_r, emitted", [("auto", "auto"), ("125e-2", "1.25")])
    def test_emitted_text_is_pinned(self, alpha_r, emitted):
        # every key set, most in a non-canonical spelling; manifests hash these bytes
        cfg = parse_config(
            "system.kind = samd\nobjective.kind = sum-exp\nobjective.source = inline\n"
            "objective.dim = 3\nobjective.c = 1 0.5 -0.2 ; 0 1 0 ; -1 0 1e0\n"
            f"mirror.kind = entropic-simplex\nrates.alpha_r = {alpha_r}\n"
            "rates.alpha_s = 0.5\nrates.eta = coupled\nrates.eta_coef = 2\n"
            "rates.eta_exponent = -0.25\nrates.r_coef = 1.5\nrates.beta = 3\n"
            "noise.kind = diagonal\nnoise.sigma0 = 1e-1\nnoise.alpha_sigma = -0.1\n"
            "run.t0 = 1\nrun.t_end = 20\nrun.h = 1e-3\nrun.record_stride = 007\n"
            "ensemble.count = 12\nseed = 42\nout = runs/all keys\n"
            "sweep.alpha_sigma = 0.2 0 -0.25\nsweep.alpha_s = 0.5 1\n"
            "sweep.alpha_r = auto-0.2 auto 1.5\n"
        )
        expected = (
            "system.kind = samd\nobjective.kind = sum-exp\nobjective.source = inline\n"
            "objective.dim = 3\nobjective.c = 1.0 0.5 -0.2 ; 0.0 1.0 0.0 ; -1.0 0.0 1.0\n"
            f"mirror.kind = entropic-simplex\nrates.alpha_r = {emitted}\n"
            "rates.alpha_s = 0.5\nrates.eta = coupled\nrates.eta_coef = 2.0\n"
            "rates.eta_exponent = -0.25\nrates.r_coef = 1.5\nrates.beta = 3.0\n"
            "noise.kind = diagonal\nnoise.sigma0 = 0.1\nnoise.alpha_sigma = -0.1\n"
            "run.t0 = 1.0\nrun.t_end = 20.0\nrun.h = 0.001\nrun.record_stride = 7\n"
            "ensemble.count = 12\nseed = 42\nout = runs/all keys\n"
            "sweep.alpha_sigma = 0.2 0.0 -0.25\nsweep.alpha_s = 0.5 1.0\n"
            "sweep.alpha_r = auto-0.2 auto 1.5\n"
        )
        assert emit_config(cfg) == expected
        assert config_digest(cfg) == hashlib.sha256(expected.encode()).hexdigest()

    def test_auto_alpha_r_resolution(self):
        cfg = parse_config(MINIMAL)
        assert cfg.alpha_r == "auto"
        assert cfg.resolved_alpha_r() == pytest.approx(1.0)
        cfg2 = with_overrides(cfg, alpha_sigma=0.2)
        assert cfg2.resolved_alpha_r() == pytest.approx(0.8)

    def test_inline_objective_matrix(self):
        text = MINIMAL + (
            "objective.source = inline\n"
            "objective.c = 1.0 0.5 -0.2 ; 0.0 1.0 0.0 ; -1.0 0.0 1.0\n"
        )
        cfg = parse_config(text)
        assert cfg.objective_c == [[1.0, 0.5, -0.2], [0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]
        spec, cert = build_spec(cfg)
        assert spec.objective.coefficients.shape == (3, 3)

    def test_unknown_key_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_config("system.kind = samd\nwhat.is = this\n")
        assert err.value.line == 2

    def test_path_is_read_and_str_is_text(self, tmp_path):
        folder = tmp_path / "a=1"
        folder.mkdir()
        path = folder / "s.cfg"
        path.write_text(MINIMAL)
        assert parse_config(path) == parse_config(MINIMAL)
        with pytest.raises(ParseError):
            parse_config(str(path))

    def test_bad_value_reports_line(self):
        with pytest.raises(ParseError):
            parse_config("run.h = fast\n")
        with pytest.raises(ParseError):
            parse_config("system.kind samd\n")


class TestValidation:
    def test_decreasing_sensitivity_message(self):
        with pytest.raises(ValidationError) as err:
            parse_config("rates.alpha_s = -0.5\n")
        assert any("non-decreasing" in v for v in err.value.violations)

    def test_learning_rate_domination_message(self):
        text = (
            "system.kind = samd\n"
            "rates.alpha_r = 2.0\n"
            "rates.eta = explicit\n"
            "rates.eta_coef = 1.0\n"
            "rates.eta_exponent = 0.0\n"
        )
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert any("dominate" in v for v in err.value.violations)

    def test_step_guard_message(self):
        text = "system.kind = samd\nrates.alpha_r = 3.0\nrun.h = 0.4\n"
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert any("convex combination" in v for v in err.value.violations)

    def test_deterministic_kind_with_noise_rejected(self):
        with pytest.raises(ValidationError) as err:
            parse_config("system.kind = amd\nnoise.sigma0 = 0.1\nrates.alpha_r = 1.0\n")
        assert any("deterministic" in v for v in err.value.violations)

    def test_overrides_are_validated(self):
        cfg = parse_config(MINIMAL)
        with pytest.raises(ValidationError, match="ensemble.count"):
            with_overrides(cfg, count=0)
        with pytest.raises(ValidationError, match="convex combination"):
            with_overrides(cfg, alpha_r=3.0, h=0.4)

    @pytest.mark.parametrize("out", ["runs#1", "runs\n1", "runs\r1", "runs\x851"])
    def test_out_must_survive_the_scenario_file(self, out):
        assert validate(ScenarioConfig(out=out)) == [
            "out must not contain '#' or a line break (the scenario file would read it "
            "back cut short)"
        ]

    @pytest.mark.parametrize("out", [" runs", "runs "])
    def test_out_must_not_be_stripped_by_the_scenario_file(self, out):
        assert validate(ScenarioConfig(out=out)) == [
            "out must not start or end with whitespace (the scenario file would read it "
            "back stripped)"
        ]

    def test_collects_multiple_violations(self):
        violations = validate(
            ScenarioConfig(system_kind="samd", alpha_s=-1.0, count=0, h=-1.0)
        )
        assert len(violations) >= 3


class TestBuildSpec:
    @pytest.mark.parametrize("alpha_r", [0.3, 0.8, 1.0, 1.2])
    def test_coupled_rates_equal_coupled_bundle(self, alpha_r):
        cfg = ScenarioConfig(system_kind="amd", alpha_r=alpha_r, alpha_s=0.4, t0=2.0)
        assert build_rates(cfg) == coupled_bundle(alpha_r, 0.4, t0=2.0)

    def test_default_samd(self):
        cfg = parse_config(MINIMAL)
        spec, cert = build_spec(cfg)
        assert spec.kind == "samd"
        assert spec.rates.r.exponent == pytest.approx(1.0)
        assert not cert.boundary

    def test_nesterov_requires_euclidean(self):
        with pytest.raises(ValidationError):
            parse_config("system.kind = nesterov\nnoise.sigma0 = 0.0\n")
        cfg = parse_config(
            "system.kind = nesterov\nmirror.kind = euclidean\n"
            "objective.kind = rank1-quadratic\nnoise.kind = zero\nnoise.sigma0 = 0.0\n"
        )
        spec, _ = build_spec(cfg)
        assert spec.kind == "nesterov"
        assert spec.beta == 2.0

    def test_inline_rank1_is_the_one_row_of_objective_c(self):
        cfg = parse_config("objective.kind = rank1-quadratic\nobjective.source = inline\n"
                           "objective.dim = 3\nobjective.c = 1 2 0\n")
        spec, _ = build_spec(cfg)
        assert spec.objective.kind == "rank1-quadratic"
        assert spec.objective.c.tolist() == [1.0, 2.0, 0.0]


@pytest.fixture()
def quick_cfg(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(MINIMAL + f"out = {tmp_path / 'run'}\nrun.record_stride = 5\n")
    return path


class TestCli:
    def test_simulate_writes_csv_and_manifest(self, quick_cfg, tmp_path):
        assert main(["simulate", "--config", str(quick_cfg)]) == 0
        out = tmp_path / "run"
        csv = out / "trajectory_000.csv"
        header = csv.read_text().splitlines()[0]
        assert header == "t,x_1,x_2,x_3,z_1,z_2,z_3,gap,energy,b,martingale"
        data = np.loadtxt(csv, delimiter=",", skiprows=1)
        assert np.all(np.diff(data[:, 0]) > 0)
        manifest = (out / "manifest.txt").read_text()
        assert "config_sha256" in manifest
        assert "base_seed = 11" in manifest

    def test_simulate_manifest_lists_the_one_stream_it_uses(self, quick_cfg, tmp_path):
        # ensemble.count = 3, but simulate runs stream (seed, 0) alone
        assert main(["simulate", "--config", str(quick_cfg)]) == 0
        lines = (tmp_path / "run" / "manifest.txt").read_text().splitlines()
        assert "trajectory_seeds = 11:0" in lines
        assert "trajectories = 1" in lines
        assert main(["ensemble", "--config", str(quick_cfg)]) == 0
        lines = (tmp_path / "run" / "manifest.txt").read_text().splitlines()
        assert "trajectory_seeds = 11:0 11:1 11:2" in lines

    def test_explicit_learning_rate_has_no_coupling_round_off(self, tmp_path):
        # a = eta / r = t^-0.8 and a * r has exponent -0.6000000000000001, not
        # -0.6; eta = t^-0.6 >= r' = 0.2 t^-0.8 on [1, 50], so the run is admissible
        cfg = tmp_path / "explicit.cfg"
        cfg.write_text(
            "system.kind = amd\nnoise.kind = zero\nnoise.sigma0 = 0.0\n"
            "rates.eta = explicit\nrates.eta_exponent = -0.6\nrates.alpha_r = 0.2\n"
            f"run.t_end = 50\nout = {tmp_path / 'run'}\n"
        )
        assert validate(parse_config(cfg)) == []
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = np.loadtxt(tmp_path / "run" / "trajectory_000.csv", delimiter=",", skiprows=1)
        assert data[-1, 0] == 50.0 and np.all(np.isfinite(data))

    def test_simulate_one_exact_step_below_its_rounded_span(self, tmp_path):
        # 1.005 - 1.0 rounds below run.h = 0.005, yet the span is one step
        cfg = tmp_path / "one.cfg"
        cfg.write_text(MINIMAL + f"run.t0 = 1.0\nrun.t_end = 1.005\nrun.h = 0.005\n"
                                 f"out = {tmp_path / 'run'}\n")
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = np.loadtxt(tmp_path / "run" / "trajectory_000.csv", delimiter=",", skiprows=1)
        assert data[:, 0].tolist() == [1.0, 1.0 + 0.005]

    def test_ensemble_outputs_and_determinism(self, quick_cfg, tmp_path):
        assert main(["ensemble", "--config", str(quick_cfg)]) == 0
        out = tmp_path / "run"
        first = (out / "ensemble.csv").read_bytes()
        header = first.decode().splitlines()[0]
        assert header == (
            "t,mean_gap,std_gap,stderr_gap,mean_energy,std_energy,gap_bound,b,envelope"
        )
        assert (out / "trajectory_002.csv").exists()
        # bit-identical rerun from the same manifest inputs
        assert main(["ensemble", "--config", str(quick_cfg)]) == 0
        assert (out / "ensemble.csv").read_bytes() == first

    def test_seed_override_changes_output(self, quick_cfg, tmp_path):
        main(["ensemble", "--config", str(quick_cfg)])
        baseline = (tmp_path / "run" / "ensemble.csv").read_bytes()
        main(["ensemble", "--config", str(quick_cfg), "--seed", "99"])
        assert (tmp_path / "run" / "ensemble.csv").read_bytes() != baseline

    def test_zero_noise_std_columns_zero(self, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(
            "system.kind = samd\nnoise.sigma0 = 0.0\nnoise.kind = zero\n"
            "run.t_end = 3.0\nensemble.count = 3\n"
            f"out = {tmp_path / 'zero_run'}\n"
        )
        assert main(["ensemble", "--config", str(cfg)]) == 0
        data = np.loadtxt(
            tmp_path / "zero_run" / "ensemble.csv", delimiter=",", skiprows=1,
            usecols=(2,),
        )
        np.testing.assert_array_equal(data, np.zeros_like(data))

    def test_state_scaled_ensemble_reports_its_noise_envelope(self, tmp_path):
        cfg = tmp_path / "scaled.cfg"
        cfg.write_text(MINIMAL + "noise.kind = state-scaled\nrun.t_end = 3.0\n"
                       f"out = {tmp_path / 'run'}\n")
        assert main(["ensemble", "--config", str(cfg)]) == 0
        rows = (tmp_path / "run" / "ensemble.csv").read_text().splitlines()[2:]
        cells = [tuple(float(row.split(",")[i]) for i in (0, 7, 8)) for row in rows]
        assert cells and all(b > 0.0 for _, b, _ in cells)
        spec, _ = build_spec(parse_config(cfg))
        power = spec.noise.sigma_star_power()
        for t, b, env in cells:
            assert b == noise_integral(spec.rates.eta, power, spec.rates.t0, t)
            assert env == envelope(b)

    def test_ensemble_and_trajectory_csvs_carry_one_b(self, tmp_path):
        # eta = t^0 and sigma* = 0.1 t^0.25: a growing integrand, which a
        # per-step sum of it would miss
        cfg = tmp_path / "growing.cfg"
        cfg.write_text(MINIMAL.replace("rates.alpha_r = auto", "rates.alpha_r = 1.0")
                       + "noise.alpha_sigma = 0.25\n" + f"out = {tmp_path / 'run'}\n")
        assert main(["ensemble", "--config", str(cfg)]) == 0

        def b_cells(name):
            lines = (tmp_path / "run" / name).read_text().splitlines()
            column = lines[0].split(",").index("b")
            return [line.split(",")[column] for line in lines[1:]]

        ensemble_b, trajectory_b = b_cells("ensemble.csv"), b_cells("trajectory_000.csv")
        assert ensemble_b[0] == "" and trajectory_b[0] == "0.0"
        assert len(ensemble_b) == len(trajectory_b) > 2
        assert ensemble_b[1:] == trajectory_b[1:]

    def test_cli_import_loads_no_scipy(self):
        src = str(Path(mirrorflow.__file__).resolve().parents[1])
        code = ("import sys, mirrorflow.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert proc.stdout == "[]\n"

    def test_package_import_loads_no_submodule(self):
        # the package exports only __version__; callers import submodules
        src = Path(mirrorflow.__file__).resolve().parents[1]
        code = ("import sys, mirrorflow; "
                "print(sorted(m for m in sys.modules if m.startswith('mirrorflow.'))); "
                "print(mirrorflow.__version__)")
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, check=True)
        project = tomllib.loads((src.parent / "pyproject.toml").read_text())["project"]
        assert proc.stdout.splitlines() == ["[]", project["version"]]

    def test_diverging_run_is_one_error_line(self, tmp_path):
        # explicit Euler at h = 0.5 on the sum-exp objective overflows; the
        # finiteness check names it, and numpy prints no warning of its own
        cfg = tmp_path / "diverging.cfg"
        cfg.write_text("system.kind = md\nmirror.kind = euclidean\nnoise.kind = zero\n"
                       "rates.alpha_s = 0.0\nrun.h = 0.5\nrun.t_end = 60\n"
                       f"out = {tmp_path / 'run'}\n")
        src = str(Path(mirrorflow.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "mirrorflow", "simulate", "--config", str(cfg)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: x became non-finite at step 4; the last finite state is at t = 3"
        ]

    def test_overflowing_objective_is_one_error_line(self, tmp_path):
        # exp(1e300 / 2) overflows at the oracle's first residual check,
        # which stops there, before any output is written
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text("objective.source = inline\nobjective.dim = 2\nobjective.c = 1e300 0\n"
                       f"out = {tmp_path / 'run'}\n")
        src = str(Path(mirrorflow.__file__).resolve().parents[1])
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "mirrorflow", "simulate", "--config", str(cfg)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
        assert time.perf_counter() - start < 2.0
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: oracle iterate or residual not finite after 0 steps"
        ]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, lines", [
        ("compare", ""),
        ("rates", "sweep.alpha_sigma = 0.0\nsweep.alpha_s = 0.5\nsweep.alpha_r = auto\n"),
    ])
    def test_short_fit_window_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                command, lines):
        def never(*args, **kwargs):
            raise AssertionError("an ensemble ran before the fit window was checked")

        monkeypatch.setattr("mirrorflow.cli.ensemble", never)
        cfg = tmp_path / "short.cfg"
        cfg.write_text(MINIMAL + lines + "run.t_end = 1.5\nensemble.count = 2\n"
                       f"out = {tmp_path / 'run'}\n")
        assert main([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: rate fit window [0.15, 1.5] holds 6 distinct recorded times, fewer than 10"
        ]
        assert not (tmp_path / "run").exists()

    def test_plots_flag_writes_svg(self, quick_cfg, tmp_path):
        assert main(["simulate", "--config", str(quick_cfg), "--plots"]) == 0
        svg = (tmp_path / "run" / "trajectory_000.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_compare_runs_and_writes_pairing(self, tmp_path):
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(
            "noise.sigma0 = 0.1\nnoise.alpha_sigma = 0.0\nrun.t_end = 10.0\n"
            f"ensemble.count = 4\nseed = 3\nout = {tmp_path / 'cmp'}\n"
        )
        assert main(["compare", "--config", str(cfg)]) == 0
        lines = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
        assert lines[0] == "t,mean_gap_smd,std_gap_smd,mean_gap_samd,std_gap_samd"
        assert len(lines) > 10

    def test_rates_sweep_single_cell(self, tmp_path):
        cfg = tmp_path / "rates.cfg"
        cfg.write_text(
            "run.t_end = 10.0\nensemble.count = 3\nseed = 5\n"
            "sweep.alpha_sigma = 0.0\nsweep.alpha_s = 0.5\nsweep.alpha_r = auto\n"
            f"out = {tmp_path / 'sweep'}\n"
        )
        assert main(["rates", "--config", str(cfg)]) == 0
        lines = (tmp_path / "sweep" / "rates.csv").read_text().splitlines()
        assert lines[0].startswith("alpha_sigma,alpha_s,alpha_r,slope")
        assert len(lines) == 2
        assert lines[1].endswith(",1")  # single entry is best in its cell

    def test_verify_subcommand_exit_codes(self, capsys):
        assert main(["verify", "gradients"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS gradients")
        with pytest.raises(SystemExit):
            main(["verify", "--bogus-flag"])

    def test_verify_unknown_check(self, capsys):
        assert main(["verify", "not-a-check"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "configuration error: unknown check 'not-a-check'; valid checks: "
            + ", ".join(CHECK_NAMES)
        ]

    def test_verify_negative_seed_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a check ran before the seed was checked")

        monkeypatch.setattr("mirrorflow.cli.Verifier", never)
        assert main(["verify", "--seed", "-1", "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.splitlines() == ["configuration error: seed must be >= 0"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("line, key", [
        ("run.h = nan", "run.h"),
        ("run.t_end = inf", "run.t_end"),
        ("rates.alpha_s = nan", "rates.alpha_s"),
        ("noise.sigma0 = nan", "noise.sigma0"),
    ])
    def test_nonfinite_number_is_a_configuration_error(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MINIMAL + f"{line}\nout = {tmp_path / 'run'}\n")
        assert main(["ensemble", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"configuration error: {key} must be finite, not NaN or infinity"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("lines, flags, message", [
        ("rates.eta = coupld", [],
         "rates.eta must be one of ('coupled', 'explicit'), got 'coupld'"),
        ("rates.r_coef = 0.0", [], "rates.r_coef must be positive"),
        ("rates.eta = explicit\nrates.eta_coef = -1.0", [], "rates.eta_coef must be positive"),
        ("objective.dim = 0", [], "objective.dim must be >= 1"),
        ("seed = -1", [], "seed must be >= 0"),
        ("", ["--seed", "-1"], "seed must be >= 0"),
        ("sweep.alpha_r = auto bogus", [],
         "sweep.alpha_r tokens must be auto, auto+x, auto-x or a number, got 'bogus'"),
        ("", ["--out", "runs#1"],
         "out must not contain '#' or a line break (the scenario file would read it back "
         "cut short)"),
        ("system.kind = md\nnoise.sigma0 = 0.0\nrun.t_end = 5.0\nrun.h = 1e-320", [],
         "run.h = 1e-320 is too small: (run.t_end - run.t0) / run.h overflows"),
        ("system.kind = md\nnoise.sigma0 = 0.0\nrun.t_end = 5.0\nrun.h = 1e-300", [],
         "run.h = 1e-300 is too small: 4e+300 steps exceed the cap of 1e+09"),
        ("system.kind = md\nnoise.sigma0 = 0.0\nrun.t_end = 5.0\nrun.h = 1e-12", [],
         "run.h = 1e-12 is too small: 4e+12 steps exceed the cap of 1e+09"),
        ("system.kind = md\nnoise.sigma0 = 0.0\nrun.t_end = 5.0\nrun.h = 1e-8", [],
         "run.h = 1e-08 is too small: 40000001 recorded rows of 3 coordinates take 3.28 GiB, "
         "more than the cap of 1 GiB"),
        # power laws that overflow or underflow in the run's floating-point arithmetic
        ("rates.alpha_r = 400\nrun.t_end = 10.0", [],
         "eta^2 leaves the floating-point range at t = 10; set by rates.r_coef, rates.alpha_r, "
         "run.t_end"),
        ("rates.r_coef = 1e-170", [],
         "eta^2 leaves the floating-point range at t = 1; set by rates.r_coef, rates.alpha_r, "
         "rates.alpha_s, noise.alpha_sigma"),
        ("system.kind = smd\nnoise.alpha_sigma = 2000", [],
         "sigma*^2 leaves the floating-point range at t = 5; set by noise.sigma0, "
         "noise.alpha_sigma, run.t_end"),
        ("objective.kind = rank1-quadratic\nobjective.source = inline\nobjective.dim = 3\n"
         "objective.c = 1 0 0 ; 0 1 0 ; 0 0 1", [],
         "objective.c must have one row for objective.kind = rank1-quadratic, got 3 rows"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "rates"])
    def test_bad_input_is_named_by_key(self, tmp_path, capsys, command, lines, flags, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MINIMAL + f"{lines}\nout = {tmp_path / 'run'}\n")
        assert main([command, "--config", str(cfg), *flags]) == 2
        assert capsys.readouterr().err.splitlines() == [f"configuration error: {message}"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["ensemble", "rates", "compare"])
    def test_oversized_ensemble_is_named_by_count(self, tmp_path, capsys, monkeypatch,
                                                  command):
        def never(*args, **kwargs):
            raise AssertionError("an ensemble ran before its size was checked")

        monkeypatch.setattr("mirrorflow.cli.ensemble", never)
        cfg = tmp_path / "big.cfg"
        cfg.write_text("system.kind = samd\nrun.t_end = 5.0\nrun.h = 1e-6\n"
                       f"ensemble.count = 1000\nout = {tmp_path / 'run'}\n")
        # one run fits its caps, so simulate still accepts the scenario
        assert validate(parse_config(cfg)) == []
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: ensemble.count = 1000 is too large: 1000 runs of 400001 "
            "recorded rows of 3 coordinates take 32.8 GiB, more than the cap of 1 GiB"
        ]
        assert not (tmp_path / "run").exists()

    def test_rates_skips_an_inadmissible_cell(self, tmp_path, capsys):
        cfg = tmp_path / "rates.cfg"
        cfg.write_text(
            "run.t_end = 10.0\nensemble.count = 3\nseed = 5\n"
            "sweep.alpha_sigma = 0.0\nsweep.alpha_s = 0.5\nsweep.alpha_r = auto auto-2.0\n"
            f"out = {tmp_path / 'sweep'}\n"
        )
        assert main(["rates", "--config", str(cfg)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["skip alpha_r=auto-2.0: rates.alpha_r must be positive"]
        assert len((tmp_path / "sweep" / "rates.csv").read_text().splitlines()) == 2

    def test_rates_without_an_admissible_cell(self, tmp_path, capsys):
        cfg = tmp_path / "rates.cfg"
        cfg.write_text(MINIMAL + "rates.eta = explicit\nsweep.alpha_r = 2.0\n"
                       f"out = {tmp_path / 'sweep'}\n")
        assert main(["rates", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "configuration error: no admissible sweep cell; alpha_r=2.0: learning rate "
            "dominates energy-weight derivative"
        )
        assert not (tmp_path / "sweep").exists()

    def test_compare_outside_the_decay_regime(self, tmp_path, capsys):
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(f"system.kind = smd\nnoise.alpha_sigma = 0.6\nout = {tmp_path / 'cmp'}\n")
        assert main(["compare", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: noise growth exponent 0.6 >= 1/2: expected gap cannot decay"
        ]
        assert not (tmp_path / "cmp").exists()

    def test_threads_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text("system.kind = samd\nthreads = 2\n")
        assert main(["ensemble", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["configuration error: line 2: unknown key 'threads'"]

    @pytest.mark.parametrize("command", ["simulate", "ensemble", "rates", "compare", "verify"])
    def test_threads_flag_is_a_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err
