import math

import numpy as np
import pytest

from mirrorflow import presets
from mirrorflow.analysis import (
    apt_experiment,
    b_and_envelope,
    covariation_check,
    detect_t2,
    ensemble,
    ensemble_to_csv,
    envelope,
    expected_value_bound,
    fit_rate_exponent,
    martingale_envelope_check,
)
from mirrorflow.dynamics import (SystemSpec, Trajectory, energy_anchor, energy_value,
                                nearest_index, simulate)
from mirrorflow.errors import BoundaryMinimizer, NonPositiveValues, ShortFitWindow
from mirrorflow.noise import NoiseStream, ZeroNoise
from mirrorflow.objectives import SumExp
from mirrorflow.schedules import CONSTANT_ONE, PowerLaw, RateBundle, coupled_bundle

FIG_RATES = RateBundle(eta=CONSTANT_ONE, r=PowerLaw(1.0, 1.0), s=PowerLaw(1.0, 0.5))


def lyapunov_drift_check(traj: Trajectory) -> float:
    """Max excess of the central-difference energy derivative over the drift
    bound gap * (r' - eta) + psi(x*) * s' along a deterministic averaged run.
    The excess is a discretization artifact and shrinks with h."""
    if traj.record_stride != 1:
        raise ValueError("per-step recording required")
    if not traj.has_energy:
        raise BoundaryMinimizer("trajectory carries no energy series")
    rates = traj.spec.rates
    psi_x_star = traj.spec.mmap.psi(traj.certificate.x_star)
    ts, E = traj.times, traj.energy
    worst = -math.inf
    for i in range(1, len(ts) - 1):
        dldt = (E[i + 1] - E[i - 1]) / (ts[i + 1] - ts[i - 1])
        rhs = traj.gap[i] * (
            rates.r.derivative(ts[i]) - rates.eta.value(ts[i])
        ) + psi_x_star * rates.s.derivative(ts[i])
        worst = max(worst, dldt - rhs)
    return worst


@pytest.fixture(scope="module")
def fig_energy(simplex3_mod, default_cert_mod):
    """The energy of the default instance under FIG_RATES at one state (x, z)
    and time t."""
    objective = presets.default_sum_exp()
    anchor = energy_anchor(simplex3_mod, default_cert_mod.z_star)

    def energy(x, z, t):
        gap = objective.value(np.asarray(x, float)) - default_cert_mod.f_star
        return energy_value(simplex3_mod, FIG_RATES, anchor, gap, np.asarray(z, float), t)

    return energy


@pytest.fixture(scope="module")
def simplex3_mod():
    from mirrorflow.maps import EntropicSimplexMap

    return EntropicSimplexMap(3)


@pytest.fixture(scope="module")
def default_cert_mod(simplex3_mod):
    return presets.certificate_for(presets.default_sum_exp(), simplex3_mod)


class TestEnergy:
    def test_zero_at_anchored_optimum(self, fig_energy, default_cert_mod):
        cert = default_cert_mod
        for t in (1.0, 4.0, 25.0):
            s_t = FIG_RATES.s.value(t)
            val = fig_energy(cert.x_star, s_t * cert.z_star, t)
            assert val == pytest.approx(0.0, abs=1e-12)

    def test_pure_bregman_term(self, fig_energy, simplex3_mod, default_cert_mod):
        cert = default_cert_mod
        z = cert.z_star + np.array([0.3, -0.3, 0.0])
        t = 4.0
        val = fig_energy(cert.x_star, z, t)
        s_t = FIG_RATES.s.value(t)
        expected = s_t * simplex3_mod.bregman_div_star(z / s_t, cert.z_star)
        assert val == pytest.approx(expected, rel=1e-12)
        assert val > 0

    def test_initial_value_golden(self, fig_energy, simplex3_mod, default_cert_mod):
        # default start (barycenter, zero dual): the divergence term reduces
        # to the potential at the optimum
        x0, z0 = presets.default_start(simplex3_mod)
        got = fig_energy(x0, z0, FIG_RATES.t0)
        cert = default_cert_mod
        expected = (
            presets.default_sum_exp().value(x0)
            - cert.f_star
            + simplex3_mod.psi(cert.x_star)
        )
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.02040956531462453, abs=1e-9)
        # r(t0) = s(t0) = 1 for every default bundle: each kind's run starts
        # at this energy, bit for bit
        for kind in ("amd", "samd", "smd", "md"):
            spec, cert = presets.default_spec(kind, sigma0=0.1 if kind in ("samd", "smd") else 0.0)
            traj = simulate(spec, cert, t_end=1.1, h=0.01,
                            stream=NoiseStream(7, 0) if spec.is_stochastic else None)
            assert traj.energy[0] == got

    def test_nonnegative_on_random_states(self, fig_energy, rng):
        for _ in range(200):
            x = rng.dirichlet(np.ones(3))
            z = rng.normal(size=3)
            t = float(rng.uniform(1.0, 50.0))
            assert fig_energy(x, z, t) >= 0.0

    def test_boundary_certificate_rejected(self):
        # a minimizer on a face has no interior dual anchor: the run records
        # neither energy nor Ito integral
        spec, cert = presets.default_spec("amd", rates=FIG_RATES,
                                          objective=presets.face_sum_exp())
        traj = simulate(spec, cert, t_end=1.1, h=0.01)
        assert cert.boundary
        assert not traj.has_energy and traj.martingale is None


class TestDriftCheck:
    def test_constant_objective_has_flat_energy(self, simplex3_mod):
        obj = SumExp(np.zeros((1, 3)))
        from mirrorflow.objectives import MinimizerCertificate

        cert = MinimizerCertificate(
            x_star=np.ones(3) / 3, f_star=1.0, z_star=np.zeros(3),
            boundary=False, residual=0.0, method="constant objective",
        )
        rates = RateBundle(eta=CONSTANT_ONE, r=CONSTANT_ONE, s=CONSTANT_ONE)
        spec = SystemSpec(
            kind="amd", mmap=simplex3_mod, objective=obj, rates=rates,
            noise=ZeroNoise(3), x0=np.ones(3) / 3, z0=np.array([0.4, -0.4, 0.0]),
        )
        traj = simulate(spec, cert, t_end=3.0, h=1e-3)
        # s constant and gradient zero: the drift bound is zero and the
        # discrete energy derivative should sit at roundoff level
        assert lyapunov_drift_check(traj) < 1e-8

    def test_bound_never_violated_under_refinement(self):
        # the drift bound carries genuine slack (convexity plus the dropped
        # potential term), so the max excess converges to a negative value;
        # the executable property is that no step violates the bound beyond
        # discretization noise, at either resolution
        spec, cert = presets.default_spec("amd", rates=FIG_RATES)
        for h in (2e-3, 1e-3):
            traj = simulate(spec, cert, t_end=3.0, h=h)
            excess = lyapunov_drift_check(traj)
            assert excess < 1e-6

    def test_diagnostic_on_inadmissible_run(self):
        # eta below r': simulate rejects the bundle, so no inadmissible run
        # reaches the drift check
        rates = RateBundle(eta=PowerLaw(0.5, 0.0), r=PowerLaw(1.0, 1.0), s=CONSTANT_ONE)
        spec, cert = presets.default_spec("amd", rates=rates)
        with pytest.raises(ValueError, match="rate bundle not admissible"):
            simulate(spec, cert, t_end=3.0, h=1e-3)


class TestBounds:
    def test_constant_sensitivity_reduces_to_initial_over_r(self):
        spec, cert = presets.default_spec("amd", rates=coupled_bundle(2.0, 0.0))  # r = t^2
        assert expected_value_bound(spec, cert, 0.7, 10.0) == pytest.approx(0.007)

    def test_zero_noise_reduces_to_deterministic(self):
        # zero noise adds no correction: the deterministic bound
        # (psi(x*) (s(t) - s(t0)) + L0) / r(t), bit for bit, at one time or many
        spec, cert = presets.default_spec("samd", rates=FIG_RATES, sigma0=0.0)
        psi_x_star = spec.mmap.psi(cert.x_star)
        ts = [2.0, 7.0]
        deterministic = [
            (psi_x_star * (FIG_RATES.s.value(t) - FIG_RATES.s.value(1.0)) + 0.5)
            / FIG_RATES.r.value(t)
            for t in ts
        ]
        assert [expected_value_bound(spec, cert, 0.5, t) for t in ts] == deterministic
        assert expected_value_bound(spec, cert, 0.5, ts).tolist() == deterministic

    def test_expected_bound_closed_form(self, simplex3_mod):
        # alpha_r = 1, alpha_s = 1/2, constant volatility 0.1:
        # correction integral = (3/2) * 0.01 * 2 (sqrt(t) - 1)
        spec, cert = presets.default_spec("samd", rates=coupled_bundle(1.0, 0.5), sigma0=0.1)
        l0 = 0.3
        t = 100.0
        psi_star_pt = simplex3_mod.psi(cert.x_star)
        expected = (
            l0 + psi_star_pt * (math.sqrt(t) - 1.0) + 1.5 * 0.01 * 2.0 * (math.sqrt(t) - 1.0)
        ) / t
        assert expected_value_bound(spec, cert, l0, t) == pytest.approx(expected, rel=1e-12)

    def test_expected_bound_dominant_exponent(self):
        spec, cert = presets.default_spec("samd", rates=coupled_bundle(1.0, 0.5), sigma0=0.1)
        ts = np.geomspace(1e3, 1e6, 40)
        vals = expected_value_bound(spec, cert, 0.3, ts)
        fit = fit_rate_exponent(ts, vals, (1e3, 1e6))
        # subdominant 1/t terms still bias the finite-window fit slightly
        assert fit.slope == pytest.approx(-0.5, abs=0.05)


class TestEnvelope:
    def test_closed_form_b(self):
        # eta = beta t^(beta-1), sigma* = t^alpha gives a power-law integrand
        beta, alpha = 0.8, 0.1
        eta = PowerLaw(beta, beta - 1.0)
        sig = PowerLaw(1.0, alpha)
        b, env = b_and_envelope(eta, sig, 1.0, 50.0)
        p = 2 * beta + 2 * alpha - 1.0
        expected = beta**2 * (50.0**p - 1.0) / p
        assert b == pytest.approx(expected, rel=1e-12)
        assert env == envelope(b)

    def test_zero_noise_convention(self):
        b, env = b_and_envelope(CONSTANT_ONE, None, 1.0, 10.0)
        assert (b, env) == (0.0, 0.0)
        assert envelope(0.0) == 0.0

    def test_unit_case(self):
        b, env = b_and_envelope(CONSTANT_ONE, CONSTANT_ONE, 1.0, 101.0)
        assert b == pytest.approx(100.0)
        assert env == pytest.approx(math.sqrt(100.0 * math.log(math.log(100.0))), rel=1e-12)
        assert env == pytest.approx(12.3579, abs=2e-4)

    def test_guard_region(self):
        # below e the argument is clamped so the envelope stays defined
        assert envelope(1e-9) == pytest.approx(
            math.sqrt(math.e * math.log(math.log(math.e**2)))
        )
        assert envelope(2.0) == envelope(1.0)


class TestEnsemble:
    def test_single_trajectory_stats(self):
        spec, cert = presets.default_spec("samd", rates=FIG_RATES, sigma0=0.1)
        stats, trajs = ensemble(spec, cert, t_end=2.0, h=0.01, record_stride=10,
                                count=1, base_seed=7)
        assert stats.std_gap is None and stats.stderr_gap is None
        np.testing.assert_array_equal(stats.mean_gap, trajs[0].gap)

    def test_zero_noise_has_zero_spread(self):
        spec, cert = presets.default_spec("samd", rates=FIG_RATES, sigma0=0.0)
        stats, _ = ensemble(spec, cert, t_end=2.0, h=0.01, record_stride=10,
                            count=4, base_seed=7)
        np.testing.assert_array_equal(stats.std_gap, np.zeros_like(stats.std_gap))

    def test_deterministic_given_base_seed_and_worker_invariant(self):
        spec, cert = presets.default_spec("samd", rates=FIG_RATES, sigma0=0.2)
        a, ta = ensemble(spec, cert, t_end=2.0, h=0.01, record_stride=10,
                         count=6, base_seed=33)
        b, tb = ensemble(spec, cert, t_end=2.0, h=0.01, record_stride=10,
                         count=6, base_seed=33)
        np.testing.assert_array_equal(a.mean_gap, b.mean_gap)
        for x, y in zip(ta, tb):
            np.testing.assert_array_equal(x.x, y.x)

    def test_member_matches_standalone_simulate(self):
        spec, cert = presets.default_spec("samd", rates=FIG_RATES, sigma0=0.2)
        _, trajs = ensemble(spec, cert, t_end=2.0, h=0.01, record_stride=10,
                            count=3, base_seed=12)
        solo = simulate(spec, cert, t_end=2.0, h=0.01, record_stride=10,
                        stream=NoiseStream(12, 2))
        np.testing.assert_array_equal(trajs[2].x, solo.x)

    def test_oversized_ensemble_is_a_value_error(self, monkeypatch):
        # one run's 400,001 recorded rows fit the cap; 1000 of them held at
        # once would take 23.8 GiB
        def never(*args, **kwargs):
            raise AssertionError("a run started before the ensemble size was checked")

        monkeypatch.setattr("mirrorflow.analysis.simulate", never)
        spec, cert = presets.default_spec("samd", sigma0=0.1)
        with pytest.raises(ValueError, match=r"count = 1000 is too large: 1000 runs of "
                                             r"400001 recorded rows .* 23.8 GiB"):
            ensemble(spec, cert, t_end=5.0, h=1e-6, record_stride=10, count=1000,
                     base_seed=7)

    def test_csv_schema(self, tmp_path):
        spec, cert = presets.default_spec("samd", rates=FIG_RATES, sigma0=0.1)
        stats, _ = ensemble(spec, cert, t_end=2.0, h=0.01, record_stride=10,
                            count=3, base_seed=5)
        path = tmp_path / "ens.csv"
        ensemble_to_csv(
            stats, path,
            eta=FIG_RATES.eta, sigma_star=PowerLaw(0.1, 0.0), t0=1.0,
        )
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "t,mean_gap,std_gap,stderr_gap,mean_energy,std_energy,gap_bound,b,envelope"
        )
        assert len(lines) == stats.times.size + 1


class TestRateFit:
    def test_exact_power_law_recovered(self):
        ts = np.geomspace(1.0, 1e3, 400)
        fit = fit_rate_exponent(ts, ts**-0.5, (10.0, 1e3))
        assert fit.slope == pytest.approx(-0.5, abs=1e-10)
        assert fit.stderr < 1e-10
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noisy_power_law(self, rng):
        ts = np.geomspace(1.0, 1e3, 2000)
        series = 3.0 * ts**-1.0 * np.exp(rng.normal(scale=1e-3, size=ts.size))
        fit = fit_rate_exponent(ts, series, (10.0, 1e3))
        assert fit.slope == pytest.approx(-1.0, abs=5e-3)

    def test_nonpositive_rejected(self):
        ts = np.geomspace(1.0, 100.0, 50)
        series = ts**-1.0
        series[30] = 0.0
        with pytest.raises(NonPositiveValues):
            fit_rate_exponent(ts, series, (2.0, 100.0))

    def test_window_needs_enough_points(self):
        ts = np.geomspace(1.0, 100.0, 5)
        with pytest.raises(ShortFitWindow, match="holds 5 distinct recorded times"):
            fit_rate_exponent(ts, ts**-1.0, (2.0, 100.0))


class TestMartingaleEnvelope:
    def test_zero_noise_fraction_one(self):
        spec, cert = presets.default_spec("samd", rates=FIG_RATES, sigma0=0.0)
        _, trajs = ensemble(spec, cert, t_end=2.0, h=0.01, record_stride=10,
                            count=3, base_seed=1)
        assert martingale_envelope_check(trajs, diameter=2.0, c=3.0) == 1.0

    def test_zero_threshold_fraction_zero(self):
        spec, cert = presets.default_spec("samd", rates=FIG_RATES, sigma0=0.2)
        _, trajs = ensemble(spec, cert, t_end=2.0, h=0.01, record_stride=10,
                            count=3, base_seed=1)
        assert martingale_envelope_check(trajs, diameter=2.0, c=0.0) == 0.0


class TestCovariation:
    def test_matches_theory(self):
        spec, _ = presets.default_spec(
            "samd", rates=coupled_bundle(1.0, 0.5), sigma0=0.1
        )
        diag_err, off_max, band, target = covariation_check(
            spec, steps=10_000, h=1e-4, stream=NoiseStream(77, 0)
        )
        assert np.allclose(np.diag(target), 0.1**2 * 1e-4)
        assert diag_err < 0.10
        assert off_max < band

    def test_zero_noise_exact(self):
        spec, _ = presets.default_spec("samd", rates=coupled_bundle(1.0, 0.5), sigma0=0.0)
        diag_err, off_max, band, _ = covariation_check(
            spec, steps=500, h=1e-4, stream=NoiseStream(77, 0)
        )
        # only the slowly varying drift contributes; orders below the noise target
        assert diag_err < 1e-12
        assert off_max < 1e-12

    def test_requires_constant_eta(self):
        spec, _ = presets.default_spec("samd", rates=coupled_bundle(2.0, 0.5), sigma0=0.1)
        with pytest.raises(ValueError, match="constant learning rate"):
            covariation_check(spec, steps=100, h=1e-4, stream=NoiseStream(1, 0))

    def test_requires_time_constant_noise(self):
        spec, _ = presets.default_spec(
            "samd", rates=coupled_bundle(1.0, 0.5), sigma0=0.1, alpha_sigma=-0.5
        )
        with pytest.raises(ValueError, match="time-constant"):
            covariation_check(spec, steps=100, h=1e-4, stream=NoiseStream(1, 0))

    def test_requires_state_independent_noise(self):
        # sigma(x0) is no target for a volatility that moves with the state
        spec, _ = presets.default_spec("samd", sigma0=0.1, noise_kind="state-scaled")
        stream = NoiseStream(7, 0)
        with pytest.raises(ValueError, match="state-independent"):
            covariation_check(spec, steps=2000, h=1e-3, stream=stream)
        assert stream.position == 0


@pytest.fixture(scope="module")
def short_run():
    spec, cert = presets.persistent_noise_spec(sigma0=0.05)
    return simulate(spec, cert, t_end=111.0, h=0.01, record_stride=10,
                    stream=NoiseStream(presets.DEFAULT_BASE_SEED, 0))


class TestShadowing:
    def test_t2_detection(self, short_run):
        eps = 2.4e-3
        t2 = detect_t2(short_run, eps, t_min=50.0)
        assert t2 is not None and t2 >= 50.0
        i2 = nearest_index(short_run.times, t2)
        assert short_run.energy[i2] <= eps / 3.0
        assert detect_t2(short_run, 1e-12, t_min=50.0) is None

    def test_windows_track_deterministic_restarts(self, short_run):
        eps = 2.4e-3
        t2 = detect_t2(short_run, eps, t_min=50.0)
        report = apt_experiment(short_run, t2, t_window=20.0, epsilon=eps)
        assert len(report.windows) >= 2
        assert report.max_distance < eps / 3.0
        assert report.passed

    def test_zero_noise_distances_vanish(self):
        spec, cert = presets.persistent_noise_spec(sigma0=0.05)
        det = SystemSpec(
            kind="samd", mmap=spec.mmap, objective=spec.objective, rates=spec.rates,
            noise=ZeroNoise(3), x0=spec.x0, z0=spec.z0,
        )
        traj = simulate(det, cert, t_end=61.0, h=0.01, record_stride=10)
        report = apt_experiment(traj, t2=1.0, t_window=20.0, epsilon=2.4e-3)
        assert report.max_distance < 1e-12
