"""Named verification suites: each check runs one pinned experiment at its
stated tolerance and reports pass/fail with the measured numbers.

The checks double as the repository's acceptance gate (tests call the same
functions), and `mirrorflow verify` exposes them on the command line. An
expensive ensemble shared by two checks is computed once per Verifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import presets
from .analysis import (
    apt_experiment,
    covariation_check,
    detect_t2,
    ensemble,
    expected_value_bound,
    fit_rate_exponent,
    martingale_envelope_check,
)
from .dynamics import (
    DETERMINISTIC_TWIN,
    SystemSpec,
    averaged_iterate,
    md_bundle,
    nearest_index,
    nesterov_bundle,
    primal_average_residual,
    simulate,
)
from .errors import ConfigError
from .maps import EntropicSimplexMap, EuclideanMap, row_dot
from .noise import NoiseStream, ZeroNoise
from .objectives import MinimizerCertificate, Rank1Quadratic
from .schedules import CONSTANT_ONE, PowerLaw, RateBundle, coupled_bundle

CHECK_NAMES = (
    "mirror-algebra",
    "gradients",
    "deterministic-rate",
    "nesterov",
    "primal-averaging",
    "covariation",
    "expected-rate",
    "averaged-smd",
    "martingale-envelope",
    "apt",
    "determinism",
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        nums = " ".join(f"{k}={v:.6g}" for k, v in self.measured.items())
        tail = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.name}: {nums}{tail}"


class ZeroStream:
    """Exact zeros in place of a NoiseStream's normals, counted by
    `position` as a NoiseStream counts its draws: a noisy run on it takes
    the noise path of every step while its increments add nothing."""

    def __init__(self):
        self.position = 0

    def standard_normals(self, count: int) -> np.ndarray:
        self.position += int(count)
        return np.zeros(count)


class Verifier:
    """Runs named checks; caches the shared stochastic-rate ensemble."""

    def __init__(self, base_seed: int = presets.DEFAULT_BASE_SEED):
        self.base_seed = int(base_seed)
        self._rate_ensemble = None

    # -- criterion experiments ------------------------------------------------

    def check_mirror_algebra(self) -> CheckResult:
        """Conjugate-pair identities on 1000 random duals per map and
        dimension: Fenchel residual, the divergence identity, the conjugate
        gradient's Lipschitz bound, shift invariance, and non-negativity.
        The identities pair each dual with the one drawn before it; every
        block of duals is evaluated as one stack."""
        rng = np.random.default_rng(self.base_seed)
        worst = {"fenchel": 0.0, "bregman": 0.0, "lipschitz": 0.0, "shift": 0.0}
        min_div = math.inf
        for dim in (2, 5, 50):
            for mmap in (EntropicSimplexMap(dim), EuclideanMap(dim)):
                zs = rng.normal(scale=3.0, size=(1000, dim))
                xs = mmap.grad_psi_star(zs)
                psi_x = mmap.psi(xs)
                fenchel = np.abs(psi_x + mmap.psi_star(zs) - row_dot(xs, zs))
                # z = zs[i] and its predecessor z2 = zs[i - 1], i >= 1
                z, z2, x, x2 = zs[1:], zs[:-1], xs[1:], xs[:-1]
                lhs = psi_x[1:] - psi_x[:-1]
                rhs = mmap.bregman_div_star(z2, z) - row_dot(x2 - x, z2)
                div = mmap.bregman_div_star(z, z2)
                excess = mmap.primal_norm(x - x2) - (
                    mmap.lipschitz_grad_conjugate * mmap.dual_norm(z - z2))
                worst["fenchel"] = max(worst["fenchel"], float(fenchel.max()))
                worst["bregman"] = max(worst["bregman"], float(np.abs(lhs - rhs).max()))
                worst["lipschitz"] = max(worst["lipschitz"], float(excess.max()))
                min_div = min(min_div, float(div.min()))
                if isinstance(mmap, EntropicSimplexMap):
                    alphas = rng.uniform(-1e3, 1e3, size=(100, 5))
                    shifted = mmap.grad_psi_star(zs[:100, None, :] + alphas[:, :, None])
                    worst["shift"] = max(
                        worst["shift"], float(np.abs(shifted - xs[:100, None, :]).max())
                    )
        passed = all(v < 1e-9 for v in worst.values()) and min_div >= -1e-12
        measured = {f"max_{k}": v for k, v in worst.items()}
        measured["min_divergence"] = min_div
        return CheckResult("mirror-algebra", passed, measured, "tolerance 1e-9")

    def check_gradients(self) -> CheckResult:
        """Central finite differences against analytic gradients, 1000
        points per objective, relative error below 1e-6 at step 1e-5."""
        rng = np.random.default_rng(self.base_seed + 1)
        step = 1e-5
        worst = 0.0
        for objective in (
            presets.default_sum_exp(),
            presets.face_sum_exp(),
            presets.default_rank1(),
        ):
            pts = rng.dirichlet(np.ones(objective.dim), size=1000)
            grads = np.array([objective.gradient(x) for x in pts])
            scale = np.maximum(1.0, np.abs(grads).max(axis=1))
            # row j of the stack at point i moves coordinate j by the step
            steps = step * np.eye(objective.dim)
            fd = (objective.value(pts[:, None, :] + steps)
                  - objective.value(pts[:, None, :] - steps)) / (2 * step)
            worst = max(worst, float((np.abs(fd - grads) / scale[:, None]).max()))
        return CheckResult(
            "gradients", worst < 1e-6, {"max_rel_error": worst}, "tolerance 1e-6"
        )

    def check_deterministic_rate(self) -> CheckResult:
        """Deterministic averaged run with r = t^2, eta = 2t, constant s on
        [1, 100] at h = 1e-3: the gap must stay below 1.05x its bound."""
        rates = coupled_bundle(alpha_r=2.0, alpha_s=0.0)
        spec, cert = presets.default_spec("amd", rates=rates)
        traj = simulate(spec, cert, t_end=100.0, h=1e-3, record_stride=10)
        l0 = traj.energy[0]
        bounds = expected_value_bound(spec, cert, l0, traj.times)
        ratios = traj.gap[1:] / bounds[1:]
        worst = float(ratios.max())
        return CheckResult(
            "deterministic-rate",
            bool(worst <= 1.05),
            {"worst_gap_over_bound": worst, "initial_energy": l0},
            "gap <= 1.05 * bound at every recorded time",
        )

    def check_nesterov(self) -> CheckResult:
        """Averaged euclidean flow versus the damped oscillator on a planar
        quadratic, beta = 2: trajectories agree to O(h) and the sup distance
        halves when h does (ratio within [1.6, 2.4])."""
        beta = 2.0
        mmap = EuclideanMap(2)
        objective = Rank1Quadratic(np.array([1.0, 0.6]))
        cert = MinimizerCertificate(
            x_star=np.zeros(2), f_star=0.0, z_star=np.zeros(2),
            boundary=False, residual=0.0, method="analytic",
        )
        x0 = np.array([1.0, -0.5])
        distances = {}
        for h in (1e-3, 5e-4):
            amd = SystemSpec(
                kind="amd", mmap=mmap, objective=objective,
                rates=nesterov_bundle(beta), noise=ZeroNoise(2), x0=x0, z0=x0.copy(),
            )
            ode = SystemSpec(
                kind="nesterov", mmap=mmap, objective=objective,
                rates=nesterov_bundle(beta), noise=ZeroNoise(2), x0=x0, z0=x0.copy(),
                beta=beta,
            )
            ta = simulate(amd, cert, t_end=10.0, h=h, record_stride=10)
            tn = simulate(ode, cert, t_end=10.0, h=h, record_stride=10)
            distances[h] = float(np.abs(ta.x - tn.x).max())
        ratio = distances[1e-3] / distances[5e-4]
        passed = 1.6 <= ratio <= 2.4 and distances[1e-3] < 10.0 * 1e-3
        return CheckResult(
            "nesterov",
            bool(passed),
            {"dist_h1em3": distances[1e-3], "dist_h5em4": distances[5e-4], "ratio": ratio},
            "halving ratio in [1.6, 2.4]",
        )

    def check_primal_averaging(self) -> CheckResult:
        """Recursion-versus-integral-form residual of the default
        deterministic averaged run is O(h): it halves with the step."""
        rates = RateBundle(eta=CONSTANT_ONE, r=PowerLaw(1.0, 1.0), s=PowerLaw(1.0, 0.5))
        residuals = {}
        for h in (1e-3, 5e-4):
            spec, cert = presets.default_spec("amd", rates=rates)
            traj = simulate(spec, cert, t_end=10.0, h=h)
            residuals[h] = primal_average_residual(traj)
        ratio = residuals[1e-3] / residuals[5e-4]
        passed = 1.6 <= ratio <= 2.4
        return CheckResult(
            "primal-averaging",
            bool(passed),
            {"residual_h1em3": residuals[1e-3], "residual_h5em4": residuals[5e-4],
             "ratio": ratio},
            "halving ratio in [1.6, 2.4]",
        )

    def check_covariation(self) -> CheckResult:
        """Covariance of the projected dual increments of one 10^4-step run
        against eta^2 sigma0^2 h P, with P = I - 11^T/n the simplex's dual
        projection: diagonal within 10 percent, off-diagonal errors inside
        the 4-sigma sampling band."""
        spec, cert = presets.default_spec("samd", rates=coupled_bundle(1.0, 0.5), sigma0=0.1)
        diag_err, off_max, band, _ = covariation_check(
            spec, cert, steps=10_000, h=1e-4, stream=NoiseStream(self.base_seed, 0)
        )
        passed = diag_err < 0.10 and off_max < band
        return CheckResult(
            "covariation",
            bool(passed),
            {"diag_rel_error": diag_err, "offdiag_max": off_max, "offdiag_band": band},
            "diagonal within 10%, off-diagonals within the CLT band",
        )

    # -- shared stochastic-rate ensemble --------------------------------------

    def rate_ensemble(self):
        if self._rate_ensemble is None:
            spec, cert = presets.default_spec(
                "samd", rates=coupled_bundle(1.0, 0.5), sigma0=0.1
            )
            stats, trajs = ensemble(
                spec, cert, t_end=200.0, h=1e-2, record_stride=10,
                count=presets.DEFAULT_ENSEMBLE_COUNT, base_seed=self.base_seed,
            )
            self._rate_ensemble = (spec, cert, stats, trajs)
        return self._rate_ensemble

    def check_expected_rate(self) -> CheckResult:
        """100-trajectory averaged stochastic run with constant volatility
        0.1 and the balanced exponents (alpha_s = 1/2, alpha_r = 1): the
        fitted decay exponent of the mean gap lies in [-0.65, -0.35] (the
        predicted value is -1/2) and the mean gap respects the expected-gap
        bound within two standard errors at t = 10, 50, 100."""
        spec, cert, stats, trajs = self.rate_ensemble()
        fit = fit_rate_exponent(stats.times, stats.mean_gap, (20.0, 200.0))
        l0 = trajs[0].energy[0]
        bound_ok = True
        bound_margins = {}
        for t_probe in (10.0, 50.0, 100.0):
            i = nearest_index(stats.times, t_probe)
            bound = expected_value_bound(spec, cert, l0, float(stats.times[i]))
            limit = bound + 2.0 * float(stats.stderr_gap[i])
            bound_margins[f"margin_t{int(t_probe)}"] = limit - float(stats.mean_gap[i])
            if stats.mean_gap[i] > limit:
                bound_ok = False
        passed = (-0.65 <= fit.slope <= -0.35) and bound_ok
        measured = {"slope": fit.slope, "slope_stderr": fit.stderr, **bound_margins}
        return CheckResult(
            "expected-rate",
            bool(passed),
            measured,
            "slope within [-0.65, -0.35]; mean gap within bound + 2 stderr",
        )

    def check_averaged_smd(self) -> CheckResult:
        """100 non-accelerated stochastic runs on the face-minimizer
        instance with alpha_s = 1/2: the fitted decay exponent of the mean
        averaged-iterate gap lies in [-0.65, -0.35]."""
        objective = presets.face_sum_exp()
        spec, cert = presets.default_spec(
            "smd", rates=md_bundle(alpha_s=0.5), sigma0=0.1, objective=objective
        )
        _, trajs = ensemble(
            spec, cert, t_end=200.0, h=1e-2, record_stride=10,
            count=presets.DEFAULT_ENSEMBLE_COUNT, base_seed=self.base_seed,
        )
        gaps = []
        for tr in trajs:
            avg = averaged_iterate(tr)
            gaps.append(spec.objective.value(avg) - cert.f_star)
        mean_gap = np.asarray(gaps).mean(axis=0)
        fit = fit_rate_exponent(trajs[0].times, mean_gap, (20.0, 200.0))
        passed = -0.65 <= fit.slope <= -0.35
        return CheckResult(
            "averaged-smd",
            bool(passed),
            {"slope": fit.slope, "slope_stderr": fit.stderr},
            "slope within [-0.65, -0.35]",
        )

    def check_martingale_envelope(self) -> CheckResult:
        """On the shared stochastic-rate ensemble, at least 90 percent of
        trajectories keep their accumulated Ito integral inside three
        diameters of the iterated-logarithm envelope."""
        spec, _, _, trajs = self.rate_ensemble()
        fraction = martingale_envelope_check(trajs, diameter=spec.mmap.diameter, c=3.0)
        return CheckResult(
            "martingale-envelope",
            bool(fraction >= 0.90),
            {"fraction_within": fraction, "b_final": float(trajs[0].b[-1])},
            "fraction >= 0.90",
        )

    def check_apt(self, epsilon: float = 2.4e-3, t_window: float = 20.0) -> CheckResult:
        """Seeded shadowing regression: under the persistent-noise
        configuration (unit energy weight and sensitivity, a = eta =
        t^(-1/2)), once the energy has entered the epsilon/3 sublevel set,
        deterministic restarts started at consecutive window boundaries stay
        within epsilon/3 of the stochastic energy."""
        spec, cert = presets.persistent_noise_spec(sigma0=0.05)
        traj = simulate(
            spec, cert, t_end=290.0, h=1e-2, record_stride=10,
            stream=NoiseStream(self.base_seed, 0),
        )
        t2 = detect_t2(traj, epsilon, t_min=50.0)
        if t2 is None:
            return CheckResult(
                "apt", False, {}, "energy never entered the epsilon/3 sublevel set"
            )
        report = apt_experiment(traj, t2, t_window=t_window, epsilon=epsilon)
        return CheckResult(
            "apt",
            bool(report.passed),
            {
                "t2": report.t2,
                "windows": float(len(report.windows)),
                "max_distance": report.max_distance,
                "threshold": epsilon / 3.0,
            },
            "every restart distance below epsilon / 3",
        )

    def check_determinism(self) -> CheckResult:
        """Bitwise degeneracy and reproducibility: each stochastic
        integrator, with volatility 0.1 on a `ZeroStream`, reproduces its
        deterministic twin exactly while it draws, steps and adds the Ito
        increments on the noise path (eta = 1, so each dual increment is
        -(h grad f + d * 0.0) against the twin's -h grad f), and identical
        seeds reproduce identical trajectories."""
        measured = {}
        for kind, rates, stride in (("samd", coupled_bundle(1.0, 0.5), 10),
                                    ("smd", md_bundle(0.5), 1)):
            twin, cert = presets.default_spec(DETERMINISTIC_TWIN[kind], rates=rates)
            noisy, _ = presets.default_spec(kind, rates=rates, sigma0=0.1)
            ta = simulate(twin, cert, t_end=5.0, h=1e-2, record_stride=stride)
            tb = simulate(noisy, cert, t_end=5.0, h=1e-2, record_stride=stride,
                          stream=ZeroStream())
            equal = np.array_equal(ta.x, tb.x) and np.array_equal(ta.z, tb.z)
            measured[f"{kind}_equals_{twin.kind}"] = float(equal)

        noisy, cert_n = presets.default_spec("samd", rates=coupled_bundle(1.0, 0.5), sigma0=0.1)
        runs = [
            ensemble(noisy, cert_n, t_end=3.0, h=1e-2, record_stride=10,
                     count=3, base_seed=self.base_seed)[1]
            for _ in range(2)
        ]
        repeat_equal = all(
            np.array_equal(a.x, b.x) and np.array_equal(a.z, b.z)
            and np.array_equal(a.martingale, b.martingale)
            for a, b in zip(*runs)
        )
        measured["repeat_bitwise"] = float(repeat_equal)
        return CheckResult(
            "determinism",
            all(v == 1.0 for v in measured.values()),
            measured,
            "all comparisons bitwise",
        )

    # -- dispatch --------------------------------------------------------------

    def run(self, names=None) -> list[CheckResult]:
        names = list(CHECK_NAMES) if not names else list(names)
        unknown = [n for n in names if n not in CHECK_NAMES]
        if unknown:
            raise ConfigError(f"unknown check {', '.join(map(repr, unknown))}; "
                              f"valid checks: {', '.join(CHECK_NAMES)}")
        return [getattr(self, "check_" + n.replace("-", "_"))() for n in names]
