"""The expected-gap bound, ensemble statistics, log-log rate fitting, the
iterated-logarithm noise envelope, and the shadowing experiment that
compares a stochastic path against deterministic restarts over
fixed-length windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (AVERAGED_KINDS, DETERMINISTIC_TWIN, SystemSpec, Trajectory, check_run,
                       nearest_index, simulate, write_csv)
from .errors import BoundaryMinimizer, NonPositiveValues, ShortFitWindow
from .noise import DiagonalPowerLawNoise, NoiseStream, StateScaledNoise, ZeroNoise
from .objectives import MinimizerCertificate
from .schedules import noise_integral


def expected_value_bound(
    spec: SystemSpec, certificate: MinimizerCertificate, initial_energy: float, t
):
    """Bound on the expected gap of an admissible averaged run at time t, or
    at each of a sequence of times: (L0 + psi(x*) (s(t) - s(t0)) + the
    accumulated second-order noise correction (n L_conj / 2) *
    integral(eta^2 sigma*^2 / s)) / r(t), with L0 the run's energy at t0.
    Zero noise adds no correction: the deterministic bound. psi(x*) is
    computed once; each time is bounded on its own in Python arithmetic."""
    rates, mmap = spec.rates, spec.mmap
    psi_x_star = mmap.psi(certificate.x_star)
    if np.ndim(t) != 0:
        t = np.asarray(t, dtype=float).tolist()
    integral = noise_integral(rates.eta, spec.noise.sigma_star_power(), rates.t0, t,
                              per=rates.s)

    def bound(t, integral):
        correction = 0.5 * mmap.dim * mmap.lipschitz_grad_conjugate * integral
        return (
            initial_energy
            + psi_x_star * (rates.s.value(t) - rates.s.value(rates.t0))
            + correction
        ) / rates.r.value(t)

    if np.ndim(t) == 0:
        return bound(t, integral)
    return np.array([bound(u, i) for u, i in zip(t, integral.tolist())])


# ---------------------------------------------------------------------------
# Accumulated noise strength and its almost-sure envelope
# ---------------------------------------------------------------------------

_E = math.e


def envelope(b: float) -> float:
    """Iterated-logarithm envelope sqrt(max(b, e) * log log max(b, e^2)),
    guarded so it is defined for every b >= 0; zero noise maps to zero."""
    if b == 0.0:
        return 0.0
    return math.sqrt(max(b, _E) * math.log(math.log(max(b, _E**2))))


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------


@dataclass
class EnsembleStats:
    """Per-time mean/spread summaries over seeded trajectories, with the
    runs' accumulated noise strength b (the same for every run). Standard
    deviations are None for single-trajectory ensembles; energy columns are
    None when the runs carry no energy series."""

    times: np.ndarray
    b: np.ndarray
    mean_gap: np.ndarray
    std_gap: np.ndarray | None
    stderr_gap: np.ndarray | None
    mean_energy: np.ndarray | None
    std_energy: np.ndarray | None
    count: int


def ensemble(
    spec: SystemSpec,
    certificate: MinimizerCertificate,
    t_end: float,
    h: float,
    record_stride: int,
    count: int,
    base_seed: int,
) -> tuple[EnsembleStats, list[Trajectory]]:
    """Simulate `count` trajectories with streams derived from
    (base_seed, index) and aggregate per-time statistics. The result is a
    pure function of the arguments. Raise ValueError before any run when
    `check_run` refuses the runs: all `count` are held at once."""
    if count < 1:
        raise ValueError("ensemble needs at least one trajectory")
    check_run(spec.rates.t0, t_end, h, record_stride, spec.mmap.dim, count)
    trajectories = [
        simulate(
            spec,
            certificate,
            t_end,
            h,
            record_stride=record_stride,
            stream=NoiseStream(base_seed, index),
        )
        for index in range(count)
    ]

    gaps = np.array([tr.gap for tr in trajectories])
    stats = EnsembleStats(
        times=trajectories[0].times.copy(),
        b=trajectories[0].b.copy(),
        mean_gap=gaps.mean(axis=0),
        std_gap=gaps.std(axis=0, ddof=1) if count >= 2 else None,
        stderr_gap=gaps.std(axis=0, ddof=1) / math.sqrt(count) if count >= 2 else None,
        mean_energy=None,
        std_energy=None,
        count=count,
    )
    if trajectories[0].has_energy:
        energies = np.array([tr.energy for tr in trajectories])
        stats.mean_energy = energies.mean(axis=0)
        if count >= 2:
            stats.std_energy = energies.std(axis=0, ddof=1)
    return stats, trajectories


def ensemble_to_csv(stats: EnsembleStats, path, gap_bound=None) -> None:
    """Write `t, mean_gap, std_gap, stderr_gap, mean_energy, std_energy,
    gap_bound, b, envelope`, with `gap_bound` one value per recorded time;
    unavailable columns stay empty, and so do b and the envelope at t0."""
    header = ["t", "mean_gap", "std_gap", "stderr_gap", "mean_energy", "std_energy",
              "gap_bound", "b", "envelope"]
    bs = [None, *stats.b[1:].tolist()]
    envelopes = [None, *map(envelope, bs[1:])]
    write_csv(path, header, [stats.times.tolist(), stats.mean_gap, stats.std_gap,
                             stats.stderr_gap, stats.mean_energy, stats.std_energy, gap_bound,
                             bs, envelopes])


# ---------------------------------------------------------------------------
# Rate fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(series) against log(t) on a window."""

    window: tuple[float, float]
    slope: float
    intercept: float
    stderr: float
    r_squared: float
    n_points: int


#: geometrically spaced target times of a rate fit
FIT_POINTS = 30


def fit_indices(times: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """Distinct indices of the recorded `times` nearest to FIT_POINTS
    geometrically spaced targets inside `window`; raises ShortFitWindow
    when fewer than 10 remain."""
    t_lo, t_hi = window
    if not t_lo < t_hi:
        raise ValueError("window must satisfy t_lo < t_hi")
    targets = np.geomspace(t_lo, t_hi, FIT_POINTS)
    idx = np.unique([nearest_index(times, t) for t in targets])
    if len(idx) < 10:
        raise ShortFitWindow(f"rate fit window [{t_lo:g}, {t_hi:g}] holds {len(idx)} "
                             f"distinct recorded times, fewer than 10")
    return idx


def fit_rate_exponent(
    times: np.ndarray,
    series: np.ndarray,
    window: tuple[float, float],
) -> RateFit:
    """Fit the decay exponent of a positive series on geometrically spaced
    sample times inside `window` (snapped to the recorded grid)."""
    t_lo, t_hi = window
    times = np.asarray(times, float)
    series = np.asarray(series, float)
    idx = fit_indices(times, window)
    y = series[idx]
    if np.any(y <= 0.0):
        raise NonPositiveValues("series must be positive inside the fit window")
    lx = np.log(times[idx])
    ly = np.log(y)
    design = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = ly - design @ coef
    dof = len(idx) - 2
    var_slope = (
        float(resid @ resid) / dof / float(((lx - lx.mean()) ** 2).sum())
        if dof > 0
        else 0.0
    )
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(
        window=(float(t_lo), float(t_hi)),
        slope=slope,
        intercept=intercept,
        stderr=math.sqrt(var_slope),
        r_squared=r2,
        n_points=len(idx),
    )


def default_fit_window(t_end: float) -> tuple[float, float]:
    return (t_end / 10.0, t_end)


# ---------------------------------------------------------------------------
# Martingale envelope and pathwise checks
# ---------------------------------------------------------------------------


def martingale_envelope_check(
    trajectories: list[Trajectory], diameter: float, c: float
) -> float:
    """Fraction of trajectories whose final accumulated Ito integral stays
    inside c * diameter * envelope(b(t_end))."""
    within = 0
    for tr in trajectories:
        if tr.martingale is None:
            raise ValueError("trajectory carries no martingale series")
        threshold = c * diameter * envelope(float(tr.b[-1]))
        if abs(float(tr.martingale[-1])) <= threshold:
            within += 1
    return within / len(trajectories)


def covariation_check(spec: SystemSpec, certificate: MinimizerCertificate, steps: int,
                      h: float, stream: NoiseStream):
    """Empirical covariance of the dual increments of one stride-1 run of
    `steps` steps against the theoretical eta^2 sigma0^2 h P.

    P is the map's dual projection (I - 11^T/n on the simplex, I on the
    euclidean map): the run projects its dual after every step, so each
    recorded increment is P dz, with covariance P (eta^2 sigma0^2 h I) P =
    eta^2 sigma0^2 h P. The start is measured from its projection, which has
    the same conjugate gradient. Requires a constant learning rate and a
    scalar model that depends on neither time nor state, so the target is a
    single matrix; the model is checked before any draw.

    Returns (max relative diagonal error, max absolute off-diagonal error,
    off-diagonal band 4 * eta^2 sigma0^2 h / sqrt(steps), target matrix).
    """
    rates = spec.rates
    if spec.kind in AVERAGED_KINDS:
        if not rates.eta.is_constant:
            raise ValueError("constant learning rate required")
        eta0 = rates.eta.coef
    else:
        eta0 = 1.0
    noise = spec.noise
    if isinstance(noise, DiagonalPowerLawNoise):
        raise ValueError("scalar noise required for a constant target")
    if isinstance(noise, StateScaledNoise):
        raise ValueError("state-independent noise required for a constant target")
    sigma_star = noise.sigma_star_power()
    if sigma_star is not None and not sigma_star.is_constant:
        raise ValueError("time-constant noise required for a constant target")
    # a constant scalar law's coefficient is sigma0 * t**0.0 exactly
    d0 = 0.0 if sigma_star is None else sigma_star.coef
    project = spec.mmap.project_point
    scale = (eta0**2) * (d0**2) * h
    target = scale * np.array([project(row) for row in np.eye(spec.mmap.dim).tolist()])

    zs = simulate(spec, certificate, rates.t0 + steps * h, h, stream=stream).z
    zs[0] = project(zs[0].tolist())
    error = np.cov(np.diff(zs, axis=0).T, ddof=1) - target
    diag_err = float(np.abs(np.diag(error)).max())
    off_err = float(np.abs(error - np.diag(np.diag(error))).max())
    if noise.is_zero:
        return diag_err, off_err, 0.0, target
    return (diag_err / np.diag(target).max(), off_err, 4.0 * scale / math.sqrt(steps),
            target)


# ---------------------------------------------------------------------------
# Deterministic-restart shadowing (the almost-sure convergence illustration)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RestartWindow:
    t_start: float
    sup_distance: float
    energies: np.ndarray
    times: np.ndarray


@dataclass(frozen=True)
class AptReport:
    """Outcome of comparing a stochastic path's energy against deterministic
    restarts over consecutive windows of length t_window after t2."""

    t2: float
    epsilon: float
    t_window: float
    windows: tuple[RestartWindow, ...]

    @property
    def max_distance(self) -> float:
        return max(w.sup_distance for w in self.windows)

    @property
    def passed(self) -> bool:
        return self.max_distance < self.epsilon / 3.0


def detect_t2(
    traj: Trajectory, epsilon: float, t_min: float
) -> float | None:
    """First recorded time at or after t_min where the energy has entered
    the epsilon/3 sublevel set; None if it never does."""
    if not traj.has_energy:
        raise BoundaryMinimizer("energy series required")
    mask = (traj.times >= t_min) & (traj.energy <= epsilon / 3.0)
    if not mask.any():
        return None
    return float(traj.times[np.argmax(mask)])


def apt_experiment(
    traj: Trajectory,
    t2: float,
    t_window: float,
    epsilon: float,
) -> AptReport:
    """For each window [t2 + k T, t2 + (k+1) T], integrate the deterministic
    flow from the stochastic state at the window start and record the sup
    distance between the two energy series on the recorded grid.

    The trajectory must carry an energy series, and t2 must lie on its
    recorded grid with windows that are whole multiples of the record step.
    """
    if not traj.has_energy:
        raise BoundaryMinimizer("energy series required")
    spec = traj.spec
    det_kind = DETERMINISTIC_TWIN.get(spec.kind, spec.kind)
    times = traj.times
    i2 = nearest_index(times, t2)
    if abs(times[i2] - t2) > 1e-9:
        raise ValueError("t2 must lie on the recorded grid")
    rec_dt = float(times[1] - times[0])
    per_window = round(t_window / rec_dt)
    if abs(per_window * rec_dt - t_window) > 1e-6:
        raise ValueError("window length must be a multiple of the record step")
    k_max = int((len(times) - 1 - i2) // per_window)
    if k_max < 1:
        raise ValueError("trajectory too short for a single window past t2")

    windows = []
    for k in range(k_max):
        i_start = i2 + k * per_window
        t_start = float(times[i_start])
        restart_rates = replace(spec.rates, t0=t_start)
        restart_spec = SystemSpec(
            kind=det_kind,
            mmap=spec.mmap,
            objective=spec.objective,
            rates=restart_rates,
            noise=ZeroNoise(spec.mmap.dim),
            x0=traj.x[i_start],
            z0=traj.z[i_start],
        )
        det = simulate(
            restart_spec,
            traj.certificate,
            t_end=t_start + t_window,
            h=traj.h,
            record_stride=traj.record_stride,
        )
        sto_slice = traj.energy[i_start : i_start + len(det.times)]
        distance = float(np.abs(sto_slice - det.energy).max())
        windows.append(
            RestartWindow(
                t_start=t_start,
                sup_distance=distance,
                energies=det.energy,
                times=det.times,
            )
        )
    return AptReport(
        t2=float(times[i2]),
        epsilon=epsilon,
        t_window=t_window,
        windows=tuple(windows),
    )
