"""Time-stepping integrators for the mirror descent flows.

Five systems share one explicit scheme, implemented once in `bind_step`
(Euler for the drift, Euler-Maruyama for the noise, both state updates
evaluated at the left endpoint):

- ``md``:    z' = -grad f(x),            x = grad_psi_star(z / s(t))
- ``smd``:   dZ = -[grad f dt + sigma dB], X = grad_psi_star(Z / s(t))
- ``amd``:   z' = -eta grad f(x),        x' = a (grad_psi_star(z / s) - x)
- ``samd``:  dZ = -eta [grad f dt + sigma dB], dX = a (grad_psi_star(Z/s) - X) dt
- ``nesterov``: x'' = -grad f(x) - x' (beta + 1) / t, unconstrained

Alongside the states, a run records the optimality gap, the energy
r(t) * gap + s(t) * D(z / s, z*), the accumulated noise strength
b(t) = integral of (eta * sigma_star)^2 from t0 (in closed form: the bound
sigma_star does not depend on the path), and the running Ito integral of
<V, dB> with V = -eta sigma^T (mirror - x*), using the same Gaussian
increments as the dual update: the step adds each increment on Python
floats, left to right, so the integral takes no BLAS dot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasiblePoint, NonFinite, StepTooLarge, StrideTooCoarse
from .maps import EuclideanMap, MirrorMap
from .noise import NoiseModel, NoiseStream, ZeroNoise, make_noise
from .objectives import MinimizerCertificate, Objective
from .schedules import (CONSTANT_ONE, PowerLaw, RateBundle, averaging_weight, check_admissible,
                        noise_integral)

SYSTEM_KINDS = ("md", "smd", "amd", "samd", "nesterov")
DETERMINISTIC_KINDS = ("md", "amd", "nesterov")
#: each stochastic kind and the deterministic kind it reduces to without noise
DETERMINISTIC_TWIN = {"smd": "md", "samd": "amd"}
STOCHASTIC_KINDS = tuple(DETERMINISTIC_TWIN)
#: the kinds whose primal state averages the mirror point at rate a(t)
AVERAGED_KINDS = ("amd", "samd")
#: primal averaging must be a convex combination: a(t) * h <= this at every step
AVERAGING_STEP_LIMIT = 0.5
#: steps of Wiener increments drawn per call into the noise stream
NOISE_BLOCK_ROWS = 256
#: the most steps one run may take
MAX_STEPS = 10**9
#: the most bytes one run's recorded rows may take, at 2n + 5 float64 values a row
#: (the time, x, z, gap, energy, b and the martingale)
MAX_RECORD_BYTES = 2**30


@dataclass(frozen=True)
class SystemSpec:
    """One dynamics configuration: system kind, geometry, objective, rates,
    noise model, and the initial primal/dual pair."""

    kind: str
    mmap: MirrorMap
    objective: Objective
    rates: RateBundle
    noise: NoiseModel
    x0: np.ndarray
    z0: np.ndarray
    beta: float | None = None  # nesterov friction parameter

    def __post_init__(self):
        if self.kind not in SYSTEM_KINDS:
            raise ValueError(f"unknown system kind {self.kind!r}")
        if self.kind in DETERMINISTIC_KINDS and not self.noise.is_zero:
            raise ValueError(f"system {self.kind!r} requires the zero noise model")
        if self.kind == "nesterov":
            if not isinstance(self.mmap, EuclideanMap):
                raise ValueError("the second-order oscillator requires the euclidean map")
            if self.beta is None or self.beta < 2.0:
                raise ValueError("oscillator friction beta must be >= 2")
        if np.shape(self.x0) != (self.mmap.dim,):  # the map also admits stacked points
            raise InfeasiblePoint(f"x0 must have shape ({self.mmap.dim},), "
                                  f"got {np.shape(self.x0)}")
        self.mmap.require_feasible(np.asarray(self.x0, dtype=float))

    @property
    def is_stochastic(self) -> bool:
        return self.kind in STOCHASTIC_KINDS and not self.noise.is_zero


def noise_for(kind: str, noise_kind: str, sigma0: float, alpha_sigma: float,
              mmap: MirrorMap) -> NoiseModel:
    """The noise model of a `kind` system: `make_noise`'s model for the
    stochastic kinds, ZeroNoise for the deterministic ones."""
    if kind in STOCHASTIC_KINDS:
        return make_noise(noise_kind, sigma0, alpha_sigma, mmap)
    return ZeroNoise(mmap.dim)


def nesterov_bundle(beta: float, t0: float = 1.0) -> RateBundle:
    """Rates r = t^2 / beta^2, eta = t / beta, a = beta / t under which the
    averaged flow on the euclidean map reduces to the damped oscillator."""
    return RateBundle(
        eta=PowerLaw(1.0 / beta, 1.0),
        r=PowerLaw(1.0 / beta**2, 2.0),
        s=CONSTANT_ONE,
        t0=t0,
    )


def md_bundle(alpha_s: float = 0.0, t0: float = 1.0) -> RateBundle:
    """Rates for the non-accelerated flows: unit learning rate and energy
    weight, inverse sensitivity s = t^alpha_s."""
    return RateBundle(eta=CONSTANT_ONE, r=CONSTANT_ONE, s=PowerLaw(1.0, alpha_s), t0=t0)


def energy_anchor(mmap: MirrorMap, z_star: np.ndarray) -> tuple:
    """The energy's fixed dual anchor (z*, psi*(z*), grad psi*(z*)): compute
    it once per run and pass it to every `energy_value` call."""
    z_star = np.asarray(z_star, dtype=float)
    return z_star, mmap.psi_star(z_star), mmap.grad_psi_star(z_star)


def energy_value(
    mmap: MirrorMap,
    rates: RateBundle,
    anchor: tuple,
    gap,
    z: np.ndarray,
    t,
):
    """Energy r(t) * gap + s(t) * D_conjugate(z / s(t), z*), with `anchor`
    from `energy_anchor`. Rows may be stacked: gaps and times of shape (...)
    with duals of shape (..., n) give the energy of each row."""
    s_t = _law_at(rates.s, t)
    return _law_at(rates.r, t) * gap + s_t * mmap.bregman_div_star_at(
        z / s_t[..., None], *anchor
    )


def _law_at(law: PowerLaw, t) -> np.ndarray:
    """law.value at t, or at each of an array of times, through the Python
    `**` one time at a time: numpy's array `**` can differ in the last bit."""
    if np.ndim(t) == 0:
        return np.asarray(law.value(t))
    t = np.asarray(t, dtype=float)
    values = map(law.value, map(float, t.flat))
    return np.fromiter(values, dtype=float, count=t.size).reshape(t.shape)


def _law_closure(law: PowerLaw):
    """law.value as a closure over one step time, without the t > 0 check
    (step times start at t0 > 0). A constant law returns its coefficient:
    coef * t**0.0 is coef exactly."""
    coef, exponent = law.coef, law.exponent
    if exponent == 0.0:
        return lambda t: coef
    return lambda t: coef * t**exponent


def bind_step(spec: SystemSpec, x_star: np.ndarray | None = None):
    """The step of `spec`'s flow with its objective, map, rates and noise
    bound once: advance(x, z, t, hk, dW) -> (x_new, z_new, dmart).

    It takes one step of length hk from time t, using only time-t quantities
    on the right-hand side; ``z`` holds the velocity for the oscillator and
    ``dW`` is the Wiener increment (None: no noise arithmetic). md/smd are
    the averaged systems' dual update with eta = 1; only the primal update
    and the oscillator's velocity form differ per kind. Besides the new
    state, with the dual already projected, it returns the Ito integral's
    increment dmart = <-eta sigma^T (anchor - x_star), dW>, the anchor being
    the time-t mirror point (x itself for md/smd): the sum over i of
    (-eta * (d_i * (anchor_i - x_star_i))) * dW_i, with d sigma's diagonal,
    added left to right from 0.0. It is 0.0 without noise or x_star.

    States, increments and the anchor are lists of Python floats, whose
    arithmetic rounds as numpy's elementwise operations do; numpy computes
    only what Python would round otherwise: the objective's gradient, exp
    and `row_sum`'s sums of many coordinates. The step never modifies a list
    in place, so it may return (and the caller may keep) its inputs."""
    kind, rates = spec.kind, spec.rates
    gradient = spec.objective.gradient
    mirror, project = spec.mmap.point_functions()
    diag = spec.noise.diag
    averaged = kind in AVERAGED_KINDS
    eta_at, a_at = _law_closure(rates.eta), _law_closure(rates.a)
    if rates.s == CONSTANT_ONE:  # z / 1.0 is z exactly
        def mirror_at(z, t):
            return mirror(z)
    else:
        s_at = _law_closure(rates.s)

        def mirror_at(z, t):
            s = s_at(t)
            return mirror([v / s for v in z])

    if kind == "nesterov":
        friction = spec.beta + 1.0

        def advance(x, z, t, hk, dW=None):
            damping = friction / t
            dz = [hk * (-g - v * damping) for g, v in zip(gradient(x).tolist(), z)]
            return ([u + hk * v for u, v in zip(x, z)], project([v + dv for v, dv in zip(z, dz)]),
                    0.0)

        return advance

    star = None if x_star is None else np.asarray(x_star, dtype=float).tolist()

    def advance(x, z, t, hk, dW=None):
        g = gradient(x).tolist()
        if averaged:
            eta = eta_at(t)
            anchor = mirror_at(z, t)
        else:
            eta = 1.0
            anchor = x
        dmart = 0.0
        # the scalar factor carries the sign: exact, and one operation fewer
        if dW is None:
            scale = -(eta * hk)
            dz = [scale * gi for gi in g]
        else:
            d = diag(x, t)  # a scalar, or one volatility per coordinate
            ds = d.tolist() if isinstance(d, np.ndarray) else [d] * len(g)
            neg_eta = -eta
            dz = [neg_eta * (hk * gi + di * w) for gi, di, w in zip(g, ds, dW)]
            if star is not None:  # not `sum`, which compensates from Python 3.12
                for di, m, s, w in zip(ds, anchor, star, dW):
                    dmart += (neg_eta * (di * (m - s))) * w
        z_new = project([v + dv for v, dv in zip(z, dz)])
        if averaged:
            pull = a_at(t) * hk
            x_new = [u + pull * (m - u) for u, m in zip(x, anchor)]
        else:
            x_new = mirror_at(z_new, t + hk)
        return x_new, z_new, dmart

    return advance


@dataclass
class Trajectory:
    """Recorded run: strictly increasing times with state snapshots, the
    accumulated noise strength b and the Ito integral. ``z`` holds the
    velocity for oscillator runs. Energy and martingale series are None
    when no interior dual anchor exists (gap-only recording)."""

    times: np.ndarray
    x: np.ndarray
    z: np.ndarray
    gap: np.ndarray
    energy: np.ndarray | None
    b: np.ndarray
    martingale: np.ndarray | None
    h: float
    record_stride: int
    spec: SystemSpec = field(repr=False)
    certificate: MinimizerCertificate = field(repr=False)

    @property
    def has_energy(self) -> bool:
        return self.energy is not None

    @property
    def n_recorded(self) -> int:
        return len(self.times)

    def to_csv(self, path) -> None:
        """Write `t, x_1..x_n, z_1..z_n, gap, energy, b, martingale`; the
        energy/martingale cells stay empty when those series are absent."""
        names = range(1, self.x.shape[1] + 1)
        header = ["t", *(f"x_{i}" for i in names), *(f"z_{i}" for i in names),
                  "gap", "energy", "b", "martingale"]
        write_csv(path, header, [self.times, *self.x.T, *self.z.T, self.gap, self.energy,
                                 self.b, self.martingale])


def nearest_index(times: np.ndarray, t: float) -> int:
    """Index of the recorded time nearest to t; the first one on a tie."""
    return int(np.abs(times - t).argmin())


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path, header, columns) -> None:
    """Write a header line, then one row per index of the equally long
    `columns`. A float cell is written as repr(float(v)), any other cell as
    str(v); a None column or cell stays empty."""
    rows = len(next(col for col in columns if col is not None))
    cells = [[""] * rows if col is None else [_csv_cell(v) for v in col] for col in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(row) + "\n" for row in (header, *zip(*cells)))


def step_guard(rates: RateBundle, h: float, t_end: float) -> str | None:
    """Why step h is too large for the averaged systems on [t0, t_end], or
    None: primal averaging stays a convex combination only while
    a(t) * h <= 1/2 at every step start t. The power law a peaks at the
    first step start or, when it grows, at the last one."""
    n_steps, _ = step_count(rates.t0, t_end, h)
    t_peak = rates.t0 if rates.a.exponent <= 0 else rates.t0 + (n_steps - 1) * h
    ah = rates.a.value(t_peak) * h
    if ah > AVERAGING_STEP_LIMIT + 1e-12:
        return (
            f"a(t) * h = {ah:.3g} at t = {t_peak:g} exceeds {AVERAGING_STEP_LIMIT}: "
            "shrink the step h so the primal averaging step stays a convex combination"
        )
    return None


def step_count(t0: float, t_end: float, h: float) -> tuple[int, bool]:
    """Steps covering [t0, t_end] and whether the span is an exact multiple
    of h (within 1e-9 relative); inexact spans clip the final step. Raise
    ValueError when (t_end - t0) / h is too large for a float."""
    span = (t_end - t0) / h
    if math.isinf(span):
        raise ValueError(f"h = {h!r} is too small: (t_end - t0) / h overflows")
    n = round(span)
    if n >= 1 and abs(span - n) < 1e-9 * max(1.0, span):
        return int(n), True
    return max(math.ceil(span), 1), False


def step_fits_span(t0: float, t_end: float, h: float) -> bool:
    """Whether 0 < h <= t_end - t0, with the 1e-9 tolerance of `step_count`:
    a span it counts as one exact step admits h even when t_end - t0 rounds
    below h."""
    return h > 0 and step_count(t0, t_end, h) != (1, False)


def run_size_error(t0: float, t_end: float, h: float, record_stride: int,
                   dim: int, count: int = 1) -> str | None:
    """Why `count` runs of step h on [t0, t_end], each recording every
    record_stride-th state of dim coordinates, are too large to hold at once,
    or None: each may take at most MAX_STEPS steps, and their recorded rows
    together at most MAX_RECORD_BYTES."""
    n_steps, _ = step_count(t0, t_end, h)
    if n_steps > MAX_STEPS:
        return f"{n_steps:.3g} steps exceed the cap of {MAX_STEPS:.3g}"
    rows = -(-n_steps // record_stride) + 1
    size = count * rows * (2 * dim + 5) * 8
    if size > MAX_RECORD_BYTES:
        runs = f"{count} runs of " if count > 1 else ""
        return (f"{runs}{rows} recorded rows of {dim} coordinates take "
                f"{size / 2**30:.3g} GiB, more than the cap of {MAX_RECORD_BYTES / 2**30:g} GiB")
    return None


def check_run(t0: float, t_end: float, h: float, record_stride: int, dim: int,
              count: int = 1) -> None:
    """Raise ValueError unless `count` runs of step h on [t0, t_end], each
    recording every record_stride-th state of dim coordinates, may start:
    0 < h <= t_end - t0, record_stride >= 1, and `run_size_error`'s caps for
    one run and for all `count` held at once."""
    if t_end <= t0:
        raise ValueError("t_end must exceed the bundle start time")
    if not step_fits_span(t0, t_end, h):
        raise ValueError("need 0 < h <= t_end - t0")
    if record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    too_large = run_size_error(t0, t_end, h, record_stride, dim)
    if too_large is not None:
        raise ValueError(f"h = {h!r} is too small: {too_large}")
    too_large = run_size_error(t0, t_end, h, record_stride, dim, count)
    if too_large is not None:
        raise ValueError(f"count = {count} is too large: {too_large}")


def record_grid(
    t0: float, t_end: float, h: float, record_stride: int
) -> tuple[list[int], np.ndarray]:
    """The recorded step indices (every record_stride-th step plus the
    final one) and their times, as `simulate` records them."""
    n_steps, exact_span = step_count(t0, t_end, h)
    rows = list(range(0, n_steps, record_stride)) + [n_steps]
    times = t0 + np.array(rows, dtype=float) * h
    if not exact_span:
        times[-1] = t_end  # the clipped final step of an inexact span
    return rows, times


def simulate(
    spec: SystemSpec,
    certificate: MinimizerCertificate,
    t_end: float,
    h: float,
    record_stride: int = 1,
    stream: NoiseStream | None = None,
) -> Trajectory:
    """Integrate one trajectory of the configured system on [t0, t_end].
    Raise before the first step when `check_run` refuses the run, or, for
    the averaged systems, it fails `step_guard` or `check_admissible`.

    Parameters
    ----------
    spec : the system; its rate bundle supplies the start time t0.
    certificate : minimizer anchor; supplies f* for gaps and, when interior,
        z* for the energy and the noise-projection integrand.
    t_end, h : horizon and step size (final step clipped onto t_end).
    record_stride : record every this-many steps (plus the final state).
    stream : per-trajectory Gaussian increment source (any object with
        `standard_normals(count)` and `position`); required for stochastic
        runs with a non-zero noise model. A completed run leaves
        it at position n * steps; one that raises may have drawn further.

    Returns
    -------
    Trajectory. Deterministic given (spec, certificate, stream seed, h).
    """
    rates = spec.rates
    t0 = rates.t0
    check_run(t0, t_end, h, record_stride, spec.mmap.dim)

    noisy = spec.is_stochastic
    if noisy and stream is None:
        raise ValueError("stochastic runs need a NoiseStream")
    if spec.kind in AVERAGED_KINDS:
        too_large = step_guard(rates, h, t_end)
        if too_large is not None:
            raise StepTooLarge(too_large)
        report = check_admissible(rates, horizon=t_end)
        if not report.passed:
            raise ValueError("rate bundle not admissible: " + "; ".join(report.failures()))

    mmap = spec.mmap
    objective = spec.objective
    n = mmap.dim
    f_star = certificate.f_star
    track_energy = spec.kind != "nesterov" and not certificate.boundary
    dual_anchor = energy_anchor(mmap, certificate.z_star) if track_energy else None
    x_star = certificate.x_star if track_energy else None

    n_steps, exact_span = step_count(t0, t_end, h)
    full_steps = n_steps if exact_span else n_steps - 1  # steps of length h
    rec_rows, times = record_grid(t0, t_end, h, record_stride)
    m = len(rec_rows)
    xs = np.empty((m, n))
    zs = np.empty((m, n))
    marts = np.empty(m)

    x = np.array(spec.x0, dtype=float)
    if spec.kind == "nesterov":
        # velocity consistent with the averaged form: v0 = a(t0) (z0 - x0)
        z = rates.a.value(t0) * (np.asarray(spec.z0, dtype=float) - x)
    else:
        z = np.array(spec.z0, dtype=float)
    x, z = x.tolist(), z.tolist()

    advance = bind_step(spec, x_star)
    # (start, stop, hk): the steps whose Wiener increments one (rows, n) draw
    # gives, NOISE_BLOCK_ROWS steps at a time. The stream gives the same
    # numbers whatever the block size, so a block draw gives the per-step
    # `standard_normals(n) * sqrt(hk)` increments and leaves the stream where
    # per-step draws would.
    blocks = [(start, min(start + NOISE_BLOCK_ROWS, full_steps), h)
              for start in range(0, full_steps, NOISE_BLOCK_ROWS)]
    if not exact_span:  # the clipped final step of an inexact span, drawn alone
        blocks.append((full_steps, n_steps, t_end - (t0 + full_steps * h)))
    mart = 0.0  # the Ito integral stays 0.0 without noise or x*
    ri = 0
    # a diverging run overflows in numpy before the finiteness check names it
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop, hk in blocks:
            rows = stop - start
            if noisy:
                dWs = (stream.standard_normals(n * rows).reshape(rows, n)
                       * math.sqrt(hk)).tolist()
            else:
                dWs = [None] * rows
            for k, dW in zip(range(start, stop), dWs):
                if k == rec_rows[ri]:  # the last recorded row, n_steps, lies past the loop
                    xs[ri] = x
                    zs[ri] = z
                    marts[ri] = mart
                    ri += 1
                t = t0 + k * h
                x, z, dmart = advance(x, z, t, hk, dW)
                mart += dmart

                # a sum is finite exactly when every coordinate is, short of
                # overflow, whatever the order it adds them in
                if not math.isfinite(sum(x)) or not math.isfinite(sum(z)):
                    part = "x" if not math.isfinite(sum(x)) else "z"
                    raise NonFinite(f"{part} became non-finite at step {k}; "
                                    f"the last finite state is at t = {t:g}")
    xs[ri] = x
    zs[ri] = z
    marts[ri] = mart

    gaps = objective.value(xs) - f_star
    energies = (energy_value(mmap, rates, dual_anchor, gaps, zs, times) if track_energy
                else None)
    # the step's eta: the averaged kinds' rate, 1 for md and smd
    eta = rates.eta if spec.kind in AVERAGED_KINDS else CONSTANT_ONE
    return Trajectory(
        times=times,
        x=xs,
        z=zs,
        gap=gaps,
        energy=energies,
        b=noise_integral(eta, spec.noise.sigma_star_power(), t0, times),
        martingale=marts if track_energy else None,
        h=h,
        record_stride=record_stride,
        spec=spec,
        certificate=certificate,
    )


def _cumulative_trapezoid(ts: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The integral of the rows of y over the times ts, from ts[0] to each
    time, by the trapezoid rule: one row per time, the first one zero."""
    dt = np.diff(ts)[:, None]
    return np.vstack([np.zeros(y.shape[1]), np.cumsum(0.5 * dt * (y[1:] + y[:-1]), axis=0)])


def averaged_iterate(traj: Trajectory) -> np.ndarray:
    """Running time-average of the primal trajectory on the recorded grid,
    by cumulative trapezoid; the first entry is the initial state."""
    if traj.n_recorded < 2:
        raise ValueError("need at least two recorded times")
    ts = traj.times
    integral = _cumulative_trapezoid(ts, traj.x)
    out = np.empty_like(traj.x)
    out[0] = traj.x[0]
    out[1:] = integral[1:] / (ts[1:, None] - ts[0])
    return out


def primal_average_residual(traj: Trajectory) -> float:
    """Consistency of the averaged primal recursion with its integral form:
    the max-norm distance between the recorded X(t) and
    (x0 w(t0) + integral of w' * mirror) / w(t), quadrature on the recorded
    mirror points. Needs per-step recording; shrinks at first order in h."""
    if traj.record_stride != 1:
        raise StrideTooCoarse("per-step recording (stride 1) required")
    if traj.spec.kind not in AVERAGED_KINDS:
        raise ValueError("only averaged systems have the integral form")
    rates = traj.spec.rates
    mmap = traj.spec.mmap
    ts = traj.times
    s = np.array([rates.s.value(t) for t in ts])
    mirrors = mmap.grad_psi_star(traj.z / s[:, None])
    w = np.array([averaging_weight(rates.a, rates.t0, t) for t in ts])
    wdot = np.array([rates.a.value(t) for t in ts]) * w
    integral = _cumulative_trapezoid(ts, wdot[:, None] * mirrors)
    reconstructed = (traj.x[0] + integral) / w[:, None]
    return float(np.abs(traj.x - reconstructed).max())
