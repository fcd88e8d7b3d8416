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

`bind_step` generates the stepping loop as straight-line code for the
spec, at every n. `simulate` calls it once per noise block; it keeps x, z
and the martingale in local Python floats across the block's steps, one
per coordinate, appends every recorded state to flat `array('d')` buffers,
and stops at the first non-finite state. Its sums take numpy's order: left
to right below `maps.PAIRWISE_MIN` (8) terms, pairwise through
`maps.row_sum` from there on. The noise model's sigma is float code at
every n, and below 8 coordinates (and, for a sum of exponentials, below 8
rows) so is the objective's gradient: with the softmax's `math.exp` the
step then calls no numpy arithmetic, and its bits depend on libm alone,
not on a BLAS kernel or numpy's SIMD dispatch. From 8 on, the gradient is
`Objective.gradient`'s numpy arithmetic. A process compiles each distinct
generated source once and keeps the 64 it used last.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasiblePoint, NonFinite, StepTooLarge, StrideTooCoarse
from .maps import PAIRWISE_MIN, EntropicSimplexMap, EuclideanMap, MirrorMap, row_sum
from .noise import (DiagonalPowerLawNoise, NoiseModel, NoiseStream, ScalarPowerLawNoise,
                    StateScaledNoise, ZeroNoise, make_noise)
from .objectives import MinimizerCertificate, Objective, Rank1Quadratic, SumExp
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


def energy_value(mmap: MirrorMap, rates: RateBundle, anchor: tuple, gap, z: np.ndarray, t):
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
    t = np.asarray(t, dtype=float)
    return np.array([law.value(u) for u in t.ravel().tolist()]).reshape(t.shape)


def bind_step(spec: SystemSpec, x_star: np.ndarray | None = None):
    """The stepping loop of `spec`'s flow with its objective, map, rates and
    noise bound once: run(x, z, mart, start, stop, t0, h, hk, dWs, stride,
    xs, zs, marts) -> (x, z, mart, failed).

    It takes steps k = start .. stop - 1, each of length hk from time
    t = t0 + k * h, using only time-t quantities on the right-hand side;
    ``z`` holds the velocity for the oscillator. A stochastic spec reads
    each step's Wiener increment from the rows of ``dWs``; any other
    ignores ``dWs`` and takes no noise arithmetic. md/smd are the averaged
    systems' dual update with eta = 1; only the primal update and the
    oscillator's velocity form differ per kind. Before each step k that is
    a multiple of stride it appends x, z and mart to the array('d') buffers
    xs, zs and marts. Each noisy step with an x_star adds the Ito
    integral's increment <-eta sigma^T (anchor - x_star), dW> to mart, the
    anchor being the time-t mirror point (x itself for md/smd): the sum
    over i of (-eta * (d_i * (anchor_i - x_star_i))) * dW_i, with d sigma's
    diagonal, added left to right from 0.0. It returns the state after the
    last step (the dual projected), mart and None; or, as soon as a step
    leaves x or z non-finite, that state, mart and the step's index.

    States and increments are lists of Python floats. Across its steps the
    loop keeps one local float per coordinate (from PAIRWISE_MIN on, also
    the lists x and z); the module docstring says where numpy computes.

    The loop is generated as straight-line code for the spec
    (`_step_source`). Its source holds the spec's floats as literals and is
    compiled once, so binding an equal spec again, or one that differs only
    in x0 and t0, reuses the code object."""
    make = _compiled_step(_step_source(spec, x_star))
    return make(spec.objective.gradient, math.exp, _exp_or_inf, math.tanh, row_sum,
                math.isfinite)


def _exp_or_inf(v: float) -> float:
    """math.exp(v), or inf where it overflows, as np.exp gives."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _literal(v) -> str:
    """Source text for the float v, bit for bit: its repr, parenthesised
    when negative, and through float() when not finite."""
    text = repr(float(v))
    if not math.isfinite(v):
        return f"float({text!r})"
    return f"({text})" if text.startswith("-") else text


def _power_source(coef: float, exponent: float, at: str) -> str:
    """Source text for coef * at ** exponent at the time expression `at`,
    as `PowerLaw.value` takes it without the t > 0 check (step times start
    at t0 > 0). A constant law is its coefficient: coef * t**0.0 is coef
    exactly."""
    if exponent == 0.0:
        return _literal(coef)
    return f"{_literal(coef)} * {at} ** {_literal(exponent)}"


def _gradient_source(objective: Objective, n: int, x: str) -> list[str]:
    """Statements that set g0.. to the objective's gradient at x0..: float
    code when each of its sums has fewer than PAIRWISE_MIN terms, so they
    run left to right from 0.0, and otherwise `gradient` of `x`, the
    source of a list of the current x0... For SumExp
    that is u_i = <c_i, x>, e_i = exp(u_i) and g_j = sum_i e_i c_ij, for
    Rank1Quadratic u = <c, x> and g_j = u c_j, the coefficients literals.
    An exponential that overflows is inf, as in `gradient`."""
    names = ", ".join(f"g{j}" for j in range(n)) + ","

    def chain(terms) -> str:
        return "0.0 + " + " + ".join(terms)

    if isinstance(objective, SumExp) and max(objective.coefficients.shape) < PAIRWISE_MIN:
        C = objective.coefficients.tolist()
        rows = range(len(C))
        exps = ", ".join(f"e{i}" for i in rows) + ","
        return [*(f"u{i} = {chain(f'{_literal(c)} * x{j}' for j, c in enumerate(C[i]))}"
                  for i in rows),
                "try:",
                f"    {exps} = {', '.join(f'exp(u{i})' for i in rows)},",
                "except OverflowError:",
                f"    {exps} = {', '.join(f'exp_or_inf(u{i})' for i in rows)},",
                f"{names} = " + ", ".join(chain(f"e{i} * {_literal(C[i][j])}" for i in rows)
                                          for j in range(n)) + ","]
    if isinstance(objective, Rank1Quadratic) and n < PAIRWISE_MIN:
        c = objective.c.tolist()
        return [f"u = {chain(f'{_literal(cj)} * x{j}' for j, cj in enumerate(c))}",
                f"{names} = " + ", ".join(f"u * {_literal(cj)}" for cj in c) + ","]
    return [f"{names} = gradient({x}).tolist()"]


def _noise_source(noise: NoiseModel, n: int) -> list[str]:
    """Statements that set d0.. to the diagonal of sigma(x, t) at x0..: the
    scalar law sigma0 * t ** alpha; for the diagonal model each s0_i times
    one shared t ** alpha, the bits of s0_i * t ** alpha; for the
    state-scaled model its base law times 1 + gain * tanh(u), u = <direction,
    x - center> added one coordinate per statement, left to right from 0.0;
    0.0 for zero noise. No coefficient passes through a PowerLaw, so a zero
    volatility is written as any other."""
    names = ", ".join(f"d{i}" for i in range(n)) + ","
    if isinstance(noise, DiagonalPowerLawNoise):
        return [f"tp = t ** {_literal(noise.alphas[0])}",
                f"{names} = " + ", ".join(f"{_literal(s)} * tp" for s in noise.sigma0s) + ","]
    if isinstance(noise, ScalarPowerLawNoise):
        lines = [f"d = {_power_source(noise.sigma0, noise.alpha, 't')}"]
    elif isinstance(noise, StateScaledNoise):
        pairs = enumerate(zip(noise.direction.tolist(), noise.center.tolist()))
        base = _power_source(noise.base.sigma0, noise.base.alpha, "t")
        lines = ["u = 0.0",
                 *(f"u += {_literal(v)} * (x{i} - {_literal(c)})" for i, (v, c) in pairs),
                 f"d = {base} * (1.0 + {_literal(noise.gain)} * tanh(u))"]
    else:
        lines = ["d = 0.0"]
    return [*lines, f"{names} = {'d, ' * n}"]


def _step_source(spec: SystemSpec, x_star: np.ndarray | None) -> str:
    """Source of `make(gradient, exp, exp_or_inf, tanh, row_sum, isfinite)
    -> run`, `bind_step`'s loop written out for spec's n coordinates: x0..,
    z0.. the state, g the gradient (`_gradient_source`), m the mirror point,
    w the increment, d the volatility diagonal (`_noise_source`), y the new
    dual. The loop's body is one step, with the noise branch only for a
    stochastic spec; each coordinate's update is one expression. The
    softmax's top is taken by `>` compares, which keep the first maximum as
    `max` does, then one exp(m_i - top) per coordinate; its total and the
    projection's mean take `np.add.reduce`'s order: a chain from 0.0 below
    PAIRWISE_MIN coordinates, `row_sum` from there on. The finiteness test
    sums x and z as a chain below PAIRWISE_MIN, with `sum` from there on,
    and the Ito increment is added one coordinate per statement, so no
    expression nests deeper as n grows. The text holds only this template
    and `_literal`s of the spec's floats."""
    n = spec.mmap.dim
    rates = spec.rates
    entropic = isinstance(spec.mmap, EntropicSimplexMap)

    def each(template: str, sep: str = ", ") -> str:
        return sep.join(template.replace("#", str(i)) for i in range(n))

    def names(prefix: str) -> str:
        return each(prefix + "#") + ","

    def assign(prefix: str, template: str) -> str:
        """One tuple assignment of `template` to the names of `prefix`."""
        return f"{names(prefix)} = {each(template)},"

    def total(prefix: str) -> str:
        """The sum of the names of `prefix`, with the bits of `row_sum`."""
        if n < PAIRWISE_MIN:
            return f"(0.0 + {each(prefix + '#', ' + ')})"
        return f"row_sum([{each(prefix + '#')}])"

    # from PAIRWISE_MIN coordinates on the loop also keeps the state in the lists
    # x and z, so the gradient, finiteness test and recording build none per step
    listed = n >= PAIRWISE_MIN
    state = {p: p if listed else f"[{each(p + '#')}]" for p in "xz"}
    body = ["if k % stride == 0:",
            f"    record_x({state['x']})",
            f"    record_z({state['z']})",
            "    record_mart(mart)",
            "t = t0 + k * h",
            *_gradient_source(spec.objective, n, state["x"])]
    emit = body.append

    def mirror(src: str, at: str) -> str:
        """Emit the mirror point of the dual `src` at time `at`; return the
        prefix of its names."""
        if rates.s != CONSTANT_ONE:  # z / 1.0 is z exactly
            emit(f"s = {_power_source(rates.s.coef, rates.s.exponent, at)}")
            emit(assign("m", src + "# / s"))
            src = "m"
        if not entropic:
            return src
        emit(f"top = {src}0")
        body.extend(f"if {src}{i} > top: top = {src}{i}" for i in range(1, n))
        emit(assign("m", f"exp({src}# - top)"))
        emit(f"total = {total('m')}")
        emit(assign("m", "m# / total"))
        return "m"

    if spec.kind == "nesterov":
        emit(f"damping = {_literal(spec.beta + 1.0)} / t")
        x_new, y = "x# + hk * z#", "z# + hk * (-g# - z# * damping)"
    else:
        averaged = spec.kind in AVERAGED_KINDS
        if averaged:
            emit(f"eta = {_power_source(rates.eta.coef, rates.eta.exponent, 't')}")
            anchor = mirror("z", "t")
        else:
            emit("eta = 1.0")
            anchor = "x"
        if spec.is_stochastic:
            body.extend(_noise_source(spec.noise, n))
            emit("neg_eta = -eta")
            emit(assign("y", "z# + neg_eta * (hk * g# + d# * w#)"))
            if x_star is not None:
                star = np.asarray(x_star, dtype=float).tolist()
                emit("dmart = 0.0")
                body.extend(f"dmart += neg_eta * (d{i} * ({anchor}{i} - {_literal(s)})) * w{i}"
                            for i, s in enumerate(star))
                emit("mart += dmart")
        else:
            emit("scale = -(eta * hk)")
            emit(assign("y", "z# + scale * g#"))
        if entropic:
            emit(f"mean = {total('y')} / {_literal(n)}")
            emit(assign("y", "y# - mean"))
        if averaged:
            emit(f"pull = {_power_source(rates.a.coef, rates.a.exponent, 't')} * hk")
            x_new = f"x# + pull * ({anchor}# - x#)"
        else:
            x_new = mirror("y", "(t + hk)") + "#"
        y = "y#"
    if listed:
        emit(f"x, z = [{each(x_new)}], [{each(y)}]")
        emit("if not isfinite(sum(x)) or not isfinite(sum(z)):")
    else:
        emit(f"{names('x')} {names('z')} = {each(x_new)}, {each(y)},")
        emit(f"if not isfinite({each('x#', ' + ')}) or not isfinite({each('z#', ' + ')}):")
    emit(f"    return {state['x']}, {state['z']}, mart, k")
    if listed:
        body.extend((f"{names('x')} = x", f"{names('z')} = z"))
    steps = (f"for k, ({names('w')}) in zip(range(start, stop), dWs):" if spec.is_stochastic
             else "for k in range(start, stop):")
    return "\n".join(["def make(gradient, exp, exp_or_inf, tanh, row_sum, isfinite):",
                      "    def run(x, z, mart, start, stop, t0, h, hk, dWs, stride, xs, zs, marts):",
                      f"        {names('x')} {names('z')} = *x, *z",
                      "        record_x, record_z, record_mart = xs.extend, zs.extend, marts.append",
                      f"        {steps}",
                      *("            " + line for line in body),
                      f"        return {state['x']}, {state['z']}, mart, None",
                      "    return run", ""])


@functools.lru_cache(maxsize=64)
def _compiled_step(source: str):
    """The `make` function that `source` defines, compiled once per source."""
    namespace = {}
    exec(compile(source, "<generated step>", "exec"), namespace)
    return namespace["make"]


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


def record_grid(t0: float, t_end: float, h: float, record_stride: int) -> np.ndarray:
    """The times of the states `simulate` records: at every
    record_stride-th step and after the final one."""
    n_steps, exact_span = step_count(t0, t_end, h)
    times = t0 + np.append(np.arange(0, n_steps, record_stride), n_steps).astype(float) * h
    if not exact_span:
        times[-1] = t_end  # the clipped final step of an inexact span
    return times


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
    n = mmap.dim
    track_energy = spec.kind != "nesterov" and not certificate.boundary
    dual_anchor = energy_anchor(mmap, certificate.z_star) if track_energy else None
    x_star = certificate.x_star if track_energy else None

    n_steps, exact_span = step_count(t0, t_end, h)
    full_steps = n_steps if exact_span else n_steps - 1  # steps of length h
    times = record_grid(t0, t_end, h, record_stride)

    x = np.array(spec.x0, dtype=float)
    if spec.kind == "nesterov":
        # velocity consistent with the averaged form: v0 = a(t0) (z0 - x0)
        z = rates.a.value(t0) * (np.asarray(spec.z0, dtype=float) - x)
    else:
        z = np.array(spec.z0, dtype=float)
    x, z = x.tolist(), z.tolist()

    run = bind_step(spec, x_star)
    # (start, stop, hk): the steps whose Wiener increments one (rows, n) draw
    # gives, NOISE_BLOCK_ROWS steps at a time. The stream gives the same
    # numbers whatever the block size, so a block draw gives the per-step
    # `standard_normals(n) * sqrt(hk)` increments and leaves the stream where
    # per-step draws would.
    blocks = [(start, min(start + NOISE_BLOCK_ROWS, full_steps), h)
              for start in range(0, full_steps, NOISE_BLOCK_ROWS)]
    if not exact_span:  # the clipped final step of an inexact span, drawn alone
        blocks.append((full_steps, n_steps, t_end - (t0 + full_steps * h)))
    xs, zs, marts = array("d"), array("d"), array("d")
    mart = 0.0  # the Ito integral stays 0.0 without noise or x*
    # a diverging run overflows in numpy before the finiteness test names it
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop, hk in blocks:
            dWs = ((stream.standard_normals(n * (stop - start)).reshape(-1, n)
                    * math.sqrt(hk)).tolist() if noisy else None)
            x, z, mart, failed = run(x, z, mart, start, stop, t0, h, hk, dWs, record_stride,
                                     xs, zs, marts)
            if failed is not None:
                # a sum is finite exactly when every coordinate is, short of
                # overflow, whatever the order it adds them in
                part = "x" if not math.isfinite(sum(x)) else "z"
                raise NonFinite(f"{part} became non-finite at step {failed}; "
                                f"the last finite state is at t = {t0 + failed * h:g}")
    xs.extend(x)
    zs.extend(z)
    marts.append(mart)
    xs = np.frombuffer(xs).reshape(len(times), n)
    zs = np.frombuffer(zs).reshape(len(times), n)

    gaps = spec.objective.value(xs) - certificate.f_star
    energies = (energy_value(mmap, rates, dual_anchor, gaps, zs, times) if track_energy
                else None)
    # the step's eta: the averaged kinds' rate, 1 for md and smd
    eta = rates.eta if spec.kind in AVERAGED_KINDS else CONSTANT_ONE
    return Trajectory(times=times, x=xs, z=zs, gap=gaps, energy=energies,
                      b=noise_integral(eta, spec.noise.sigma_star_power(), t0, times),
                      martingale=np.frombuffer(marts) if track_energy else None, h=h,
                      record_stride=record_stride, spec=spec, certificate=certificate)


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
    times = ts.tolist()
    s = np.array([rates.s.value(t) for t in times])
    mirrors = mmap.grad_psi_star(traj.z / s[:, None])
    w = np.array([averaging_weight(rates.a, rates.t0, t) for t in times])
    wdot = np.array([rates.a.value(t) for t in times]) * w
    integral = _cumulative_trapezoid(ts, wdot[:, None] * mirrors)
    reconstructed = (traj.x[0] + integral) / w[:, None]
    return float(np.abs(traj.x - reconstructed).max())
