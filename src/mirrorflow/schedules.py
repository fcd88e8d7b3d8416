"""Time-dependent rate functions and the exponent-selection rules.

Power laws coef * t^exponent are the first-class schedule family: products,
derivatives, and integrals stay closed-form, and every admissibility
condition reduces to coefficient/exponent inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidRegime, NonPositiveTime


@dataclass(frozen=True)
class PowerLaw:
    """Schedule value(t) = coef * t^exponent on t > 0."""

    coef: float
    exponent: float

    def __post_init__(self):
        if self.coef <= 0:
            raise ValueError("schedule coefficient must be positive")

    def value(self, t: float) -> float:
        if t <= 0:
            raise NonPositiveTime(f"schedule evaluated at t = {t}")
        return self.coef * t**self.exponent

    def derivative(self, t: float) -> float:
        if t <= 0:
            raise NonPositiveTime(f"schedule derivative at t = {t}")
        return self.coef * self.exponent * t ** (self.exponent - 1.0)

    def integral(self, t0: float, t: float) -> float:
        """Closed-form integral of the schedule over [t0, t]."""
        if t0 <= 0 or t <= 0:
            raise NonPositiveTime("integral endpoints must be positive")
        if self.exponent == -1.0:
            return self.coef * math.log(t / t0)
        p = self.exponent + 1.0
        return self.coef * (t**p - t0**p) / p

    def __mul__(self, other: "PowerLaw") -> "PowerLaw":
        return PowerLaw(self.coef * other.coef, self.exponent + other.exponent)

    def __truediv__(self, other: "PowerLaw") -> "PowerLaw":
        return PowerLaw(self.coef / other.coef, self.exponent - other.exponent)

    def squared(self) -> "PowerLaw":
        return PowerLaw(self.coef**2, 2.0 * self.exponent)

    @property
    def is_constant(self) -> bool:
        return self.exponent == 0.0


CONSTANT_ONE = PowerLaw(1.0, 0.0)


def noise_integral(eta: PowerLaw, sigma_star: PowerLaw | None, t0: float, t,
                   per: PowerLaw = CONSTANT_ONE):
    """Closed-form integral over [t0, t] of eta^2 sigma_star^2 / per, at
    one time t or at each of a sequence of times (an array); zero noise
    (None) integrates to 0. The integrand law is built once per call, and
    rounds as (eta^2 sigma_star^2) / per. With the default `per` this is
    the accumulated noise strength b(t)."""
    if sigma_star is None:
        return 0.0 if np.ndim(t) == 0 else np.zeros(len(t))
    law = eta.squared() * sigma_star.squared() / per
    if np.ndim(t) == 0:
        return law.integral(t0, t)
    return np.array([law.integral(t0, u) for u in np.asarray(t, dtype=float).tolist()])


@dataclass(frozen=True)
class RateBundle:
    """The rate functions driving one accelerated run: dual learning rate
    eta, energy weight r, inverse sensitivity s, and the implied primal
    averaging rate a = eta / r, anchored at start time t0."""

    eta: PowerLaw
    r: PowerLaw
    s: PowerLaw
    t0: float = 1.0
    a: PowerLaw = field(init=False)

    def __post_init__(self):
        if self.t0 <= 0:
            raise NonPositiveTime("bundle start time must be positive")
        object.__setattr__(self, "a", self.eta / self.r)


def coupled_bundle(alpha_r: float, alpha_s: float, t0: float = 1.0) -> RateBundle:
    """Power-law bundle r = t^alpha_r, s = t^alpha_s with the default
    coupling eta = dr/dt (requires alpha_r > 0)."""
    if alpha_r <= 0:
        raise InvalidRegime("energy-weight exponent must be positive for eta = r'")
    return RateBundle(
        eta=PowerLaw(alpha_r, alpha_r - 1.0),
        r=PowerLaw(1.0, alpha_r),
        s=PowerLaw(1.0, alpha_s),
        t0=t0,
    )


def averaging_weight(a: PowerLaw, t0: float, t: float) -> float:
    """Averaging weight w(t) = exp(integral of a over [t0, t]), w(t0) = 1."""
    if t < t0:
        raise NonPositiveTime(f"t = {t} precedes t0 = {t0}")
    return math.exp(a.integral(t0, t))


@dataclass(frozen=True)
class ConditionReport:
    """One named analytic condition with its verdict."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AdmissibilityReport:
    conditions: tuple[ConditionReport, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def failures(self) -> list[str]:
        return [f"{c.name}: {c.detail}" for c in self.conditions if not c.passed]


def check_admissible(bundle: RateBundle, horizon: float) -> AdmissibilityReport:
    """Analytic admissibility of a power-law bundle on [t0, horizon]: s
    non-decreasing and eta >= dr/dt. The coupling a = eta / r needs no check:
    `RateBundle` sets a itself."""
    if horizon <= bundle.t0:
        raise NonPositiveTime("horizon must exceed the bundle start time")
    conditions = []

    s_ok = bundle.s.exponent >= 0.0
    conditions.append(
        ConditionReport(
            "inverse sensitivity non-decreasing",
            s_ok,
            f"s exponent {bundle.s.exponent:g} "
            + ("(>= 0)" if s_ok else "(< 0: s decreases, noise damping inverted)"),
        )
    )

    # eta(t) >= r'(t) on [t0, horizon]; both sides are power laws, so the
    # ratio eta / r' is monotone and only the endpoints need checking.
    if bundle.r.coef * bundle.r.exponent <= 0.0:
        conditions.append(
            ConditionReport(
                "learning rate dominates energy-weight derivative",
                True,
                "r is non-increasing, condition vacuous",
            )
        )
    else:
        endpoints = (bundle.t0, horizon)
        margins = [bundle.eta.value(t) - bundle.r.derivative(t) for t in endpoints]
        worst = int(np.argmin(margins))
        ok = margins[worst] >= -1e-12 * max(1.0, bundle.eta.value(endpoints[worst]))
        conditions.append(
            ConditionReport(
                "learning rate dominates energy-weight derivative",
                ok,
                f"min(eta - r') = {margins[worst]:.3e} at t = {endpoints[worst]:g}",
            )
        )
    return AdmissibilityReport(tuple(conditions))


def optimal_amd_exponents(alpha_sigma: float, alpha_s: float) -> float:
    """Energy-weight exponent balancing the sensitivity and noise terms of
    the expected-gap bound: alpha_r = alpha_s - alpha_sigma + 1/2."""
    if alpha_sigma >= 0.5:
        raise InvalidRegime(
            f"noise growth exponent {alpha_sigma:g} >= 1/2: expected gap cannot decay"
        )
    alpha_r = alpha_s - alpha_sigma + 0.5
    if alpha_r <= 0:
        raise InvalidRegime(f"derived exponent alpha_r = {alpha_r:g} is not positive")
    return alpha_r


@dataclass(frozen=True)
class SensitivityChoice:
    alpha_s: float
    rate_exponent: float


def optimal_smd_exponent(alpha_sigma: float) -> SensitivityChoice:
    """Optimal inverse-sensitivity exponent for the non-accelerated flow,
    alpha_s = max(0, alpha_sigma + 1/2), with the resulting averaged-iterate
    decay exponent max(alpha_sigma - 1/2, -1)."""
    if alpha_sigma >= 0.5:
        raise InvalidRegime(
            f"noise growth exponent {alpha_sigma:g} >= 1/2: expected gap cannot decay"
        )
    return SensitivityChoice(
        alpha_s=max(0.0, alpha_sigma + 0.5),
        rate_exponent=max(alpha_sigma - 0.5, -1.0),
    )
