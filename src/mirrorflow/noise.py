"""Volatility models for the gradient noise and reproducible Wiener streams.

Every model in the family is diagonal: sigma(x, t) acts coordinate-wise, so
a run only ever needs the diagonal vector. A model holds sigma's
parameters and its bound, not sigma itself: `dynamics._noise_source` writes
sigma into the generated step as float code. The sup over the feasible set
of the induced norm of sigma sigma^T reduces to the largest squared
diagonal entry, and every model bounds its square root exactly by a power
law sigma_star(t) = c t^alpha. For the state-scaled model c carries the sup
of the state factor, taken from the mirror map's support function: it is
reached at a vertex on the simplex and equals 1 + gain on the euclidean map.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .maps import MirrorMap
from .schedules import PowerLaw


class NoiseModel(ABC):
    """Diagonal volatility sigma(x, t); immutable and shareable."""

    dim: int

    @abstractmethod
    def sigma_star_power(self) -> PowerLaw | None:
        """sigma_star(t), the square root of the sup over feasible x of the
        induced norm of sigma(x,t) sigma(x,t)^T, as a power law; None
        exactly for zero noise."""

    @property
    def is_zero(self) -> bool:
        """True when the model contributes no noise at all; integrators then
        skip noise arithmetic entirely so runs match the deterministic ones
        bit for bit."""
        return self.sigma_star_power() is None


class ZeroNoise(NoiseModel):
    """No noise: the stochastic systems degenerate to the deterministic ones."""

    def __init__(self, dim: int):
        self.dim = int(dim)

    def sigma_star_power(self) -> None:
        return None


class ScalarPowerLawNoise(NoiseModel):
    """sigma(x, t) = sigma0 * t^alpha * I."""

    def __init__(self, sigma0: float, alpha: float, dim: int):
        if sigma0 < 0:
            raise ValueError("sigma0 must be non-negative")
        self.sigma0 = float(sigma0)
        self.alpha = float(alpha)
        self.dim = int(dim)

    def sigma_star_power(self) -> PowerLaw | None:
        return None if self.sigma0 == 0.0 else PowerLaw(self.sigma0, self.alpha)


class DiagonalPowerLawNoise(NoiseModel):
    """Per-coordinate power laws sigma_i(t) = s0_i * t^alpha with one shared
    exponent, so the sup is always the largest s0_i."""

    def __init__(self, sigma0s, alphas):
        self.sigma0s = np.asarray(sigma0s, dtype=float)
        self.alphas = np.asarray(alphas, dtype=float)
        if self.sigma0s.shape != self.alphas.shape:
            raise ValueError("sigma0s and alphas must have matching shapes")
        if np.any(self.sigma0s < 0):
            raise ValueError("sigma0s must be non-negative")
        if np.any(self.alphas != self.alphas[0]):
            raise ValueError("alphas must be equal: the sup would switch coordinates over time")
        self.dim = self.sigma0s.shape[0]

    def sigma_star_power(self) -> PowerLaw | None:
        s0 = float(self.sigma0s.max())
        return None if s0 == 0.0 else PowerLaw(s0, float(self.alphas[0]))


class StateScaledNoise(NoiseModel):
    """Scalar power law modulated by a bounded Lipschitz factor of the state:
    sigma(x, t) = base(t) * (1 + gain * tanh(<direction, x - center>)) * I
    with 0 <= gain <= 1/2, keeping the factor inside [1/2, 3/2]. The factor
    rises with <direction, x>, so its sup over the map's feasible set is
    1 + gain * tanh(support(direction) - <direction, center>)."""

    def __init__(
        self,
        base: ScalarPowerLawNoise,
        direction: np.ndarray,
        center: np.ndarray,
        gain: float = 0.5,
        *,
        mmap: MirrorMap,
    ):
        if not 0.0 <= gain <= 0.5:
            raise ValueError("gain must lie in [0, 1/2]")
        self.base = base
        self.dim = base.dim
        self.direction = np.asarray(direction, dtype=float)
        self.center = np.asarray(center, dtype=float)
        self.gain = float(gain)
        peak = mmap.support(self.direction) - float(self.direction @ self.center)
        self._factor_sup = 1.0 + self.gain * math.tanh(peak)

    def sigma_star_power(self) -> PowerLaw | None:
        base = self.base.sigma_star_power()
        if base is None:
            return None
        return PowerLaw(base.coef * self._factor_sup, base.exponent)


class NoiseStream:
    """Reproducible Gaussian increment stream for one trajectory.

    The generator state is a pure function of (base_seed, trajectory_index),
    and `position` counts scalar draws, so any prefix can be replayed by
    rebuilding the stream. Batch draws and repeated single-step draws
    produce the identical sequence.
    """

    def __init__(self, base_seed: int, trajectory_index: int = 0):
        self.base_seed = int(base_seed)
        self.trajectory_index = int(trajectory_index)
        self.position = 0
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.base_seed, self.trajectory_index]))
        )

    def standard_normals(self, count: int) -> np.ndarray:
        self.position += int(count)
        return self._gen.standard_normal(count)

    def __repr__(self) -> str:
        return (
            f"NoiseStream(base_seed={self.base_seed}, "
            f"trajectory_index={self.trajectory_index}, position={self.position})"
        )


def make_noise(kind: str, sigma0: float, alpha: float, mmap: MirrorMap) -> NoiseModel:
    """Instantiate a noise model by kind name on the map's feasible set."""
    dim = mmap.dim
    if kind == "zero" or sigma0 == 0.0:
        return ZeroNoise(dim)
    if kind == "scalar":
        return ScalarPowerLawNoise(sigma0, alpha, dim)
    if kind == "diagonal":
        return DiagonalPowerLawNoise(np.full(dim, sigma0), np.full(dim, alpha))
    if kind == "state-scaled":
        base = ScalarPowerLawNoise(sigma0, alpha, dim)
        rng = np.random.default_rng(99)
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        return StateScaledNoise(base, direction, np.full(dim, 1.0 / dim), mmap=mmap)
    raise ValueError(f"unknown noise kind {kind!r}")
