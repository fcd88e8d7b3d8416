"""Smooth convex test objectives and an independent minimizer oracle.

The oracle deliberately avoids the forward-Euler integrators used by the
dynamics module: it iterates the fixed-point map
x -> grad_psi_star(grad_psi(x) - gamma * grad_f(x)) (a multiplicative-weights
step on the simplex, plain gradient descent in the Euclidean case) and then
polishes with golden-section line searches on the active face. Certificates
produced here anchor optimality gaps and dual-space energies everywhere else.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .maps import (INTERIOR_THRESHOLD, EntropicSimplexMap, EuclideanMap, MirrorMap, row_dot,
                   softmax_point)

GOLDEN_RATIO = (np.sqrt(5.0) - 1.0) / 2.0


def _point_or_rows(values):
    """A float for one point; the array for a (..., n) stack of points."""
    return float(values) if values.ndim == 0 else values


class Objective(ABC):
    """Convex differentiable function with analytic gradient and
    norm-pairing-aware smoothness bounds."""

    def __init__(self, dim: int):
        self.dim = int(dim)

    @abstractmethod
    def value(self, x: np.ndarray):
        """f(x) at one point, or an array of f at each row of a (..., n)
        stack, equal bit for bit to the values at the points one by one."""

    @abstractmethod
    def gradient(self, x: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def grad_lipschitz_bound(self, mmap: MirrorMap) -> float:
        """Analytic upper bound on the gradient's Lipschitz constant for the
        map's (primal, dual) norm pair, over the map's feasible set."""

    @abstractmethod
    def describe(self) -> dict:
        """Serializable description (kind plus coefficient data)."""


class SumExp(Objective):
    """f(x) = sum_i exp(<c_i, x>) for rows c_i of a (k, n) matrix."""

    kind = "sum-exp"

    def __init__(self, coefficients: np.ndarray):
        coefficients = np.atleast_2d(np.asarray(coefficients, dtype=float))
        super().__init__(coefficients.shape[1])
        self.coefficients = coefficients

    def value(self, x: np.ndarray):
        # a stacked matmul applies C to each row as `C @ x` does, bit for bit
        inner = np.matmul(self.coefficients, np.asarray(x)[..., None])[..., 0]
        return _point_or_rows(np.add.reduce(np.exp(inner), axis=-1))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        # ndarray.dot: the bits of `@`, at less call overhead per step
        C = self.coefficients
        return np.exp(C.dot(x)).dot(C)

    def grad_lipschitz_bound(self, mmap: MirrorMap) -> float:
        C = self.coefficients
        if isinstance(mmap, EntropicSimplexMap):
            # Hessian = sum_i e^{<c_i,x>} c_i c_i^T; on the simplex
            # e^{<c_i,x>} <= e^{max_j c_ij} and the l1->linf operator norm
            # of c_i c_i^T is max|c_ij|^2.
            peak = np.exp(C.max(axis=1))
            return float(np.sum(peak * np.abs(C).max(axis=1) ** 2))
        if isinstance(mmap, EuclideanMap):
            return float("inf")  # unbounded domain, unbounded curvature
        raise ValueError(f"unsupported map {mmap!r}")

    def describe(self) -> dict:
        return {"kind": self.kind, "c": self.coefficients.tolist()}


class Rank1Quadratic(Objective):
    """f(x) = 0.5 * <c, x>^2, a convex quadratic of rank one."""

    kind = "rank1-quadratic"

    def __init__(self, c: np.ndarray):
        c = np.asarray(c, dtype=float)
        super().__init__(c.shape[0])
        self.c = c

    def value(self, x: np.ndarray):
        u = _point_or_rows(row_dot(np.asarray(x), self.c))
        return 0.5 * u * u  # u * u overflows to inf instead of raising

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return float(self.c.dot(x)) * self.c

    def grad_lipschitz_bound(self, mmap: MirrorMap) -> float:
        if isinstance(mmap, EntropicSimplexMap):
            return float(np.abs(self.c).max() ** 2)
        return float(self.c @ self.c)

    def describe(self) -> dict:
        return {"kind": self.kind, "c": self.c.tolist()}


def make_objective(kind: str, coefficients) -> Objective:
    if kind == "sum-exp":
        return SumExp(np.asarray(coefficients, dtype=float))
    if kind == "rank1-quadratic":
        return Rank1Quadratic(np.asarray(coefficients, dtype=float))
    raise ValueError(f"unknown objective kind {kind!r}")


@dataclass(frozen=True)
class MinimizerCertificate:
    """Oracle-produced optimum: the point, its value, a dual anchor when the
    point is strictly interior, and the residual of the optimality check."""

    x_star: np.ndarray
    f_star: float
    z_star: np.ndarray | None
    boundary: bool
    residual: float
    method: str


def _kkt_residual(obj: Objective, mmap: MirrorMap, x: np.ndarray) -> float:
    """First-order optimality measure: simplex support gap <g, x> - min_i g_i
    for the entropic map, gradient norm for the Euclidean map."""
    g = obj.gradient(x)
    if isinstance(mmap, EntropicSimplexMap):
        return float(g @ x - g.min())
    return float(np.linalg.norm(g))


def _golden_section(fun, lo: float, hi: float, iters: int = 80) -> float:
    """Minimize a unimodal scalar function on [lo, hi] by golden section."""
    a, b = lo, hi
    c = b - GOLDEN_RATIO * (b - a)
    d = a + GOLDEN_RATIO * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN_RATIO * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN_RATIO * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def _face_descent_round(obj: Objective, x: np.ndarray) -> np.ndarray:
    """One golden-section line search along the projected steepest-descent
    direction, restricted to the face of currently active coordinates."""
    floor = 1e-18
    g = obj.gradient(x)
    active = x <= floor
    d = -g.copy()
    d[active] = 0.0
    free = ~active
    if free.sum() < 2:
        return x
    d[free] -= d[free].mean()  # stay on the simplex hyperplane
    if float(np.abs(d).max()) == 0.0:
        return x
    neg = d < 0
    theta_max = float(np.min(x[neg] / -d[neg])) if neg.any() else 1.0
    if theta_max <= 0.0:
        return x
    theta = _golden_section(lambda th: obj.value(x + th * d), 0.0, theta_max)
    candidate = np.clip(x + theta * d, 0.0, None)
    candidate /= candidate.sum()
    return candidate if obj.value(candidate) < obj.value(x) else x


def _polish_on_face(obj: Objective, mmap: MirrorMap, x: np.ndarray, rounds: int = 8) -> np.ndarray:
    """Polish an approximate simplex minimizer: optionally snap nearly-zero
    coordinates onto their face (kept only if the optimality residual does
    not worsen; the residual measures all simplex directions, so a wrong
    snap cannot pass), then run golden-section descent on the face."""
    best = x
    best_res = _kkt_residual(obj, mmap, x)
    if float(x.min()) < 1e-3 and float(x.max()) > 1e-3:
        snapped = np.where(x < 1e-3, 0.0, x)
        snapped = snapped / snapped.sum()
        for _ in range(rounds):
            snapped = _face_descent_round(obj, snapped)
        if _kkt_residual(obj, mmap, snapped) <= best_res:
            best = snapped
            best_res = _kkt_residual(obj, mmap, snapped)
    polished = best
    for _ in range(rounds):
        polished = _face_descent_round(obj, polished)
    if _kkt_residual(obj, mmap, polished) <= best_res:
        best = polished
    return best


def solve_minimizer(
    obj: Objective,
    mmap: MirrorMap,
    tol: float = 1e-12,
    max_iter: int = 1_000_000,
    step: float | None = None,
) -> MinimizerCertificate:
    """Locate the constrained minimizer with an integrator-free oracle.

    Parameters
    ----------
    obj, mmap : the objective and the geometry defining the feasible set.
    tol : residual target for the first-order optimality measure.
    max_iter : fixed-point iteration budget.
    step : fixed multiplicative-weights / gradient step; by default a safe
        value derived from the analytic curvature bound.

    Returns
    -------
    MinimizerCertificate with residual < tol.

    Raises
    ------
    NoConvergence if the budget is exhausted above tolerance.
    """
    if step is None:
        lip = obj.grad_lipschitz_bound(mmap)
        step = 0.5 / lip if np.isfinite(lip) and lip > 0 else 0.1

    if isinstance(mmap, EntropicSimplexMap):
        x = np.full(mmap.dim, 1.0 / mmap.dim)
        floor = 1e-300  # keep log finite while coordinates collapse to a face
        spent = 0
        # alternate fixed-point phases with face polish: interior minimizers
        # converge inside the first phase, boundary ones rely on the polish.
        # A phase carries x as a list of floats: on a few coordinates numpy's
        # call overhead outweighs its arithmetic, which floats round alike.
        while spent < max_iter:
            phase = min(150_000, max_iter - spent)
            x = x.tolist()
            for it in range(phase):
                g = obj.gradient(x).tolist()
                logs = np.log([max(v, floor) for v in x]).tolist()
                x = softmax_point([u - step * gi for u, gi in zip(logs, g)])
                if it % 64 == 0 and _kkt_residual(obj, mmap, x) < tol:
                    break
            spent += it + 1
            x = _polish_on_face(obj, mmap, np.array(x))
            if _kkt_residual(obj, mmap, x) < tol:
                break
        residual = _kkt_residual(obj, mmap, x)
        if residual >= tol:
            raise NoConvergence(
                f"oracle residual {residual:.3e} above tolerance {tol:.1e}"
            )
        boundary = float(x.min()) < INTERIOR_THRESHOLD
        z_star = None if boundary else mmap.dual_of(x)
        return MinimizerCertificate(
            x_star=x,
            f_star=obj.value(x),
            z_star=z_star,
            boundary=boundary,
            residual=residual,
            method="fixed-point mirror iteration + golden-section polish",
        )

    if isinstance(mmap, EuclideanMap):
        x = np.zeros(mmap.dim)
        # rank-one quadratics have curvature c c^T; use 1/||c||^2 steps
        if isinstance(obj, Rank1Quadratic):
            step = 1.0 / float(obj.c @ obj.c)
        for it in range(max_iter):
            g = obj.gradient(x)
            if float(np.linalg.norm(g)) < tol:
                break
            x = x - step * g
            if not np.all(np.isfinite(x)):
                raise NoConvergence("gradient iteration diverged")
        residual = _kkt_residual(obj, mmap, x)
        if residual >= tol:
            raise NoConvergence(
                f"oracle residual {residual:.3e} above tolerance {tol:.1e}"
            )
        return MinimizerCertificate(
            x_star=x,
            f_star=obj.value(x),
            z_star=mmap.dual_of(x),
            boundary=False,
            residual=residual,
            method="fixed-step gradient iteration",
        )

    raise ValueError(f"unsupported map {mmap!r}")
