"""Smooth convex test objectives and an independent minimizer oracle.

The oracle deliberately avoids the forward-Euler integrators used by the
dynamics module: it iterates the fixed-point map
x -> grad_psi_star(grad_psi(x) - gamma * grad_f(x)) (a multiplicative-weights
step on the simplex, plain gradient descent in the Euclidean case) with
gamma = 0.5 / L, L the objective's analytic curvature bound for the map, until
the first-order optimality residual falls below tolerance. On the simplex,
Newton steps on the face the iterate spans finish where that step crawls.
Certificates produced here anchor optimality gaps and dual-space energies
everywhere else.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .maps import (INTERIOR_THRESHOLD, EntropicSimplexMap, EuclideanMap, MirrorMap, row_dot,
                   softmax_point)

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
    def hessian_root(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(J, r) at one point with Hessian J^T J and gradient J^T r."""

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

    def hessian_root(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        root = np.sqrt(np.exp(self.coefficients @ x))
        return root[:, None] * self.coefficients, root

    def grad_lipschitz_bound(self, mmap: MirrorMap) -> float:
        C = self.coefficients
        if isinstance(mmap, EntropicSimplexMap):
            # Hessian H = sum_i e^{<c_i,x>} c_i c_i^T. Its l1->linf operator
            # norm is its largest entry in magnitude, which for a PSD matrix
            # lies on the diagonal (|H_jk| <= sqrt(H_jj H_kk)); on the simplex
            # e^{<c_i,x>} <= e^{max_j c_ij}, so H_jj <= sum_i peak_i c_ij^2.
            # An overflow leaves inf or NaN: no finite bound.
            with np.errstate(over="ignore", invalid="ignore"):
                peak = np.exp(C.max(axis=1))
                return float((peak @ C**2).max())
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

    def hessian_root(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.c[None, :], np.array([self.c @ x])

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


def _newton_finish(obj: Objective, mmap: MirrorMap, x: np.ndarray,
                   tol: float) -> np.ndarray | None:
    """Up to 16 Newton steps for f on a face of the simplex from x; the
    first point whose residual is below tol, or None. A step's face holds
    the coordinates at or above INTERIOR_THRESHOLD and those whose slope is
    below all of theirs; the others stay put. A coordinate the step would
    take to zero or below leaves the face at 0, and the step is taken again
    without it. Near the minimizer each step squares the error, and each
    change of face costs one step."""
    for _ in range(16):
        J, r = obj.hessian_root(x)
        if not (np.isfinite(J).all() and np.isfinite(r).all()):
            return None
        g = J.T @ r
        face = x >= INTERIOR_THRESHOLD
        face |= g < g[face].min()
        base = x.copy()
        while True:
            # Moves along e_j - e_ref keep the sum; the mass of coordinates
            # that left goes to ref. With H = J^T J the step is a
            # least-squares solve, which keeps the slope along a nearly
            # flat edge.
            ref = int(np.argmax(np.where(face, x, -1.0)))
            free = face.copy()
            free[ref] = False
            shift = base - x
            shift[ref] += x.sum() - base.sum()
            u = np.linalg.lstsq(J[:, free] - J[:, [ref]], -(r + J @ shift))[0]
            y = x + shift
            y[free] += u
            y[ref] -= u.sum()
            left = face & (y <= 0.0)
            if not left.any():
                break
            face &= ~left
            base[left] = 0.0
        x = y / y.sum()  # on the simplex even where the solve is poor
        if _kkt_residual(obj, mmap, x) < tol:
            return x
    return None


# an overflowing exponent fails a finiteness test, not with a numpy warning
@np.errstate(over="ignore", invalid="ignore")
def solve_minimizer(
    obj: Objective,
    mmap: MirrorMap,
    tol: float = 1e-12,
    max_iter: int = 1_000_000,
) -> MinimizerCertificate:
    """Locate the constrained minimizer with an integrator-free oracle.

    Parameters
    ----------
    obj, mmap : the objective and the geometry defining the feasible set.
    tol : residual target for the first-order optimality measure.
    max_iter : fixed-point iteration budget.

    On the simplex one loop of multiplicative-weights steps at 0.5 / L, L
    the objective's analytic curvature bound, serves interior and boundary
    minimizers alike. Every 64 steps it tests the residual, and at 64, 128,
    256, ... steps it also tries to finish with Newton steps on the face the
    iterate spans.

    Returns
    -------
    MinimizerCertificate with residual < tol.

    Raises
    ------
    NoConvergence if the budget is exhausted above tolerance, or at the
    first residual check whose residual or iterate is not finite.
    """
    lip = obj.grad_lipschitz_bound(mmap)
    step = 0.5 / lip if np.isfinite(lip) and lip > 0 else 0.1

    if isinstance(mmap, EntropicSimplexMap):
        # x is a list of floats between checks: on a few coordinates numpy's
        # call overhead outweighs its arithmetic, which floats round alike.
        x = [1.0 / mmap.dim] * mmap.dim
        floor = 1e-300  # keep log finite while coordinates collapse to a face
        for it in range(max_iter):
            if it % 64 == 0:
                x = np.array(x)
                residual = _kkt_residual(obj, mmap, x)
                if not (np.isfinite(residual) and np.isfinite(x).all()):
                    raise NoConvergence(f"oracle iterate or residual not finite after {it} steps")
                if residual < tol:
                    break
                # The multiplicative step moves x_j in proportion to x_j, so
                # it crawls near small positive coordinates and along nearly
                # flat faces; Newton steps on the face finish those. Tried at
                # 64, 128, 256, ... iterations, they add little to the cost
                # of an instance they cannot certify.
                if it > 0 and it & (it - 1) == 0:
                    finished = _newton_finish(obj, mmap, x, tol)
                    if finished is not None:
                        x = finished
                        break
                x = x.tolist()
            g = obj.gradient(x).tolist()
            logs = np.log([max(v, floor) for v in x]).tolist()
            x = softmax_point([u - step * gi for u, gi in zip(logs, g)])
        x = np.array(x)
        residual = _kkt_residual(obj, mmap, x)
        if not residual < tol:  # a NaN residual fails too
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
            method="fixed-point mirror iteration + Newton steps on the face",
        )

    if isinstance(mmap, EuclideanMap):
        x = np.zeros(mmap.dim)
        for it in range(max_iter):
            g = obj.gradient(x)
            if float(np.linalg.norm(g)) < tol:
                break
            x = x - step * g
            if not np.all(np.isfinite(x)):
                raise NoConvergence("gradient iteration diverged")
        residual = _kkt_residual(obj, mmap, x)
        if not residual < tol:  # a NaN residual fails too
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
