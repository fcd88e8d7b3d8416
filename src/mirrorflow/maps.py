"""Mirror maps: convex conjugates, dual-to-primal gradients, and Bregman
divergences in the dual space.

Two geometries are provided. The entropic map acts on the probability
simplex with the (l1, linf) norm pair; its dual gradient is the softmax.
The Euclidean map acts on all of R^n with the (l2, l2) pair; its dual
gradient is the identity. Both are 1-strongly-convex potentials with a
1-Lipschitz conjugate gradient.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .errors import BoundaryMinimizer, InfeasiblePoint

SIMPLEX_TOL = 1e-9
INTERIOR_THRESHOLD = 1e-8


def row_dot(a: np.ndarray, b: np.ndarray):
    """<a, b> over the last axis of stacked (..., n) operands. Each row is
    one stacked-matmul dot, which on the native OpenBLAS kernels has the
    bits of `a @ b` on that pair alone; `a @ b` on a stack (a gemv) does
    not. The bits are the BLAS kernel's, and not every kernel keeps them:
    under `OPENBLAS_CORETYPE=Prescott` a dot depends on where its operands
    lie in memory, so a row of a 7-coordinate stack can differ from `a @ b`
    on copies of that pair."""
    return np.matmul(a[..., None, :], b[..., None])[..., 0, 0]


#: fewer values than this are summed left to right, as numpy sums them
PAIRWISE_MIN = 8


def row_sum(values) -> float:
    """The sum of a sequence of floats with the bits of `np.add.reduce`:
    numpy adds fewer than PAIRWISE_MIN values left to right from 0.0, which
    Python does as fast, and sums longer rows pairwise, so those go to it."""
    if len(values) >= PAIRWISE_MIN:
        return float(np.add.reduce(np.array(values, dtype=float)))
    total = 0.0
    for v in values:  # not `sum`, which compensates its rounding from Python 3.12
        total += v
    return total


def log_sum_exp(z: np.ndarray):
    """Numerically stable log(sum(exp(z))) over the last axis via max
    subtraction."""
    m = np.maximum.reduce(z, axis=-1)
    return m + np.log(np.add.reduce(np.exp(z - m[..., None]), axis=-1))


def softmax(z: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis; invariant under adding a multiple
    of the ones vector."""
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def softmax_point(z: list) -> list:
    """`softmax` of one point held as a list, bit for bit: numpy only for
    the exponential, which Python's `math.exp` does not round alike."""
    top = max(z)
    e = np.exp([v - top for v in z]).tolist()
    total = row_sum(e)
    return [v / total for v in e]


def _points(x: np.ndarray, dim: int) -> np.ndarray:
    """x as a float array of finite points of `dim` coordinates, one point
    or a (..., dim) stack; raise InfeasiblePoint otherwise."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dim,):
        raise InfeasiblePoint(f"expected shape (..., {dim}), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InfeasiblePoint("non-finite coordinates")
    return x


class MirrorMap(ABC):
    """Strongly convex potential on a feasible set, exposed through its
    conjugate: potential values, conjugate values, the dual-to-primal
    gradient, and the dual Bregman divergence.

    Instances are immutable; every method is pure. Points may be stacked:
    a (..., n) array holds one point per row, and a value becomes an array
    of shape (...), equal row by row to the value at each point alone.
    """

    kind: str
    #: Lipschitz constant of the conjugate gradient w.r.t. the norm pair
    lipschitz_grad_conjugate: float = 1.0

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be a positive integer")
        self.dim = int(dim)

    @abstractmethod
    def psi(self, x: np.ndarray):
        """Potential value at a feasible point."""

    @abstractmethod
    def psi_star(self, z: np.ndarray):
        """Conjugate value sup_x <z, x> - psi(x) at a dual point."""

    @abstractmethod
    def grad_psi_star(self, z: np.ndarray) -> np.ndarray:
        """Gradient of the conjugate; maps any dual point into the feasible set."""

    @abstractmethod
    def project_point(self, z: list) -> list:
        """The canonical representative of the dual point z, held as a list
        of floats: it has the same conjugate gradient, and its bits are the
        array arithmetic's (z - z.mean() on the simplex)."""

    @abstractmethod
    def dual_of(self, x: np.ndarray) -> np.ndarray:
        """A dual point z with grad_psi_star(z) == x, for strictly feasible x."""

    @abstractmethod
    def require_feasible(self, x: np.ndarray) -> None:
        """Raise InfeasiblePoint if x is outside the feasible set tolerance."""

    @abstractmethod
    def primal_norm(self, v: np.ndarray):
        """Reference norm on the primal space."""

    @abstractmethod
    def dual_norm(self, v: np.ndarray):
        """Norm dual to the primal reference norm."""

    @property
    @abstractmethod
    def diameter(self) -> float:
        """Primal-norm diameter of the feasible set (inf if unbounded)."""

    @abstractmethod
    def support(self, d: np.ndarray) -> float:
        """Support function: sup over the feasible set of <d, x> (inf if unbounded)."""

    def bregman_div_star(self, z_prime: np.ndarray, z: np.ndarray):
        """Bregman divergence of the conjugate,
        psi_star(z') - psi_star(z) - <grad_psi_star(z), z' - z>. Non-negative."""
        z = np.asarray(z, dtype=float)
        return self.bregman_div_star_at(
            np.asarray(z_prime, dtype=float), z, self.psi_star(z), self.grad_psi_star(z)
        )

    def bregman_div_star_at(self, z_prime: np.ndarray, z: np.ndarray, psi_star_z, grad_z):
        """`bregman_div_star(z_prime, z)` with psi_star(z) and
        grad_psi_star(z) supplied, for a z that stays fixed across calls."""
        return self.psi_star(z_prime) - psi_star_z - row_dot(z_prime - z, grad_z)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class EntropicSimplexMap(MirrorMap):
    """Entropy-based map on the probability simplex.

    The potential is sum_i x_i log x_i + log n, shifted so it is
    non-negative with minimum 0 at the barycenter; the shift leaves the
    conjugate gradient (the softmax) untouched and the conjugate becomes
    log_sum_exp(z) - log n. Strong convexity w.r.t. l1 holds with modulus 1,
    and the softmax is 1-Lipschitz for the (l1, linf) pair.
    """

    kind = "entropic-simplex"

    def psi(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        self.require_feasible(x)
        xc = np.clip(x, 0.0, None)
        # x log x extended by 0 at x = 0
        terms = np.where(xc > 0.0, xc * np.log(np.where(xc > 0.0, xc, 1.0)), 0.0)
        return np.add.reduce(terms, axis=-1) + np.log(self.dim)

    def psi_star(self, z: np.ndarray):
        return log_sum_exp(np.asarray(z, dtype=float)) - np.log(self.dim)

    def grad_psi_star(self, z: np.ndarray) -> np.ndarray:
        return softmax(np.asarray(z, dtype=float))

    def project_point(self, z: list) -> list:
        mean = row_sum(z) / self.dim
        return [v - mean for v in z]

    def dual_of(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self.require_feasible(x)
        if float(x.min()) < INTERIOR_THRESHOLD:
            raise BoundaryMinimizer(
                f"coordinate {float(x.min()):.3e} below interior threshold "
                f"{INTERIOR_THRESHOLD:g}; no finite dual anchor"
            )
        z = np.log(x)
        return z - z.mean()

    def require_feasible(self, x: np.ndarray) -> None:
        x = _points(x, self.dim)
        sums = np.add.reduce(x, axis=-1).ravel()
        worst = float(sums[np.argmax(np.abs(sums - 1.0))])
        if abs(worst - 1.0) > SIMPLEX_TOL:
            raise InfeasiblePoint(f"coordinates sum to {worst:.12f}, not 1")
        if float(x.min()) < -SIMPLEX_TOL:
            raise InfeasiblePoint(f"negative coordinate {float(x.min()):.3e}")

    def primal_norm(self, v: np.ndarray):
        return np.add.reduce(np.abs(v), axis=-1)

    def dual_norm(self, v: np.ndarray):
        return np.maximum.reduce(np.abs(v), axis=-1)

    @property
    def diameter(self) -> float:
        # l1 distance between any two vertices
        return 2.0

    def support(self, d: np.ndarray) -> float:
        # a linear functional peaks at a vertex
        return float(np.max(d))

    def barycenter(self) -> np.ndarray:
        return np.full(self.dim, 1.0 / self.dim)


class EuclideanMap(MirrorMap):
    """Half squared l2 norm on all of R^n; the conjugate gradient is the
    identity, so the dynamics reduce to unconstrained ones."""

    kind = "euclidean"

    def psi(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        self.require_feasible(x)
        return 0.5 * row_dot(x, x)

    def psi_star(self, z: np.ndarray):
        z = np.asarray(z, dtype=float)
        return 0.5 * row_dot(z, z)

    def grad_psi_star(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float).copy()

    def project_point(self, z: list) -> list:
        # no copy: callers never modify a point list in place
        return z

    def dual_of(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self.require_feasible(x)
        return x.copy()

    def require_feasible(self, x: np.ndarray) -> None:
        _points(x, self.dim)

    def primal_norm(self, v: np.ndarray):
        # the root of a dot, as np.linalg.norm takes it for one vector
        return np.sqrt(row_dot(v, v))

    def dual_norm(self, v: np.ndarray):
        return np.sqrt(row_dot(v, v))

    @property
    def diameter(self) -> float:
        return float("inf")

    def support(self, d: np.ndarray) -> float:
        return 0.0 if not np.any(d) else float("inf")


def make_map(kind: str, dim: int) -> MirrorMap:
    """Instantiate a mirror map by kind name."""
    if kind == "entropic-simplex":
        return EntropicSimplexMap(dim)
    if kind == "euclidean":
        return EuclideanMap(dim)
    raise ValueError(f"unknown mirror map kind {kind!r}")
