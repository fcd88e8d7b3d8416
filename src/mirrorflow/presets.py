"""Frozen default problem instances and experiment configurations.

The coefficient data below is fixed in the repository so every experiment,
golden value, and seeded regression refers to the same problems.

The default simplex instance was chosen (over rejected random draws, most of
which put the minimizer on the boundary) so that the minimizer is strictly
interior yet close to the barycenter: the initial energy from the default
start (barycenter, zero dual) is then small enough that the noise-dominated
regime is visible inside desk-scale horizons, which is what the stochastic
rate experiments measure. The averaged-iterate instance instead pins its
minimizer on a face, where the time-averaged path approaches the optimum
one-sidedly and the averaged-iterate decay matches its predicted envelope.
"""

from __future__ import annotations

import numpy as np

from .dynamics import SystemSpec, md_bundle
from .maps import EntropicSimplexMap, make_map
from .noise import ZeroNoise, make_noise
from .objectives import MinimizerCertificate, Rank1Quadratic, SumExp, solve_minimizer
from .schedules import CONSTANT_ONE, PowerLaw, RateBundle, coupled_bundle

#: default base seed for every seeded experiment
DEFAULT_BASE_SEED = 20260810

#: default ensemble size
DEFAULT_ENSEMBLE_COUNT = 100

#: sum-of-exponentials on the 3-simplex with a strictly interior minimizer
#: near (0.3674, 0.3385, 0.2941)
DEFAULT_SUM_EXP_C = np.array(
    [
        [2.19275, -1.18125, -1.01150],
        [-1.30725, 2.31875, -1.01150],
        [-1.30725, -1.18125, 2.48850],
    ]
)

#: sum-of-exponentials whose minimizer sits on the face x_1 = 0, used by the
#: averaged-iterate rate experiment
FACE_SUM_EXP_C = np.array(
    [
        [1.4339175102080481, -0.7723505572997081, -0.15432854631204096],
        [-0.5827465729442348, 0.9047978348044448, -0.3773906227390788],
        [0.3765333694374432, 0.09099810383672713, 0.7703451446877394],
    ]
)

#: rank-one quadratic direction with both signs on the simplex (minimum 0)
DEFAULT_RANK1_C = np.array([1.0, -0.9, 0.15])

#: oracle tolerance used for all frozen certificates
ORACLE_TOL = 1e-12

_CERT_CACHE: dict[tuple, MinimizerCertificate] = {}


def default_sum_exp() -> SumExp:
    return SumExp(DEFAULT_SUM_EXP_C.copy())


def face_sum_exp() -> SumExp:
    return SumExp(FACE_SUM_EXP_C.copy())


def default_rank1() -> Rank1Quadratic:
    return Rank1Quadratic(DEFAULT_RANK1_C.copy())


def certificate_for(objective, mmap, tol: float = ORACLE_TOL) -> MinimizerCertificate:
    """Oracle certificate, cached per (objective kind + data, map)."""
    key = (objective.kind, str(objective.describe()["c"]), mmap.kind, mmap.dim, tol)
    if key not in _CERT_CACHE:
        _CERT_CACHE[key] = solve_minimizer(objective, mmap, tol=tol)
    return _CERT_CACHE[key]


def default_start(mmap) -> tuple[np.ndarray, np.ndarray]:
    """Default initial pair: barycenter and zero dual (origin for euclidean)."""
    if isinstance(mmap, EntropicSimplexMap):
        return mmap.barycenter(), np.zeros(mmap.dim)
    return np.zeros(mmap.dim), np.zeros(mmap.dim)


def default_spec(
    kind: str,
    rates: RateBundle | None = None,
    sigma0: float = 0.0,
    alpha_sigma: float = 0.0,
    noise_kind: str = "scalar",
    objective=None,
) -> tuple[SystemSpec, MinimizerCertificate]:
    """Assemble a simplex system on the default instance with default start."""
    mmap = make_map("entropic-simplex", 3)
    objective = objective if objective is not None else default_sum_exp()
    cert = certificate_for(objective, mmap)
    if rates is None:
        rates = (
            coupled_bundle(1.0, 0.5)
            if kind in ("amd", "samd")
            else md_bundle(alpha_s=0.5)
        )
    noise = (
        make_noise(noise_kind, sigma0, alpha_sigma, mmap)
        if kind in ("smd", "samd")
        else ZeroNoise(3)
    )
    x0, z0 = default_start(mmap)
    spec = SystemSpec(
        kind=kind,
        mmap=mmap,
        objective=objective,
        rates=rates,
        noise=noise,
        x0=x0,
        z0=z0,
    )
    return spec, cert


def persistent_noise_spec(sigma0: float = 0.05) -> tuple[SystemSpec, MinimizerCertificate]:
    """The almost-sure convergence configuration: unit energy weight and
    sensitivity, learning rate eta(t) = t^(-1/2), primal rate a = eta, and a
    constant volatility. Used by the deterministic-restart experiment."""
    rates = RateBundle(
        eta=PowerLaw(1.0, -0.5),
        r=CONSTANT_ONE,
        s=CONSTANT_ONE,
    )
    return default_spec("samd", rates=rates, sigma0=sigma0, alpha_sigma=0.0)
