"""Checks that evaluate their points as stacks, against reference loops
kept from the per-point versions they replaced: the same draws and the same
arithmetic, one point at a time. The measured numbers must agree bit for
bit."""

import math

import numpy as np
import pytest

from mirrorflow import presets
from mirrorflow.dynamics import primal_average_residual, simulate
from mirrorflow.maps import EntropicSimplexMap, EuclideanMap
from mirrorflow.schedules import CONSTANT_ONE, PowerLaw, RateBundle, averaging_weight
from mirrorflow.verify import Verifier


def ref_mirror_algebra(seed):
    rng = np.random.default_rng(seed)
    worst = {"fenchel": 0.0, "bregman": 0.0, "lipschitz": 0.0, "shift": 0.0}
    min_div = math.inf
    for dim in (2, 5, 50):
        for mmap in (EntropicSimplexMap(dim), EuclideanMap(dim)):
            zs = rng.normal(scale=3.0, size=(1000, dim))
            for i, z in enumerate(zs):
                x = mmap.grad_psi_star(z)
                worst["fenchel"] = max(
                    worst["fenchel"], abs(mmap.psi(x) + mmap.psi_star(z) - float(x @ z))
                )
                if i:
                    z2 = zs[i - 1]
                    lhs = mmap.psi(mmap.grad_psi_star(z)) - mmap.psi(mmap.grad_psi_star(z2))
                    rhs = mmap.bregman_div_star(z2, z) - float(
                        (mmap.grad_psi_star(z2) - mmap.grad_psi_star(z)) @ z2
                    )
                    worst["bregman"] = max(worst["bregman"], abs(lhs - rhs))
                    min_div = min(min_div, mmap.bregman_div_star(z, z2))
                    excess = mmap.primal_norm(
                        mmap.grad_psi_star(z) - mmap.grad_psi_star(z2)
                    ) - mmap.lipschitz_grad_conjugate * mmap.dual_norm(z - z2)
                    worst["lipschitz"] = max(worst["lipschitz"], excess)
            if isinstance(mmap, EntropicSimplexMap):
                ones = np.ones(dim)
                for z in zs[:100]:
                    base = mmap.grad_psi_star(z)
                    for alpha in rng.uniform(-1e3, 1e3, size=5):
                        worst["shift"] = max(
                            worst["shift"],
                            float(np.abs(mmap.grad_psi_star(z + alpha * ones) - base).max()),
                        )
    measured = {f"max_{k}": v for k, v in worst.items()}
    measured["min_divergence"] = min_div
    return measured


def ref_gradients(seed):
    rng = np.random.default_rng(seed + 1)
    step = 1e-5
    worst = 0.0
    for objective in (presets.default_sum_exp(), presets.face_sum_exp(),
                      presets.default_rank1()):
        for x in rng.dirichlet(np.ones(objective.dim), size=1000):
            g = objective.gradient(x)
            scale = max(1.0, float(np.abs(g).max()))
            for j in range(objective.dim):
                e = np.zeros(objective.dim)
                e[j] = step
                fd = (objective.value(x + e) - objective.value(x - e)) / (2 * step)
                worst = max(worst, abs(fd - g[j]) / scale)
    return {"max_rel_error": worst}


@pytest.mark.parametrize("seed", [7, 31, presets.DEFAULT_BASE_SEED])
def test_mirror_algebra_measures_what_the_per_point_loop_did(seed):
    assert Verifier(seed).check_mirror_algebra().measured == ref_mirror_algebra(seed)


@pytest.mark.parametrize("seed", [7, 31, presets.DEFAULT_BASE_SEED])
def test_gradients_measure_what_the_per_point_loop_did(seed):
    assert Verifier(seed).check_gradients().measured == ref_gradients(seed)


def test_primal_average_residual_takes_the_per_row_mirror_points():
    rates = RateBundle(eta=CONSTANT_ONE, r=PowerLaw(1.0, 1.0), s=PowerLaw(1.0, 0.5))
    spec, cert = presets.default_spec("amd", rates=rates)
    traj = simulate(spec, cert, t_end=3.0, h=1e-2)
    ts = traj.times
    mirrors = np.array([spec.mmap.grad_psi_star(traj.z[i] / rates.s.value(ts[i]))
                        for i in range(len(ts))])
    w = np.array([averaging_weight(rates.a, rates.t0, t) for t in ts])
    integrand = (np.array([rates.a.value(t) for t in ts]) * w)[:, None] * mirrors
    dt = np.diff(ts)[:, None]
    integral = np.vstack([np.zeros(3), np.cumsum(0.5 * dt * (integrand[1:] + integrand[:-1]),
                                                 axis=0)])
    expected = float(np.abs(traj.x - (traj.x[0] + integral) / w[:, None]).max())
    assert primal_average_residual(traj) == expected
