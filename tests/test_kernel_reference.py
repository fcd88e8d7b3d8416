"""`simulate` against a reference loop kept from the per-step kernel it
replaced: the same Euler-Maruyama arithmetic, with a fresh
`standard_normals(n) * sqrt(hk)` draw at every step, the objectives'
gradients through `@`, the generic numpy reductions in the maps, the Ito
integral's increment added at every step, the energy's dual anchor
recomputed at every recorded row, and b taken at every recorded row from
the power-law algebra. The two must agree bit for bit."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mirrorflow
from mirrorflow import presets
from mirrorflow.analysis import covariation_check
from mirrorflow.dynamics import (
    SystemSpec,
    md_bundle,
    nesterov_bundle,
    record_grid,
    simulate,
    step_count,
)
from mirrorflow.maps import PAIRWISE_MIN, EntropicSimplexMap, EuclideanMap
from mirrorflow.noise import NoiseStream, make_noise
from mirrorflow.objectives import MinimizerCertificate, Rank1Quadratic, SumExp
from mirrorflow.schedules import CONSTANT_ONE, coupled_bundle


def ref_grad_psi_star(mmap, z):
    if isinstance(mmap, EuclideanMap):
        return np.asarray(z, dtype=float).copy()
    e = np.exp(z - np.max(z))
    return e / e.sum()


def ref_dual_projection(mmap, z):
    if isinstance(mmap, EuclideanMap):
        return np.asarray(z, dtype=float).copy()
    return z - z.mean()


def ref_psi_star(mmap, z):
    if isinstance(mmap, EuclideanMap):
        return 0.5 * float(z @ z)
    m = float(np.max(z))
    return m + float(np.log(np.sum(np.exp(z - m)))) - np.log(mmap.dim)


def ref_gradient(objective, x):
    """The objectives' gradients as the per-step kernel computed them."""
    if isinstance(objective, SumExp):
        C = objective.coefficients
        return np.exp(C @ x) @ C
    return float(objective.c @ x) * objective.c


def ref_energy(mmap, rates, z_star, gap, z, t):
    s_t = rates.s.value(t)
    zp = z / s_t
    div = (ref_psi_star(mmap, zp) - ref_psi_star(mmap, z_star)
           - float(ref_grad_psi_star(mmap, z_star) @ (zp - z_star)))
    return rates.r.value(t) * gap + s_t * div


def ref_b(spec, t):
    """b(t) = integral of eta^2 sigma*^2 over [t0, t] in closed form, with
    eta = 1 for the non-averaged kinds; zero without noise."""
    sigma_star = spec.noise.sigma_star_power()
    if sigma_star is None:
        return 0.0
    eta = spec.rates.eta if spec.kind in ("amd", "samd") else CONSTANT_ONE
    return (eta.squared() * sigma_star.squared()).integral(spec.rates.t0, t)


def ref_step(spec, x, z, t, hk, dW=None, x_star=None):
    mmap, rates = spec.mmap, spec.rates
    averaged = spec.kind in ("amd", "samd")
    g = ref_gradient(spec.objective, x)
    dmart = 0.0
    if spec.kind == "nesterov":
        dz = hk * (-g - z * ((spec.beta + 1.0) / t))
    else:
        eta = rates.eta.value(t) if averaged else 1.0
        anchor = ref_grad_psi_star(mmap, z / rates.s.value(t)) if averaged else x
        if dW is None:
            dz = -(eta * hk) * g
        else:
            d = spec.noise.diag(x, t)
            dz = -eta * (hk * g + d * dW)
            if x_star is not None:
                # left to right from 0.0, as the step adds it; a BLAS dot
                # rounds differently per kernel
                for v, w in zip((-eta * (d * (anchor - x_star))).tolist(), dW.tolist()):
                    dmart += v * w
    z_new = ref_dual_projection(mmap, z + dz)
    if spec.kind == "nesterov":
        x_new = x + hk * z
    elif averaged:
        x_new = x + (rates.a.value(t) * hk) * (anchor - x)
    else:
        x_new = ref_grad_psi_star(mmap, z_new / rates.s.value(t + hk))
    return x_new, z_new, dz, dmart


def ref_simulate(spec, cert, t_end, h, record_stride, stream):
    """Per-step draws; returns (x, z, gap, energy, b, martingale) rows."""
    rates, mmap = spec.rates, spec.mmap
    t0 = rates.t0
    n = mmap.dim
    track = spec.kind != "nesterov" and not cert.boundary
    x_star = cert.x_star if track else None
    n_steps, exact = step_count(t0, t_end, h)
    rows, _ = record_grid(t0, t_end, h, record_stride)
    x = np.array(spec.x0, dtype=float)
    if spec.kind == "nesterov":
        z = rates.a.value(t0) * (np.asarray(spec.z0, dtype=float) - x)
    else:
        z = np.array(spec.z0, dtype=float)
    out = {k: [] for k in ("x", "z", "gap", "energy", "b", "martingale")}
    mart = 0.0
    for k in range(n_steps + 1):
        t = t0 + k * h if k < n_steps or exact else t_end
        if k in rows:
            gap = spec.objective.value(x) - cert.f_star
            out["x"].append(x)
            out["z"].append(z)
            out["gap"].append(gap)
            out["b"].append(ref_b(spec, t))
            if track:
                out["energy"].append(ref_energy(mmap, rates, cert.z_star, gap, z, t))
                out["martingale"].append(mart)
        if k == n_steps:
            break
        hk = h if exact or k < n_steps - 1 else t_end - t
        dW = stream.standard_normals(n) * math.sqrt(hk) if spec.is_stochastic else None
        x, z, _, dmart = ref_step(spec, x, z, t, hk, dW, x_star)
        mart += dmart
    return {k: np.array(v) if v else None for k, v in out.items()}


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def vectors(n, lo, hi):
    return st.lists(finite(lo, hi), min_size=n, max_size=n).map(np.array)


@st.composite
def runs(draw):
    """A run of any kind, noise model, map and span, at n from 1 to 50.
    The euclidean map gets a unit-scale rank-one quadratic, so explicit
    Euler stays stable at the drawn steps."""
    kind = draw(st.sampled_from(["md", "smd", "amd", "samd", "nesterov"]))
    n = draw(st.integers(1, 50))
    euclid = kind == "nesterov" or draw(st.booleans())
    if euclid:
        mmap = EuclideanMap(n)
        c = draw(vectors(n, -1.0, 1.0))
        norm = float(np.linalg.norm(c))
        objective = Rank1Quadratic(c / norm * draw(finite(0.1, 1.5)) if norm > 1e-3
                                   else np.ones(n))
        x0 = draw(vectors(n, -2.0, 2.0))
        x_star = draw(vectors(n, -1.0, 1.0))
        z_star = x_star
    else:
        mmap = EntropicSimplexMap(n)
        objective = SumExp(np.array([draw(vectors(n, -2.0, 2.0))
                                     for _ in range(draw(st.integers(1, 3)))]))
        x0 = mmap.grad_psi_star(draw(vectors(n, -3.0, 3.0)))
        x_star = mmap.grad_psi_star(draw(vectors(n, -3.0, 3.0)))
        z_star = mmap.dual_of(x_star)
    boundary = draw(st.integers(0, 9)) == 0
    cert = MinimizerCertificate(
        x_star=x_star, f_star=objective.value(x_star),
        z_star=None if boundary else z_star, boundary=boundary,
        residual=0.0, method="drawn",
    )
    noise_kind = "zero"
    if kind in ("smd", "samd"):
        noise_kind = draw(st.sampled_from(["zero", "scalar", "diagonal", "state-scaled"]))
    noise = make_noise(noise_kind, draw(finite(0.01, 1.0)), draw(finite(-0.5, 0.45)), mmap)
    h = draw(finite(0.005, 0.05))
    if kind == "nesterov":
        beta = draw(finite(2.0, 5.0))
        rates = nesterov_bundle(beta)
    else:
        beta = None
        rates = (coupled_bundle(draw(finite(0.5, 2.0)), draw(finite(0.0, 1.0)))
                 if kind in ("amd", "samd") else md_bundle(draw(finite(0.0, 1.0))))
    spec = SystemSpec(kind=kind, mmap=mmap, objective=objective, rates=rates, noise=noise,
                      x0=x0, z0=mmap.dual_of(x0) if euclid else np.log(x0), beta=beta)
    steps = draw(st.integers(1, 600))
    # an inexact span clips its last step to a fraction of h
    frac = draw(st.sampled_from([0.0, 0.0, 0.3, 0.77]))
    t_end = rates.t0 + (steps + frac) * h
    stride = draw(st.sampled_from([1, 3, 10]))
    seed = draw(st.integers(0, 2**16))
    return spec, cert, t_end, h, stride, seed


@given(runs())
def test_simulate_equals_the_per_step_reference_bitwise(run):
    spec, cert, t_end, h, stride, seed = run
    stream = NoiseStream(seed, 1)
    traj = simulate(spec, cert, t_end, h, record_stride=stride, stream=stream)
    ref = ref_simulate(spec, cert, t_end, h, stride, NoiseStream(seed, 1))
    for name in ("x", "z", "gap", "energy", "b", "martingale"):
        got = getattr(traj, name)
        assert (got is None) == (ref[name] is None), name
        if got is not None:
            np.testing.assert_array_equal(got, ref[name], err_msg=name)
    n_steps, _ = step_count(spec.rates.t0, t_end, h)
    assert stream.position == (spec.mmap.dim * n_steps if spec.is_stochastic else 0)


@pytest.mark.parametrize("noise_kind", ["scalar", "diagonal"])
@pytest.mark.parametrize("geometry", ["simplex", "euclidean"])
@pytest.mark.parametrize("n", [PAIRWISE_MIN - 1, PAIRWISE_MIN])
def test_samd_on_either_side_of_the_pairwise_sum(n, geometry, noise_kind):
    """`row_sum` adds fewer than 8 coordinates in Python and passes 8 or
    more to numpy; the derandomized profile need not draw either n."""
    rng = np.random.default_rng(n)
    if geometry == "simplex":
        mmap = EntropicSimplexMap(n)
        objective = SumExp(rng.uniform(-2.0, 2.0, (2, n)))
        x0 = mmap.grad_psi_star(rng.uniform(-3.0, 3.0, n))
        x_star = mmap.grad_psi_star(rng.uniform(-3.0, 3.0, n))
        z0, z_star = np.log(x0), mmap.dual_of(x_star)
    else:
        mmap = EuclideanMap(n)
        c = rng.uniform(-1.0, 1.0, n)
        objective = Rank1Quadratic(c / np.linalg.norm(c))
        x0 = z0 = rng.uniform(-2.0, 2.0, n)
        x_star = z_star = rng.uniform(-1.0, 1.0, n)
    cert = MinimizerCertificate(x_star=x_star, f_star=objective.value(x_star), z_star=z_star,
                                boundary=False, residual=0.0, method="drawn")
    spec = SystemSpec(kind="samd", mmap=mmap, objective=objective,
                      rates=coupled_bundle(1.0, 0.5),
                      noise=make_noise(noise_kind, 0.2, -0.1, mmap), x0=x0, z0=z0)
    h, t_end = 0.01, 1.0 + 300.5 * 0.01
    traj = simulate(spec, cert, t_end, h, record_stride=3, stream=NoiseStream(n, 1))
    ref = ref_simulate(spec, cert, t_end, h, 3, NoiseStream(n, 1))
    for name in ("x", "z", "gap", "energy", "b", "martingale"):
        np.testing.assert_array_equal(getattr(traj, name), ref[name], err_msg=name)


def test_covariation_draws_the_per_step_sequence():
    """The blocked draws of `covariation_check` cross several block
    boundaries and end on a partial block, yet give the numbers of per-step
    draws and leave the stream where per-step draws would: its errors are
    those of the projected increments of the reference z sequence."""
    spec, cert = presets.default_spec("samd", rates=coupled_bundle(1.0, 0.5), sigma0=0.1)
    steps, h = 1000 + 37, 1e-3
    stream = NoiseStream(3, 0)
    diag_err, off_max, _, target = covariation_check(spec, cert, steps, h, stream)
    assert stream.position == 3 * steps

    replay = NoiseStream(3, 0)
    x = np.array(spec.x0, float)
    z = np.array(spec.z0, float)
    zs = [z]
    for k in range(steps):
        dW = replay.standard_normals(3) * math.sqrt(h)
        x, z, _, _ = ref_step(spec, x, z, 1.0 + k * h, h, dW)
        zs.append(z)
    error = np.cov(np.diff(zs, axis=0).T, ddof=1) - target
    assert off_max == float(np.abs(error - np.diag(np.diag(error))).max())
    assert diag_err == float(np.abs(np.diag(error)).max() / np.diag(target).max())


PRESCOTT_CHILD = """
import numpy as np
from mirrorflow import presets
from mirrorflow.dynamics import simulate
from mirrorflow.noise import NoiseStream
from mirrorflow.schedules import coupled_bundle
from test_kernel_reference import ref_simulate

for kind, rates in (("samd", coupled_bundle(1.0, 0.5)), ("smd", None)):
    spec, cert = presets.default_spec(kind, rates=rates, sigma0=0.1)
    traj = simulate(spec, cert, 5.0, 1e-2, record_stride=1, stream=NoiseStream(7, 0))
    ref = ref_simulate(spec, cert, 5.0, 1e-2, 1, NoiseStream(7, 0))
    for name in ("x", "z", "gap", "energy", "b", "martingale"):
        np.testing.assert_array_equal(getattr(traj, name), ref[name], err_msg=kind + " " + name)
"""


def test_martingale_holds_under_a_second_blas_kernel():
    """OpenBLAS's Prescott kernels round a 3-vector dot unlike the native
    ones; the step adds the Ito increment left to right on floats, so the
    default-instance samd and smd runs equal the reference loop under them
    too. The variable reaches the child process only."""
    src = str(Path(mirrorflow.__file__).resolve().parents[1])
    path = os.pathsep.join([src, str(Path(__file__).resolve().parent)])
    proc = subprocess.run(
        [sys.executable, "-c", PRESCOTT_CHILD],
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": "Prescott"},
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
