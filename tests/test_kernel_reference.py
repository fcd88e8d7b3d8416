"""`simulate` against a reference loop kept from the per-step kernel it
replaced: the same Euler-Maruyama arithmetic, with a fresh
`standard_normals(n) * sqrt(hk)` draw at every step, the step's gradient
and softmax taken coordinate by coordinate with `math.exp`, the Ito
integral's increment added at every step, the energy's dual anchor
recomputed at every recorded row with numpy, and b taken at every recorded
row from the power-law algebra. The two must agree bit for bit."""

import itertools
import math
import os
import subprocess
import sys
from array import array
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
    bind_step,
    md_bundle,
    nesterov_bundle,
    simulate,
    step_count,
)
from mirrorflow.maps import PAIRWISE_MIN, EntropicSimplexMap, EuclideanMap
from mirrorflow.noise import (DiagonalPowerLawNoise, NoiseStream, ScalarPowerLawNoise,
                              StateScaledNoise, ZeroNoise, make_noise)
from mirrorflow.objectives import MinimizerCertificate, Rank1Quadratic, SumExp
from mirrorflow.schedules import CONSTANT_ONE, coupled_bundle


def ref_exp(v):
    """math.exp(v), or inf where it overflows, as np.exp gives."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def ref_sum(values):
    """The sum of the floats `values` as the step adds them: left to right
    from 0.0 below PAIRWISE_MIN terms, pairwise by `np.add.reduce` from
    there on."""
    values = list(values)
    if len(values) >= PAIRWISE_MIN:
        return float(np.add.reduce(np.array(values)))
    total = 0.0
    for v in values:
        total += v
    return total


def ref_grad_psi_star(mmap, z):
    """The step's mirror point: on the simplex one math.exp(z_i - max z)
    per coordinate, each divided by their `ref_sum`."""
    if isinstance(mmap, EuclideanMap):
        return np.asarray(z, dtype=float).copy()
    top = float(np.max(z))
    e = [ref_exp(v - top) for v in np.asarray(z, dtype=float).tolist()]
    total = ref_sum(e)
    return np.array([v / total for v in e])


def ref_anchor_point(mmap, z):
    """The energy's mirror point, with numpy's exp and sum, as
    `energy_anchor` takes it."""
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
    """The objectives' gradients as the step computes them. Below
    PAIRWISE_MIN coordinates (and rows) coordinate by coordinate: every sum
    a `ref_sum` chain, each exponential `ref_exp`. From there on through
    BLAS, `np.exp(C @ x) @ C` or <c, x> c."""
    x = np.asarray(x, dtype=float)
    if isinstance(objective, SumExp):
        C = objective.coefficients
        if max(C.shape) >= PAIRWISE_MIN:
            return np.exp(C @ x) @ C
        e = [ref_exp(ref_sum(c * v for c, v in zip(row, x.tolist()))) for row in C.tolist()]
        return np.array([ref_sum(ei * c for ei, c in zip(e, col)) for col in C.T.tolist()])
    if x.size >= PAIRWISE_MIN:
        return float(objective.c @ x) * objective.c
    u = ref_sum(c * v for c, v in zip(objective.c.tolist(), x.tolist()))
    return np.array([u * c for c in objective.c.tolist()])


def ref_energy(mmap, rates, z_star, gap, z, t):
    s_t = rates.s.value(t)
    zp = z / s_t
    div = (ref_psi_star(mmap, zp) - ref_psi_star(mmap, z_star)
           - float(ref_anchor_point(mmap, z_star) @ (zp - z_star)))
    return rates.r.value(t) * gap + s_t * div


def ref_b(spec, t):
    """b(t) = integral of eta^2 sigma*^2 over [t0, t] in closed form, with
    eta = 1 for the non-averaged kinds; zero without noise."""
    sigma_star = spec.noise.sigma_star_power()
    if sigma_star is None:
        return 0.0
    eta = spec.rates.eta if spec.kind in ("amd", "samd") else CONSTANT_ONE
    return (eta.squared() * sigma_star.squared()).integral(spec.rates.t0, t)


def ref_diag(noise, x, t):
    """The diagonal of sigma(x, t) as the step computes it, one Python float
    per coordinate: s0 * t ** alpha for the scalar and diagonal models, the
    state-scaled base times 1 + gain * tanh(<direction, x - center>) with
    the dot added left to right from 0.0, and 0.0 without noise."""
    n = noise.dim
    if isinstance(noise, ZeroNoise):
        return np.zeros(n)
    if isinstance(noise, DiagonalPowerLawNoise):
        return np.array([s * t ** a for s, a in zip(noise.sigma0s.tolist(),
                                                   noise.alphas.tolist())])
    if isinstance(noise, StateScaledNoise):
        u = 0.0
        for v, xi, c in zip(noise.direction.tolist(), np.asarray(x, dtype=float).tolist(),
                            noise.center.tolist()):
            u += v * (xi - c)
        base = noise.base.sigma0 * t ** noise.base.alpha
        return np.full(n, base * (1.0 + noise.gain * math.tanh(u)))
    return np.full(n, noise.sigma0 * t ** noise.alpha)


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
            d = ref_diag(spec.noise, x, t)
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


def one_step(spec, x, z, t, hk, dW=None, x_star=None):
    """One step of `bind_step`'s loop from time t: a block of one step, with
    one increment for a stochastic spec, on Python-float lists. Returns the
    new (x, z) as lists and the Ito integral's increment."""
    dWs = None if dW is None else [np.asarray(dW, dtype=float).tolist()]
    x, z, dmart, _ = bind_step(spec, x_star)(
        np.asarray(x, dtype=float).tolist(), np.asarray(z, dtype=float).tolist(), 0.0,
        0, 1, t, hk, hk, dWs, 1, array("d"), array("d"), array("d"))
    return x, z, dmart


def ref_simulate(spec, cert, t_end, h, record_stride, stream):
    """Per-step draws; returns (x, z, gap, energy, b, martingale) rows."""
    rates, mmap = spec.rates, spec.mmap
    t0 = rates.t0
    n = mmap.dim
    track = spec.kind != "nesterov" and not cert.boundary
    x_star = cert.x_star if track else None
    n_steps, exact = step_count(t0, t_end, h)
    rows = [*range(0, n_steps, record_stride), n_steps]
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
    Euler stays stable at the drawn steps; diagonal noise gets a volatility
    per coordinate."""
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
    sigma0, alpha = draw(finite(0.01, 1.0)), draw(finite(-0.5, 0.45))
    if noise_kind == "diagonal":
        # distinct per-coordinate volatilities: equal ones hide a diagonal
        # read in the wrong coordinate order
        noise = DiagonalPowerLawNoise(draw(vectors(n, 0.01, 1.0)), np.full(n, alpha))
    else:
        noise = make_noise(noise_kind, sigma0, alpha, mmap)
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


def fixed_instance(n, geometry, rng):
    """(map, objective, x0, z0, x*, z*) of n coordinates drawn from rng: a
    two-row SumExp on the simplex, or a unit rank-one quadratic on the
    euclidean map."""
    if geometry == "simplex":
        mmap = EntropicSimplexMap(n)
        objective = SumExp(rng.uniform(-2.0, 2.0, (2, n)))
        x0 = mmap.grad_psi_star(rng.uniform(-3.0, 3.0, n))
        x_star = mmap.grad_psi_star(rng.uniform(-3.0, 3.0, n))
        return mmap, objective, x0, np.log(x0), x_star, mmap.dual_of(x_star)
    mmap = EuclideanMap(n)
    c = rng.uniform(-1.0, 1.0, n)
    x0 = rng.uniform(-2.0, 2.0, n)
    x_star = rng.uniform(-1.0, 1.0, n)
    return mmap, Rank1Quadratic(c / np.linalg.norm(c)), x0, x0, x_star, x_star


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


def branch_cases():
    """Every branch of the generated step on either side of the pairwise
    sum, at n = 1, PAIRWISE_MIN - 1 and PAIRWISE_MIN: each kind with each
    noise model it admits, each map it admits, constant and growing s, and
    an interior or a boundary certificate. The oscillator's bundle fixes
    s = 1."""
    for n in (1, PAIRWISE_MIN - 1, PAIRWISE_MIN):
        for kind in ("md", "smd", "amd", "samd", "nesterov"):
            noise_kinds = (("zero", "scalar", "diagonal", "state-scaled")
                           if kind in ("smd", "samd") else ("zero",))
            geometries, s_exponents = ((("euclidean",), (0.0,)) if kind == "nesterov"
                                       else (("simplex", "euclidean"), (0.0, 0.5)))
            for noise_kind, geometry, alpha_s, boundary in itertools.product(
                    noise_kinds, geometries, s_exponents, (False, True)):
                yield pytest.param(n, kind, noise_kind, geometry, alpha_s, boundary,
                                   id=f"{n}-{kind}-{noise_kind}-{geometry}-s{alpha_s}-"
                                      + ("boundary" if boundary else "interior"))


@pytest.mark.parametrize("n, kind, noise_kind, geometry, alpha_s, boundary", branch_cases())
def test_every_branch_of_the_short_step_equals_the_reference(n, kind, noise_kind, geometry,
                                                             alpha_s, boundary):
    """`bind_step` writes the step out coordinate by coordinate, its sums
    as chains below PAIRWISE_MIN coordinates and through `row_sum` from
    there on; each branch of it equals the reference loop bit for bit, over
    an inexact span whose last step is clipped."""
    rng = np.random.default_rng(n)
    mmap, objective, x0, z0, x_star, z_star = fixed_instance(n, geometry, rng)
    cert = MinimizerCertificate(x_star=x_star, f_star=objective.value(x_star),
                                z_star=None if boundary else z_star, boundary=boundary,
                                residual=0.0, method="drawn")
    beta = 3.0 if kind == "nesterov" else None
    rates = {"md": md_bundle(alpha_s), "smd": md_bundle(alpha_s),
             "amd": coupled_bundle(1.5, alpha_s), "samd": coupled_bundle(1.5, alpha_s),
             "nesterov": nesterov_bundle(3.0)}[kind]
    # distinct per-coordinate volatilities, which make_noise's diagonal model lacks
    noise = (DiagonalPowerLawNoise(rng.uniform(0.1, 0.3, n), np.full(n, -0.1))
             if noise_kind == "diagonal" else make_noise(noise_kind, 0.2, -0.1, mmap))
    spec = SystemSpec(kind=kind, mmap=mmap, objective=objective, rates=rates, noise=noise,
                      x0=x0, z0=np.zeros(n) if kind == "nesterov" else z0, beta=beta)
    h, t_end = 0.01, 1.0 + 40.5 * 0.01
    traj = simulate(spec, cert, t_end, h, record_stride=1, stream=NoiseStream(n, 2))
    ref = ref_simulate(spec, cert, t_end, h, 1, NoiseStream(n, 2))
    for name in ("x", "z", "gap", "energy", "b", "martingale"):
        got = getattr(traj, name)
        assert (got is None) == (ref[name] is None), name
        if got is not None:
            np.testing.assert_array_equal(got, ref[name], err_msg=name)


def test_the_step_compiles_and_equals_the_reference_at_4000_coordinates():
    """CPython cannot compile one expression that chains some thousands of
    additions, so the generated step keeps every sum out of such a chain,
    the state-scaled factor's dot included; at 4,000 coordinates it still
    equals the reference loop bit for bit, with diagonal and with
    state-scaled noise."""
    n = 4000
    rng = np.random.default_rng(n)
    mmap, objective, x0, z0, x_star, z_star = fixed_instance(n, "simplex", rng)
    cert = MinimizerCertificate(x_star=x_star, f_star=objective.value(x_star), z_star=z_star,
                                boundary=False, residual=0.0, method="drawn")
    direction = rng.normal(size=n)
    for noise in (DiagonalPowerLawNoise(rng.uniform(0.1, 0.3, n), np.full(n, -0.1)),
                  StateScaledNoise(ScalarPowerLawNoise(0.2, -0.1, n),
                                   direction / np.linalg.norm(direction), mmap.barycenter(),
                                   mmap=mmap)):
        spec = SystemSpec(kind="samd", mmap=mmap, objective=objective,
                          rates=coupled_bundle(1.0, 0.5), noise=noise, x0=x0, z0=z0)
        t_end = 1.0 + 3 * 0.01
        traj = simulate(spec, cert, t_end, 0.01, record_stride=1, stream=NoiseStream(n, 1))
        ref = ref_simulate(spec, cert, t_end, 0.01, 1, NoiseStream(n, 1))
        for name in ("x", "z", "gap", "energy", "b", "martingale"):
            np.testing.assert_array_equal(getattr(traj, name), ref[name],
                                          err_msg=f"{type(noise).__name__} {name}")


@pytest.mark.parametrize("kind", ["md", "samd"])
@pytest.mark.parametrize("rows", [PAIRWISE_MIN - 1, PAIRWISE_MIN])
@pytest.mark.parametrize("n", [3, PAIRWISE_MIN - 1])
def test_sum_exp_on_either_side_of_the_row_threshold(n, rows, kind):
    """Below PAIRWISE_MIN coordinates the step writes the gradient as float
    code only while the sum of exponentials has fewer than PAIRWISE_MIN
    rows, and takes `gradient` from there on; on either side it equals the
    reference loop bit for bit, over an inexact span whose last step is
    clipped."""
    rng = np.random.default_rng(10 * n + rows)
    mmap = EntropicSimplexMap(n)
    objective = SumExp(rng.uniform(-2.0, 2.0, (rows, n)))
    x0 = mmap.grad_psi_star(rng.uniform(-3.0, 3.0, n))
    x_star = mmap.grad_psi_star(rng.uniform(-3.0, 3.0, n))
    cert = MinimizerCertificate(x_star=x_star, f_star=objective.value(x_star),
                                z_star=mmap.dual_of(x_star), boundary=False, residual=0.0,
                                method="drawn")
    noisy = kind == "samd"
    spec = SystemSpec(kind=kind, mmap=mmap, objective=objective,
                      rates=coupled_bundle(1.0, 0.5) if noisy else md_bundle(0.5),
                      noise=make_noise("scalar" if noisy else "zero", 0.2, -0.1, mmap),
                      x0=x0, z0=np.log(x0))
    h, t_end = 0.01, 1.0 + 60.5 * 0.01
    traj = simulate(spec, cert, t_end, h, record_stride=1, stream=NoiseStream(n, 3))
    ref = ref_simulate(spec, cert, t_end, h, 1, NoiseStream(n, 3))
    for name in ("x", "z", "gap", "energy", "b", "martingale"):
        np.testing.assert_array_equal(getattr(traj, name), ref[name], err_msg=name)


@pytest.mark.parametrize("noise", [DiagonalPowerLawNoise([0.0, 0.1, 0.2], [-0.3] * 3),
                                   ScalarPowerLawNoise(0.0, -0.3, 3)], ids=["diagonal", "scalar"])
def test_a_zero_volatility_binds_and_equals_the_reference(noise):
    """`PowerLaw` refuses a zero coefficient, yet the step writes a zero
    volatility as any other: a diagonal model with one zero coordinate and
    a zero scalar model bind, one step driven by an increment equals the
    reference step, and a run equals the reference loop, bit for bit."""
    spec, cert = presets.default_spec("samd", rates=coupled_bundle(1.0, 0.5), sigma0=0.1)
    spec = SystemSpec(kind="samd", mmap=spec.mmap, objective=spec.objective, rates=spec.rates,
                      noise=noise, x0=spec.x0, z0=spec.z0)
    dW = np.array([0.03, -0.01, 0.02])
    x1, z1, dmart = one_step(spec, spec.x0, spec.z0, 1.5, 0.01, dW, cert.x_star)
    rx, rz, _, rmart = ref_step(spec, spec.x0, spec.z0, 1.5, 0.01, dW, cert.x_star)
    np.testing.assert_array_equal(x1, rx)
    np.testing.assert_array_equal(z1, rz)
    assert dmart == rmart
    t_end = 1.0 + 200.5 * 0.01
    traj = simulate(spec, cert, t_end, 0.01, record_stride=3, stream=NoiseStream(5, 1))
    ref = ref_simulate(spec, cert, t_end, 0.01, 3, NoiseStream(5, 1))
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


DISPATCH_CHILD = """
import hashlib
import numpy as np
from mirrorflow.dynamics import SystemSpec, md_bundle, nesterov_bundle, simulate
from mirrorflow.maps import EntropicSimplexMap, EuclideanMap
from mirrorflow.noise import (DiagonalPowerLawNoise, NoiseStream, ScalarPowerLawNoise,
                              StateScaledNoise, ZeroNoise, make_noise)
from mirrorflow.objectives import MinimizerCertificate, Rank1Quadratic
from mirrorflow.schedules import coupled_bundle
from mirrorflow import presets

digest = hashlib.sha256()
simplex = EntropicSimplexMap(3)
cert = MinimizerCertificate(x_star=np.array(X_STAR), f_star=0.0, z_star=np.array(Z_STAR),
                            boundary=False, residual=0.0, method="literal")
for kind, rates, sigma0 in (("samd", coupled_bundle(1.0, 0.5), 0.1),
                            ("smd", md_bundle(0.5), 0.1),
                            ("amd", coupled_bundle(1.0, 0.5), 0.0)):
    spec = SystemSpec(kind=kind, mmap=simplex, objective=presets.default_sum_exp(),
                      rates=rates, noise=make_noise("scalar", sigma0, 0.0, simplex),
                      x0=simplex.barycenter(), z0=np.zeros(3))
    traj = simulate(spec, cert, 5.0, 1e-2, stream=NoiseStream(7, 0))
    for part in (traj.x, traj.z, traj.martingale):
        digest.update(part.tobytes())
# distinct diagonal volatilities, and a state-scaled factor: the step writes
# both as float code, with no numpy power or BLAS dot
for noise in (DiagonalPowerLawNoise([0.1, 0.2, 0.15], [-0.3] * 3),
              StateScaledNoise(ScalarPowerLawNoise(0.2, -0.1, 3), np.array([0.6, -0.8, 0.0]),
                               simplex.barycenter(), mmap=simplex)):
    spec = SystemSpec(kind="samd", mmap=simplex, objective=presets.default_sum_exp(),
                      rates=coupled_bundle(1.0, 0.5), noise=noise,
                      x0=simplex.barycenter(), z0=np.zeros(3))
    traj = simulate(spec, cert, 50.0, 1e-2, stream=NoiseStream(7, 0))
    for part in (traj.x, traj.z, traj.martingale):
        digest.update(part.tobytes())
spec = SystemSpec(kind="nesterov", mmap=EuclideanMap(2), objective=Rank1Quadratic(
                      np.array([1.0, 0.6])), rates=nesterov_bundle(3.0), noise=ZeroNoise(2),
                  x0=np.array([1.0, -0.5]), z0=np.zeros(2), beta=3.0)
traj = simulate(spec, MinimizerCertificate(x_star=np.zeros(2), f_star=0.0, z_star=None,
                                           boundary=True, residual=0.0, method="literal"),
                5.0, 1e-2)
digest.update(traj.x.tobytes())
digest.update(traj.z.tobytes())
print(digest.hexdigest())
"""


def avx512_targets():
    """numpy's dispatch targets of AVX-512 that this host enables."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy before 2.0
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [t for t in __cpu_dispatch__
            if __cpu_features__.get(t) and (t.startswith("AVX512") or t == "X86_V4")]


@pytest.mark.parametrize("dispatch", ["Prescott", "no-AVX-512", "Haswell"])
def test_the_short_step_has_one_hash_under_every_dispatch(dispatch):
    """Below 8 coordinates the step calls no numpy arithmetic, so its x, z
    and martingale keep their bits under OpenBLAS's Prescott and Haswell
    kernels and with numpy's AVX-512 loops disabled: default samd, smd and
    amd runs, samd runs with diagonal and with state-scaled noise, and an
    oscillator run hash alike in a child under each and in a native child.
    The certificate reaches the children as literals, so the oracle's
    dispatch does not enter."""
    env = {}
    if dispatch in ("Prescott", "Haswell"):
        env["OPENBLAS_CORETYPE"] = dispatch
    else:
        targets = avx512_targets()
        if not targets:
            pytest.skip("numpy enables no AVX-512 target on this host")
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(targets)
    cert = presets.certificate_for(presets.default_sum_exp(), EntropicSimplexMap(3))
    script = (DISPATCH_CHILD.replace("X_STAR", repr(cert.x_star.tolist()))
              .replace("Z_STAR", repr(cert.z_star.tolist())))
    src = str(Path(mirrorflow.__file__).resolve().parents[1])
    digests = []
    for extra in ({}, env):
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": src, **extra},
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]
