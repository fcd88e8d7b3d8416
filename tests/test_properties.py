"""Property-based checks: the scenario text round trip, the agreement
between configuration admission and what the integrator accepts, scenarios
with extreme values ending in one error line and not a traceback, the
power-law form and exactness of every noise model's volatility bound, the
entropic map's identities at extreme dual magnitudes, stacked evaluation
equal to row-by-row evaluation, the step's list arithmetic equal to the
array methods, and the minimizer oracle's certificate."""

import contextlib
import io
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mirrorflow.cli import main
from mirrorflow.config import (
    ETA_CHOICES,
    MIRROR_CHOICES,
    NOISE_CHOICES,
    OBJECTIVE_CHOICES,
    ScenarioConfig,
    build_spec,
    emit_config,
    parse_config,
    validate,
)
from mirrorflow.dynamics import energy_anchor, energy_value, simulate
from mirrorflow.errors import StepTooLarge
from mirrorflow.maps import (INTERIOR_THRESHOLD, EntropicSimplexMap, EuclideanMap, row_sum,
                             softmax, softmax_point)
from mirrorflow.noise import (
    DiagonalPowerLawNoise,
    NoiseStream,
    ScalarPowerLawNoise,
    StateScaledNoise,
    ZeroNoise,
)
from mirrorflow.objectives import Rank1Quadratic, SumExp, solve_minimizer
from mirrorflow.schedules import coupled_bundle
from test_kernel_reference import ref_diag


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def alpha_r_tokens(draw):
    kind = draw(st.sampled_from(["auto", "relative", "number"]))
    if kind == "auto":
        return "auto"
    value = draw(finite(0.01, 2.0))
    if kind == "number":
        return repr(value)
    return "auto" + draw(st.sampled_from("+-")) + repr(value)


@st.composite
def valid_configs(draw):
    """Scenarios that pass validation: every field drawn inside its
    admissible range, with the averaged systems kept on small steps."""
    kind = draw(st.sampled_from(["md", "smd", "amd", "samd", "nesterov"]))
    stochastic = kind in ("smd", "samd")
    dim = draw(st.integers(1, 4))
    inline = draw(st.booleans())
    t0 = draw(finite(0.5, 2.0))
    span = draw(finite(0.5, 50.0))
    alpha_sigma = draw(finite(-0.5, 0.45))
    objective_kind = draw(st.sampled_from(OBJECTIVE_CHOICES))
    # an inline rank-one quadratic is one row
    rows = 1 if objective_kind == "rank1-quadratic" else 3
    return ScenarioConfig(
        system_kind=kind,
        objective_kind=objective_kind,
        objective_source="inline" if inline else draw(st.sampled_from(["default", "face"])),
        objective_dim=dim,
        objective_c=draw(st.lists(st.lists(finite(-5.0, 5.0), min_size=dim, max_size=dim),
                                  min_size=1, max_size=rows)) if inline else None,
        mirror_kind="euclidean" if kind == "nesterov" else draw(st.sampled_from(MIRROR_CHOICES)),
        alpha_r=draw(st.one_of(st.just("auto"), finite(0.05, 2.0))),
        alpha_s=draw(finite(0.0, 1.5)),
        # explicit rates may break eta >= r'; the averaged systems keep eta = r'
        eta_mode="coupled" if kind in ("amd", "samd") else draw(st.sampled_from(ETA_CHOICES)),
        eta_coef=draw(finite(0.1, 5.0)),
        eta_exponent=draw(finite(-1.0, 2.0)),
        r_coef=draw(finite(0.1, 5.0)),
        beta=draw(finite(2.0, 6.0)),
        noise_kind=draw(st.sampled_from(NOISE_CHOICES)) if stochastic else "zero",
        # sigma0^2 must stay a normal float, so a positive sigma0 is not tiny
        sigma0=draw(st.one_of(st.just(0.0), finite(1e-6, 1.0))) if stochastic else 0.0,
        alpha_sigma=alpha_sigma,
        t0=t0,
        t_end=t0 + span,
        h=draw(finite(1e-4, 0.05)) * t0,
        record_stride=draw(st.integers(1, 50)),
        count=draw(st.integers(1, 500)),
        seed=draw(st.integers(0, 2**63)),
        out=draw(st.text("abcxyz0123456789_-./", min_size=1, max_size=20)),
        sweep_alpha_sigma=draw(st.lists(finite(-1.0, 1.0), max_size=4)),
        sweep_alpha_s=draw(st.lists(finite(0.0, 2.0), max_size=4)),
        sweep_alpha_r=draw(st.lists(alpha_r_tokens(), max_size=4)),
    )


@given(valid_configs())
def test_emit_then_parse_is_identity(cfg):
    assert validate(cfg) == []
    assert parse_config(emit_config(cfg)) == cfg


@st.composite
def averaged_rate_configs(draw):
    """amd/samd scenarios of at most 20 steps whose non-rate fields are
    valid; the rates themselves may break eta >= r' or the step guard."""
    kind = draw(st.sampled_from(["amd", "samd"]))
    t0 = draw(finite(0.5, 2.0))
    h = draw(finite(0.01, 1.0))
    steps = draw(st.integers(2, 20))
    return ScenarioConfig(
        system_kind=kind,
        alpha_r=draw(st.one_of(st.just("auto"), finite(0.05, 3.0))),
        alpha_s=draw(finite(0.0, 1.0)),
        eta_mode=draw(st.sampled_from(["coupled", "explicit"])),
        eta_coef=draw(finite(0.1, 5.0)),
        eta_exponent=draw(finite(-1.0, 2.0)),
        r_coef=draw(finite(0.1, 3.0)),
        noise_kind="scalar" if kind == "samd" else "zero",
        sigma0=0.1 if kind == "samd" else 0.0,
        alpha_sigma=draw(finite(-0.5, 0.45)),
        t0=t0,
        t_end=t0 + steps * h,
        h=h,
        record_stride=5,
    )


@given(averaged_rate_configs())
def test_validate_rejects_exactly_what_simulate_rejects(cfg):
    violations = validate(cfg)
    spec, cert = build_spec(cfg)
    stream = NoiseStream(cfg.seed, 0) if spec.is_stochastic else None
    try:
        simulate(spec, cert, t_end=cfg.t_end, h=cfg.h, record_stride=cfg.record_stride,
                 stream=stream)
    except StepTooLarge as exc:
        assert str(exc) in violations
    except ValueError as exc:
        assert "not admissible" in str(exc)
        assert violations
    else:
        assert violations == []


def test_rate_strategy_reaches_both_verdicts():
    """Both branches of the property above are exercised."""
    verdicts = set()

    @given(averaged_rate_configs())
    def collect(cfg):
        verdicts.add(not validate(cfg))

    collect()
    assert verdicts == {True, False}


#: per key, ordinary values and extremes: zero, negative, tiny, huge, unknown words
EDGE_VALUES = {
    "system.kind": ["md", "smd", "amd", "samd", "nesterov", "sgd"],
    "objective.kind": ["sum-exp", "rank1-quadratic", "lasso"],
    "objective.source": ["default", "face", "inline", "file"],
    "objective.dim": ["1", "2", "3", "0", "-1", "1000000000000"],
    "mirror.kind": ["entropic-simplex", "euclidean", "sphere"],
    "rates.alpha_r": ["auto", "0.5", "1.0", "0", "-1", "400", "1e-300", "1e300"],
    "rates.alpha_s": ["0.0", "0.5", "-1", "400", "1e9", "1e-300"],
    "rates.eta": ["coupled", "explicit", "eta"],
    "rates.eta_coef": ["1.0", "0", "-1", "1e-170", "1e300"],
    "rates.eta_exponent": ["0.0", "1.0", "-400", "400", "1e300"],
    "rates.r_coef": ["1.0", "0", "-1", "1e-170", "1e-320", "1e300"],
    "rates.beta": ["2.0", "3.0", "1.0", "1e300"],
    "noise.kind": ["zero", "scalar", "diagonal", "state-scaled", "pink"],
    "noise.sigma0": ["0.0", "0.1", "-1", "1e-170", "1e-320", "1e300"],
    "noise.alpha_sigma": ["0.0", "0.25", "0.5", "-0.5", "2000", "-2000"],
    "run.record_stride": ["1", "10", "0", "-1", "1000000000"],
    "seed": ["0", "7", "-1", str(2**64)],
    "sweep.alpha_sigma": ["", "0.0", "0.2 0.0", "0.5", "2000 -2000"],
    "sweep.alpha_s": ["", "0.5", "0.0 1e9", "-1"],
    "sweep.alpha_r": ["", "auto", "auto-0.2 auto+0.2", "auto-2.0", "400", "1e300", "x"],
}
COMMANDS = ["simulate", "ensemble", "rates", "compare"]


def mostly(ordinary, extremes):
    """One of the ordinary values about four times in five, else an extreme."""
    return st.integers(0, 99).flatmap(lambda i: st.sampled_from(ordinary if i < 80 else extremes))


@st.composite
def edge_scenarios(draw):
    """Scenario text that sets a few keys to ordinary or extreme values. Runs
    stay small: t_end is at most t0 + 11, h at least 0.05 and the count at
    most 3, unless they hold extremes the configuration refuses."""
    lines = [f"{key} = {draw(st.sampled_from(values))}"
             for key, values in EDGE_VALUES.items() if draw(mostly([False], [True]))]
    if draw(mostly([False], [True])):
        dim = draw(st.integers(1, 3))
        rows = draw(st.lists(st.lists(st.sampled_from([0.0, 1.0, -2.0, 30.0, 1e300]),
                                      min_size=dim, max_size=dim), min_size=1, max_size=2))
        lines.append("objective.c = " + " ; ".join(" ".join(map(repr, row)) for row in rows))
    t0 = draw(mostly([1.0, 0.5], [0.0, -1.0, 1e-300, 1e15]))
    span = draw(mostly([11.0, 2.0], [1e-9, 0.0, -1.0]))
    h = draw(mostly(["0.05", "0.5"], ["20", "0", "-1", "1e-300", "1e-320"]))
    count = draw(mostly(["3", "1"], ["0", "-1", "1000000000000"]))
    lines += [f"run.t0 = {t0!r}", f"run.t_end = {t0 + span!r}", f"run.h = {h}",
              f"ensemble.count = {count}"]
    return "\n".join(lines) + "\n"


@given(edge_scenarios(), st.sampled_from(COMMANDS))
def test_no_scenario_ends_in_a_traceback(text, command):
    """Every scenario ends in a result, or in one error line and exit 1 or 2;
    no exception escapes `main`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.cfg"
        path.write_text(text + f"out = {Path(tmp) / 'run'}\n")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", str(path)])
    assert code in (0, 1, 2)
    errors = [line for line in stderr.getvalue().splitlines()
              if line.startswith(("error:", "configuration error:"))]
    assert len(errors) <= 1


amplitudes = st.one_of(st.just(0.0), finite(1e-6, 10.0))


def mirror_maps(dim):
    return st.sampled_from([EntropicSimplexMap, EuclideanMap]).map(lambda cls: cls(dim))


@st.composite
def feasible_points(draw, mmap):
    """A point of the map's feasible set: normalized weights on the
    simplex, any bounded vector on the euclidean map."""
    if isinstance(mmap, EuclideanMap):
        return np.array(draw(st.lists(finite(-1e3, 1e3), min_size=mmap.dim, max_size=mmap.dim)))
    w = np.array(draw(st.lists(finite(0.0, 1.0), min_size=mmap.dim, max_size=mmap.dim)))
    return w / w.sum() if w.sum() > 0.0 else np.eye(mmap.dim)[0]


@st.composite
def noise_models(draw):
    """One of the four noise models with its drawn amplitudes, and whether
    all of them are zero."""
    kind = draw(st.sampled_from(["zero", "scalar", "diagonal", "state-scaled"]))
    dim = draw(st.integers(1, 4))
    alpha = draw(finite(-2.0, 2.0))
    if kind == "zero":
        return ZeroNoise(dim), True
    if kind == "diagonal":
        sigma0s = draw(st.lists(amplitudes, min_size=dim, max_size=dim))
        return DiagonalPowerLawNoise(sigma0s, np.full(dim, alpha)), not any(sigma0s)
    sigma0 = draw(amplitudes)
    base = ScalarPowerLawNoise(sigma0, alpha, dim)
    if kind == "scalar":
        return base, sigma0 == 0.0
    direction = np.array(draw(st.lists(finite(-5.0, 5.0), min_size=dim, max_size=dim)))
    model = StateScaledNoise(base, direction, np.full(dim, 1.0 / dim),
                             gain=draw(finite(0.0, 0.5)), mmap=draw(mirror_maps(dim)))
    return model, sigma0 == 0.0


@given(noise_models())
def test_every_noise_model_bounds_sigma_star_by_a_power_law(drawn):
    model, zero = drawn
    power = model.sigma_star_power()
    assert (power is None) == zero == model.is_zero


@st.composite
def state_scaled_models(draw):
    """A state-scaled model on either map, n from 1 to 50; one draw in ten
    has a zero direction and one in ten a zero gain."""
    dim = draw(st.integers(1, 50))
    mmap = draw(mirror_maps(dim))
    base = ScalarPowerLawNoise(draw(finite(1e-6, 10.0)), draw(finite(-2.0, 2.0)), dim)
    entries = st.one_of(st.just(0.0), finite(-5.0, -1e-3), finite(1e-3, 5.0))
    direction = np.array(draw(st.lists(entries, min_size=dim, max_size=dim)))
    if draw(st.integers(0, 9)) == 0:
        direction = np.zeros(dim)
    gain = 0.0 if draw(st.integers(0, 9)) == 0 else draw(finite(0.0, 0.5))
    # a simplex center is feasible on both maps and keeps |<d, c>| <= 5, so
    # tanh saturates on the euclidean map only through its infinite support
    center = draw(feasible_points(EntropicSimplexMap(dim)))
    return StateScaledNoise(base, direction, center, gain, mmap=mmap), mmap


@given(state_scaled_models(), st.data(), finite(0.01, 1e3))
def test_state_scaled_sigma_star_is_the_exact_sup(drawn, data, t):
    model, mmap = drawn
    bound = model.sigma_star_power().value(t) ** 2

    def sq(x):
        return float(ref_diag(model, x, t).max()) ** 2

    points = [data.draw(feasible_points(mmap)) for _ in range(5)]
    if isinstance(mmap, EntropicSimplexMap):
        vertices = list(np.eye(mmap.dim))
        best = max(sq(v) for v in vertices)
    else:
        # tanh(<d, x - c>) rounds to 1 once <d, x - c> = 40; d = 0 is flat
        d = model.direction
        vertices = []
        best = sq(model.center + 40.0 * d / (d @ d) if np.any(d) else model.center)
    for x in vertices + points:
        assert sq(x) <= bound * (1.0 + 1e-12)
    assert bound == pytest.approx(best, rel=1e-12)


def dual_points(dim):
    """Dual vectors with |z| up to 3e3: unit-box entries times one magnitude."""
    unit = st.lists(finite(-1.0, 1.0), min_size=dim, max_size=dim).map(np.array)
    return st.tuples(unit, finite(0.0, 3e3)).map(lambda pair: pair[0] * pair[1])


@given(st.integers(2, 50).flatmap(lambda n: st.tuples(dual_points(n), dual_points(n))))
def test_entropic_identities_at_extreme_dual_magnitudes(duals):
    z, z_prime = duals
    mmap = EntropicSimplexMap(len(z))
    # every identity below sums terms of size |z|, so rounding scales with it
    tol = 1e-12 * max(1.0, float(np.abs(z).max()), float(np.abs(z_prime).max()))
    x = mmap.grad_psi_star(z)
    assert abs(mmap.psi(x) + mmap.psi_star(z) - float(x @ z)) <= tol
    moved = mmap.primal_norm(x - mmap.grad_psi_star(z_prime))
    assert moved <= mmap.lipschitz_grad_conjugate * mmap.dual_norm(z - z_prime) + tol
    assert mmap.bregman_div_star(z_prime, z) >= -tol


@st.composite
def stacks(draw):
    """Rows of duals with |z| up to 3e3 and of feasible points (some of them
    vertices on the simplex) for either map at n from 1 to 50, with gaps,
    times and a rate bundle for the energy."""
    n = draw(st.integers(1, 50))
    rows = draw(st.integers(1, 40))
    mmap = draw(st.sampled_from([EntropicSimplexMap(n), EuclideanMap(n)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 30.0, 3e3]))
    zs = rng.uniform(-1.0, 1.0, (rows, n)) * rng.uniform(0.0, scale, (rows, 1))
    if isinstance(mmap, EntropicSimplexMap):
        xs = mmap.grad_psi_star(rng.uniform(-1.0, 1.0, (rows, n)) * scale)
        xs[rng.uniform(size=rows) < 0.2] = np.eye(n)[0]
    else:
        xs = rng.uniform(-1.0, 1.0, (rows, n)) * scale
    z_star = rng.uniform(-1.0, 1.0, n) * scale
    rates = coupled_bundle(draw(finite(0.1, 3.0)), draw(finite(0.0, 1.0)))
    times = rng.uniform(0.5, 300.0, rows)
    gaps = rng.uniform(0.0, 10.0, rows)
    # <c_i, x> stays within 2n, so exp does not overflow
    objective = draw(st.sampled_from([
        SumExp(rng.uniform(-2.0, 2.0, (int(rng.integers(1, 4)), n))
               / max(1.0, float(np.abs(xs).max()))),
        Rank1Quadratic(rng.uniform(-2.0, 2.0, n)),
    ]))
    return mmap, objective, zs, xs, z_star, rates, times, gaps


@given(stacks())
def test_stacked_evaluation_equals_row_by_row_bitwise(stack):
    mmap, objective, zs, xs, z_star, rates, times, gaps = stack

    def same(stacked, one_by_one):
        for shape in ((len(zs),), (1, len(zs))):
            got = stacked(shape)
            assert got.shape == shape
            np.testing.assert_array_equal(got.ravel(), np.array(one_by_one))

    def rows_of(a, shape):
        return a.reshape(shape + a.shape[1:])

    same(lambda sh: objective.value(rows_of(xs, sh)), [objective.value(x) for x in xs])
    same(lambda sh: mmap.psi(rows_of(xs, sh)), [mmap.psi(x) for x in xs])
    same(lambda sh: mmap.psi_star(rows_of(zs, sh)), [mmap.psi_star(z) for z in zs])
    same(lambda sh: mmap.primal_norm(rows_of(zs, sh)), [mmap.primal_norm(z) for z in zs])
    same(lambda sh: mmap.dual_norm(rows_of(zs, sh)), [mmap.dual_norm(z) for z in zs])
    np.testing.assert_array_equal(mmap.grad_psi_star(zs),
                                  np.array([mmap.grad_psi_star(z) for z in zs]))
    np.testing.assert_array_equal(mmap.grad_psi_star(zs[None]),
                                  np.array([mmap.grad_psi_star(zs)]))
    anchor = energy_anchor(mmap, z_star)
    same(lambda sh: mmap.bregman_div_star_at(rows_of(zs, sh), *anchor),
         [mmap.bregman_div_star_at(z, *anchor) for z in zs])
    partners = zs[::-1]
    same(lambda sh: mmap.bregman_div_star(rows_of(zs, sh), rows_of(partners, sh)),
         [mmap.bregman_div_star(z, w) for z, w in zip(zs, partners)])
    # one time at a time, as a Python float, the way `simulate` used to pass it
    same(lambda sh: energy_value(mmap, rates, anchor, gaps.reshape(sh), rows_of(zs, sh),
                                 times.reshape(sh)),
         [energy_value(mmap, rates, anchor, g, z, t)
          for g, z, t in zip(gaps.tolist(), zs, times.tolist())])


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def magnitudes():
    """Floats of either sign from 1e-300 to 1e300, with the two zeros."""
    scaled = st.tuples(finite(1.0, 10.0), st.integers(-300, 299), st.sampled_from([1.0, -1.0]))
    return st.one_of(scaled.map(lambda p: p[2] * p[0] * 10.0 ** p[1]),
                     st.sampled_from([0.0, -0.0]))


@given(st.lists(st.one_of(magnitudes(), st.floats()), min_size=1, max_size=300))
def test_row_sum_is_numpys_sum_bitwise(values):
    # st.floats() reaches inf, -inf and nan; sums of huge values overflow
    with np.errstate(over="ignore", invalid="ignore"):
        assert bits(row_sum(values)) == bits(float(np.add.reduce(np.array(values))))


@given(st.integers(1, 50).flatmap(dual_points))
def test_point_functions_equal_the_array_methods_bitwise(z):
    point = z.tolist()
    got_x, got_z = softmax_point(point), EntropicSimplexMap(len(z)).project_point(point)
    assert type(got_x) is list and type(got_z) is list
    assert list(map(bits, got_x)) == list(map(bits, softmax(z).tolist()))
    assert list(map(bits, got_z)) == list(map(bits, (z - z.mean()).tolist()))


@st.composite
def simplex_sum_exps(draw):
    """A sum-exp objective on the simplex: 2 to 6 coordinates, 1 to 6 rows
    of coefficients in [-1, 1], and 3 added to the columns drawn as raised
    (never all). A raised column exceeds every other by at least 1 in each
    row, so its slope exceeds theirs everywhere and its coordinate is 0 at
    the minimizer: the instance has a face minimizer."""
    n = draw(st.integers(2, 6))
    rows = draw(st.integers(1, 6))
    c = np.array(draw(st.lists(finite(-1.0, 1.0), min_size=rows * n, max_size=rows * n)))
    raised = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    raised[draw(st.integers(0, n - 1))] = False
    c = c.reshape(rows, n) + 3.0 * raised
    return SumExp(c), raised


@given(simplex_sum_exps(), st.integers(0, 2**32 - 1))
def test_oracle_certificate_holds(instance, seed):
    """The certificate meets its tolerance, calls x* boundary exactly when a
    coordinate is below INTERIOR_THRESHOLD (and then gives no dual anchor),
    and f* is a lower bound up to the residual: by convexity f(p) >= f* +
    <g*, p - x*> >= f* - residual on the simplex. Raised columns put x* on a
    face: their slope exceeds another's by at least the sum of the terms
    (at least rows / e), so the residual caps their coordinates at tol * e.
    The curvature bound that sets the step holds at every point tried."""
    objective, raised = instance
    n = objective.dim
    mmap = EntropicSimplexMap(n)
    tol = 1e-10
    cert = solve_minimizer(objective, mmap, tol=tol)
    assert cert.residual < tol
    assert cert.boundary == (float(cert.x_star.min()) < INTERIOR_THRESHOLD)
    assert (cert.z_star is None) == cert.boundary
    if raised.any():
        assert cert.boundary
    points = np.vstack([np.eye(n), np.random.default_rng(seed).dirichlet(np.ones(n), 32)])
    assert np.all(objective.value(points) >= cert.f_star - cert.residual - 1e-12)
    bound = objective.grad_lipschitz_bound(mmap)
    for p in points:
        J, _ = objective.hessian_root(p)
        assert float(np.abs(J.T @ J).max()) <= bound * (1.0 + 1e-12)
