import hashlib
import math
import warnings

import numpy as np
import pytest

from mirrorflow import maps, presets
from mirrorflow.errors import NoConvergence
from mirrorflow.objectives import (
    Rank1Quadratic,
    SumExp,
    make_objective,
    solve_minimizer,
)
from test_kernel_reference import ref_gradient


def inline_sum_exp(n, scale=1024.0):
    """Identity rows centred on the simplex, perturbed by ((3i + 5j) mod 11 -
    5) / scale: the shape of an inline scenario's objective."""
    return SumExp(np.array([[float(i == j) - 1.0 / n + ((3 * i + 5 * j) % 11 - 5) / scale
                             for j in range(n)] for i in range(n)]))


def pinned_instance(name, n):
    if name == "inline":
        return inline_sum_exp(n)
    return {"default": presets.default_sum_exp, "face": presets.face_sum_exp,
            "rank1": presets.default_rank1}[name]()


def ref_root(objective, x):
    """J and r with Hessian J^T J and gradient J^T r."""
    if isinstance(objective, SumExp):
        C = objective.coefficients
        root = np.sqrt(np.exp(C @ x))
        return root[:, None] * C, root
    return objective.c[None, :], np.array([objective.c @ x])


def ref_residual(objective, x):
    g = ref_gradient(objective, x)
    return float(g @ x - g.min())


def ref_face_newton(objective, x):
    """Newton on the face (coordinates at or above 1e-8, and those with a
    lower slope than all of them) as a least-squares solve in the moves
    e_j - e_ref, ref the face's largest coordinate; a coordinate that would
    reach 0 leaves the face at 0 and its mass goes to ref."""
    J, r = ref_root(objective, x)
    if not (np.isfinite(J).all() and np.isfinite(r).all()):
        return None
    g = J.T @ r
    face = (x >= 1e-8) | (g < g[x >= 1e-8].min())
    base = x.copy()
    while face.any():
        idx = np.flatnonzero(face)
        ref = idx[np.argmax(x[idx])]
        free = idx[idx != ref]
        shift = base - x
        shift[ref] += x.sum() - base.sum()
        u = np.linalg.lstsq(J[:, free] - J[:, [ref]], -(r + J @ shift))[0]
        y = x + shift
        y[free] += u
        y[ref] -= u.sum()
        if (y[idx] > 0.0).all():
            return y / y.sum()
        base[idx[y[idx] <= 0.0]] = 0.0
        face[idx[y[idx] <= 0.0]] = False
    return None


def ref_minimizer(objective, tol):
    """The simplex oracle on plain arrays: multiplicative-weights steps at
    0.5 / L from the barycentre; before every 64th step the residual test,
    and before steps 64, 128, 256, ... up to 16 Newton steps on the face,
    the first below tol ending the solve."""
    n = objective.dim
    step = 0.5 / objective.grad_lipschitz_bound(maps.EntropicSimplexMap(n))
    x = np.full(n, 1.0 / n)
    for it in range(1_000_000):
        if it % 64 == 0:
            if ref_residual(objective, x) < tol:
                return x
            if it >= 64 and bin(it).count("1") == 1:
                y = x
                for _ in range(16):
                    y = ref_face_newton(objective, y)
                    if y is None:
                        break
                    if ref_residual(objective, y) < tol:
                        return y
        z = np.log(np.maximum(x, 1e-300)) - step * ref_gradient(objective, x)
        e = np.exp(z - z.max())
        x = e / e.sum()
    raise AssertionError("the reference loop did not converge")


class TestValues:
    def test_sum_exp_constant_when_c_zero(self, rng):
        obj = SumExp(np.zeros((1, 3)))
        for x in rng.dirichlet(np.ones(3), size=5):
            assert obj.value(x) == pytest.approx(1.0)
            np.testing.assert_array_equal(obj.gradient(x), np.zeros(3))

    def test_sum_exp_single_direction(self):
        obj = SumExp(np.array([[1.0, 0.0, 0.0]]))
        assert obj.value(np.array([1.0, 0.0, 0.0])) == pytest.approx(math.e)
        obj2 = SumExp(np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(obj2.gradient(np.array([1.0, 0.0])), [math.e, 0.0])
        np.testing.assert_allclose(obj2.gradient(np.zeros(2)), [1.0, 0.0])

    def test_rank1_orthogonal_slice(self):
        obj = Rank1Quadratic(np.array([1.0, -1.0]))
        assert obj.value(np.array([0.5, 0.5])) == pytest.approx(0.0)
        np.testing.assert_array_equal(obj.gradient(np.array([0.5, 0.5])), np.zeros(2))

    def test_convexity_first_order(self, rng, default_objective):
        pts = rng.dirichlet(np.ones(3), size=200)
        for x, y in zip(pts[:-1], pts[1:]):
            lower = default_objective.value(x) + float(
                default_objective.gradient(x) @ (y - x)
            )
            assert default_objective.value(y) >= lower - 1e-10


class TestGradientsByFiniteDifference:
    @pytest.mark.parametrize(
        "objective",
        [presets.default_sum_exp(), presets.face_sum_exp(), presets.default_rank1()],
        ids=["sum-exp", "sum-exp-face", "rank1"],
    )
    def test_central_differences(self, objective, rng):
        step = 1e-5
        pts = rng.dirichlet(np.ones(objective.dim), size=1000)
        for x in pts:
            g = objective.gradient(x)
            scale = max(1.0, float(np.abs(g).max()))
            for j in range(objective.dim):
                e = np.zeros(objective.dim)
                e[j] = step
                fd = (objective.value(x + e) - objective.value(x - e)) / (2 * step)
                assert abs(fd - g[j]) / scale < 1e-6

    @pytest.mark.parametrize(
        "objective",
        [presets.default_sum_exp(), presets.face_sum_exp(), presets.default_rank1()],
        ids=["sum-exp", "sum-exp-face", "rank1"],
    )
    def test_hessian_root_against_central_differences(self, objective, rng):
        """J^T J is the Hessian (by central differences of the gradient) and
        J^T r the gradient."""
        step = 1e-5
        for x in rng.dirichlet(np.ones(objective.dim), size=200):
            J, r = objective.hessian_root(x)
            np.testing.assert_allclose(J.T @ r, objective.gradient(x), rtol=1e-13, atol=1e-15)
            H = J.T @ J
            scale = max(1.0, float(np.abs(H).max()))
            for j in range(objective.dim):
                e = np.zeros(objective.dim)
                e[j] = step
                fd = (objective.gradient(x + e) - objective.gradient(x - e)) / (2 * step)
                assert np.abs(fd - H[:, j]).max() / scale < 1e-6


class TestOracle:
    def test_symmetric_instance_minimized_at_barycenter(self, simplex3):
        # coefficient rows invariant under coordinate permutation
        base = 2.0 * (np.eye(3) - np.ones((3, 3)) / 3.0)
        cert = solve_minimizer(SumExp(base), simplex3, tol=1e-12)
        np.testing.assert_allclose(cert.x_star, np.ones(3) / 3, atol=1e-9)
        assert not cert.boundary

    def test_rank1_reaches_zero(self, simplex3):
        cert = solve_minimizer(presets.default_rank1(), simplex3, tol=1e-12)
        assert cert.f_star == pytest.approx(0.0, abs=1e-15)
        assert abs(float(presets.DEFAULT_RANK1_C @ cert.x_star)) < 1e-8

    def test_default_instance_interior_golden_values(self, default_certificate):
        cert = default_certificate
        assert not cert.boundary
        assert cert.residual < 1e-12
        np.testing.assert_allclose(
            cert.x_star,
            [0.36741369625911685, 0.33845584075617763, 0.2941304629847055],
            atol=1e-9,
        )
        assert cert.f_star == pytest.approx(2.9837166806744833, abs=1e-10)

    def test_face_instance_is_boundary(self, simplex3):
        cert = presets.certificate_for(presets.face_sum_exp(), simplex3)
        assert cert.boundary
        assert cert.z_star is None
        assert cert.f_star == pytest.approx(3.4601056420895886, abs=1e-9)

    def test_oracle_consistency_random_probes(self, rng, default_certificate):
        obj = presets.default_sum_exp()
        pts = rng.dirichlet(np.ones(3), size=10_000)
        values = np.array([obj.value(p) for p in pts])
        assert np.all(values >= default_certificate.f_star - 1e-10)

    def test_certificate_anchor_consistency(self, simplex3, default_certificate):
        np.testing.assert_allclose(
            simplex3.grad_psi_star(default_certificate.z_star),
            default_certificate.x_star,
            atol=1e-8,
        )

    def test_euclidean_rank1(self):
        m = maps.EuclideanMap(2)
        cert = solve_minimizer(Rank1Quadratic(np.array([1.0, 0.6])), m, tol=1e-10)
        assert cert.f_star == pytest.approx(0.0, abs=1e-15)
        assert cert.residual < 1e-10

    @pytest.mark.parametrize("name, n, x_star_sha256, f_star", [
        ("default", 3, "928135356bf9f18af5d5f999f11c99d4d7bedcb35b3b4fe8ed7c2c34c2d42634",
         "0x1.7dea6d9e03672p+1"),
        ("face", 3, "22823bee2765ee2fb94ae03b994966adc5a28308fa360f15dd63c5aaa2957a0e",
         "0x1.bae4bddebd67ap+1"),
        ("rank1", 3, "6f396ce8f229d5339ade9fb75fa07503584a451a6cf02b194f99f2aa4c6e0d0d",
         "0x1.39c62151580ddp-110"),
        ("inline", 8, "3bbf9030384f2cd6ba4a67fff8df83ee860dda74b0ce40653c13dc98112057fe",
         "0x1.fffb26c879fdbp+2"),
        ("inline", 50, "b2ffea8f35bd7fdeabb82c4af0103b4ba41787757315058334dfee50bc0287c5",
         "0x1.8fff2d07e42cep+5"),
    ])
    def test_minimizer_bits_pinned(self, name, n, x_star_sha256, f_star):
        """x* and f* bit for bit on the dispatch they were recorded on (x86-64
        with AVX-512); n = 8 and 50 take `row_sum`'s pairwise side. Every
        instance takes the oracle's own step."""
        cert = solve_minimizer(pinned_instance(name, n), maps.EntropicSimplexMap(n), tol=1e-12)
        assert hashlib.sha256(cert.x_star.astype("<f8").tobytes()).hexdigest() == x_star_sha256
        assert float(cert.f_star).hex() == f_star

    @pytest.mark.parametrize("name, n", [
        ("default", 3), ("face", 3), ("rank1", 3), ("inline", 8), ("inline", 50)])
    def test_minimizer_equals_reference_loop(self, name, n):
        """The oracle equals its plain-array reference bit for bit, on any
        numpy dispatch: the pins above hold only on the one they record."""
        objective = pinned_instance(name, n)
        cert = solve_minimizer(objective, maps.EntropicSimplexMap(n), tol=1e-12)
        x = ref_minimizer(objective, 1e-12)
        np.testing.assert_array_equal(cert.x_star, x)
        assert cert.residual == ref_residual(objective, x)

    @pytest.mark.parametrize("scale, boundary", [(1024.0, False), (64.0, True)])
    def test_inline_n50_certifies_with_its_own_step(self, scale, boundary):
        """At n = 50 the oracle's own step certifies. Perturbations /1024
        give an interior minimizer, /64 one on a face with small positive
        coordinates, where the multiplicative step alone still leaves a
        residual of 2.8e-8 after 100,000 iterations and the Newton steps on
        the face finish."""
        cert = solve_minimizer(inline_sum_exp(50, scale), maps.EntropicSimplexMap(50),
                               tol=1e-10, max_iter=100_000)
        assert cert.residual < 1e-10
        assert cert.boundary == boundary
        assert (cert.z_star is None) == boundary

    def test_budget_exhaustion_raises(self, simplex3):
        with pytest.raises(NoConvergence):
            solve_minimizer(presets.default_sum_exp(), simplex3, tol=1e-12, max_iter=3)

    @pytest.mark.parametrize("max_iter, message", [
        (1, "residual nan above tolerance"), (1_000_000, "not finite after 64 steps")])
    def test_overflow_stops_at_the_first_check(self, max_iter, message):
        """The gradient is finite at the barycentre, but one step at the
        fallback 0.1 puts x near (0, 1), where exp(1000) overflows. With a
        budget of one step the final residual is NaN; with the full budget
        the check at 64 steps finds it. Both raise at once, without a numpy
        warning."""
        obj = SumExp(np.array([[2000.0, -2000.0], [-1000.0, 1000.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence, match=message):
                solve_minimizer(obj, maps.EntropicSimplexMap(2), max_iter=max_iter)

    def test_overflowing_instance_fails_at_the_first_check(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            obj = SumExp(np.array([[1e300, 0.0]]))
            assert math.isnan(obj.grad_lipschitz_bound(maps.EntropicSimplexMap(2)))
            with pytest.raises(NoConvergence, match="not finite after 0 steps"):
                solve_minimizer(obj, maps.EntropicSimplexMap(2))


def test_make_objective_round_trip():
    obj = make_objective("sum-exp", [[1.0, 0.0], [0.0, 1.0]])
    assert isinstance(obj, SumExp)
    desc = obj.describe()
    again = make_objective(desc["kind"], desc["c"])
    np.testing.assert_array_equal(again.coefficients, obj.coefficients)
    with pytest.raises(ValueError):
        make_objective("cubic", [1.0])
