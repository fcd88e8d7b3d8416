import math

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

    def test_budget_exhaustion_raises(self, simplex3):
        with pytest.raises(NoConvergence):
            solve_minimizer(presets.default_sum_exp(), simplex3, tol=1e-12, max_iter=3)


def test_make_objective_round_trip():
    obj = make_objective("sum-exp", [[1.0, 0.0], [0.0, 1.0]])
    assert isinstance(obj, SumExp)
    desc = obj.describe()
    again = make_objective(desc["kind"], desc["c"])
    np.testing.assert_array_equal(again.coefficients, obj.coefficients)
    with pytest.raises(ValueError):
        make_objective("cubic", [1.0])
