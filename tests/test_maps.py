import math

import numpy as np
import pytest

from mirrorflow import maps
from mirrorflow.errors import BoundaryMinimizer, InfeasiblePoint

ALL_DIMS = (2, 5, 50)


def random_duals(mmap, rng, count, scale=3.0):
    return rng.normal(scale=scale, size=(count, mmap.dim))


def each_map(dim):
    return [maps.EntropicSimplexMap(dim), maps.EuclideanMap(dim)]


class TestEntropicValues:
    def test_psi_at_barycenter_is_zero(self):
        m = maps.EntropicSimplexMap(3)
        assert m.psi(np.ones(3) / 3) == pytest.approx(0.0, abs=1e-12)

    def test_psi_closed_form(self):
        m = maps.EntropicSimplexMap(2)
        expected = 0.9 * math.log(0.9) + 0.1 * math.log(0.1) + math.log(2)
        assert m.psi(np.array([0.9, 0.1])) == pytest.approx(expected, abs=1e-14)
        assert m.psi(np.array([0.9, 0.1])) == pytest.approx(0.3680642071684971, abs=1e-12)

    def test_psi_handles_boundary_points(self):
        m = maps.EntropicSimplexMap(3)
        # x log x extends by 0: vertices attain the maximum log n
        assert m.psi(np.array([1.0, 0.0, 0.0])) == pytest.approx(math.log(3), abs=1e-12)

    def test_psi_star_at_zero_is_zero(self):
        # conjugate of the shifted potential: sup of -psi = -min psi = 0
        m = maps.EntropicSimplexMap(3)
        assert m.psi_star(np.zeros(3)) == pytest.approx(0.0, abs=1e-14)

    def test_psi_star_closed_form(self):
        m = maps.EntropicSimplexMap(2)
        expected = math.log(math.e + 1.0) - math.log(2)
        assert m.psi_star(np.array([1.0, 0.0])) == pytest.approx(expected, abs=1e-14)
        assert m.psi_star(np.array([1.0, 0.0])) == pytest.approx(0.62011450695828, abs=1e-12)

    def test_psi_star_never_overflows(self):
        m = maps.EntropicSimplexMap(4)
        z = np.array([1e4, 0.0, -1e4, 5e3])
        assert np.isfinite(m.psi_star(z))
        assert np.all(np.isfinite(m.grad_psi_star(z)))

    def test_grad_psi_star_uniform_and_softmax(self):
        m3 = maps.EntropicSimplexMap(3)
        np.testing.assert_allclose(m3.grad_psi_star(np.zeros(3)), np.ones(3) / 3)
        m2 = maps.EntropicSimplexMap(2)
        np.testing.assert_allclose(
            m2.grad_psi_star(np.array([math.log(3), 0.0])), [0.75, 0.25], atol=1e-15
        )

    def test_bregman_closed_form(self):
        m = maps.EntropicSimplexMap(2)
        expected = math.log((math.e + 1.0) / 2.0) - 0.5
        got = m.bregman_div_star(np.array([1.0, 0.0]), np.zeros(2))
        assert got == pytest.approx(expected, abs=1e-14)
        assert got == pytest.approx(0.12011450695828, abs=1e-12)

    def test_dual_projection_removes_mean(self):
        _, project = maps.EntropicSimplexMap(3).point_functions()
        np.testing.assert_array_equal(project(np.ones(3)), np.zeros(3))
        _, project2 = maps.EntropicSimplexMap(2).point_functions()
        np.testing.assert_allclose(project2(np.array([3.0, 1.0])), [1.0, -1.0])

    def test_dual_of(self):
        m3 = maps.EntropicSimplexMap(3)
        np.testing.assert_allclose(m3.dual_of(np.ones(3) / 3), np.zeros(3), atol=1e-15)
        m2 = maps.EntropicSimplexMap(2)
        half_log3 = math.log(3) / 2
        np.testing.assert_allclose(
            m2.dual_of(np.array([0.75, 0.25])), [half_log3, -half_log3], atol=1e-12
        )

    def test_dual_of_inverts_grad_psi_star(self, rng):
        m = maps.EntropicSimplexMap(5)
        for x in rng.dirichlet(np.ones(5), size=50):
            x = np.clip(x, 1e-6, None)
            x /= x.sum()
            np.testing.assert_allclose(m.grad_psi_star(m.dual_of(x)), x, atol=1e-9)

    def test_dual_of_boundary_raises(self):
        m = maps.EntropicSimplexMap(3)
        with pytest.raises(BoundaryMinimizer):
            m.dual_of(np.array([1.0, 0.0, 0.0]))

    def test_infeasible_rejected(self):
        m = maps.EntropicSimplexMap(3)
        with pytest.raises(InfeasiblePoint):
            m.psi(np.array([0.5, 0.6, 0.1]))
        with pytest.raises(InfeasiblePoint):
            m.psi(np.array([1.2, -0.1, -0.1]))


def test_support_function():
    d = np.array([0.5, -2.0, 1.5])
    assert maps.EntropicSimplexMap(3).support(d) == 1.5
    assert maps.EuclideanMap(3).support(d) == math.inf
    assert maps.EuclideanMap(3).support(np.zeros(3)) == 0.0


class TestEuclideanValues:
    def test_psi_and_conjugate(self):
        m = maps.EuclideanMap(2)
        assert m.psi(np.zeros(2)) == 0.0
        assert m.psi_star(np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_grad_identity_and_projection(self):
        m = maps.EuclideanMap(2)
        z = np.array([1.5, -2.0])
        np.testing.assert_array_equal(m.grad_psi_star(z), z)
        _, project = m.point_functions()
        np.testing.assert_array_equal(project(np.array([3.0, 1.0])), [3.0, 1.0])
        np.testing.assert_array_equal(m.dual_of(np.array([2.0, -1.0])), [2.0, -1.0])

    def test_bregman_is_half_squared_distance(self):
        m = maps.EuclideanMap(2)
        got = m.bregman_div_star(np.array([1.0, 0.0]), np.zeros(2))
        assert got == pytest.approx(0.5)


@pytest.mark.parametrize("dim", ALL_DIMS)
def test_fenchel_identity(dim, rng):
    for mmap in each_map(dim):
        for z in random_duals(mmap, rng, 1000):
            x = mmap.grad_psi_star(z)
            residual = mmap.psi(x) + mmap.psi_star(z) - float(x @ z)
            assert abs(residual) < 1e-9


@pytest.mark.parametrize("dim", ALL_DIMS)
def test_bregman_identity(dim, rng):
    # psi(grad*(z1)) - psi(grad*(z2)) equals D(z2, z1) - <grad*(z2) - grad*(z1), z2>
    for mmap in each_map(dim):
        zs = random_duals(mmap, rng, 1000)
        for z1, z2 in zip(zs[:-1], zs[1:]):
            lhs = mmap.psi(mmap.grad_psi_star(z1)) - mmap.psi(mmap.grad_psi_star(z2))
            rhs = mmap.bregman_div_star(z2, z1) - float(
                (mmap.grad_psi_star(z2) - mmap.grad_psi_star(z1)) @ z2
            )
            assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("dim", ALL_DIMS)
def test_conjugate_gradient_lipschitz(dim, rng):
    for mmap in each_map(dim):
        zs = random_duals(mmap, rng, 1000)
        for z1, z2 in zip(zs[:-1], zs[1:]):
            lhs = mmap.primal_norm(mmap.grad_psi_star(z1) - mmap.grad_psi_star(z2))
            rhs = mmap.lipschitz_grad_conjugate * mmap.dual_norm(z1 - z2)
            assert lhs <= rhs + 1e-9


@pytest.mark.parametrize("dim", ALL_DIMS)
def test_entropic_shift_invariance(dim, rng):
    mmap = maps.EntropicSimplexMap(dim)
    ones = np.ones(dim)
    for z in random_duals(mmap, rng, 100):
        base = mmap.grad_psi_star(z)
        # rounding of z + alpha itself caps achievable agreement; stay tight
        for alpha in rng.uniform(-1e3, 1e3, size=10):
            np.testing.assert_allclose(
                mmap.grad_psi_star(z + alpha * ones), base, rtol=1e-11, atol=1e-15
            )
        # integer shifts of an integer-valued dual are exactly representable
        zi = np.round(z)
        np.testing.assert_array_equal(
            mmap.grad_psi_star(zi + 8.0 * ones), mmap.grad_psi_star(zi)
        )


@pytest.mark.parametrize("dim", ALL_DIMS)
def test_bregman_nonnegative(dim, rng):
    for mmap in each_map(dim):
        zs = random_duals(mmap, rng, 500)
        for z1, z2 in zip(zs[:-1], zs[1:]):
            assert mmap.bregman_div_star(z1, z2) >= -1e-12


def test_bregman_zero_cases():
    m = maps.EntropicSimplexMap(3)
    z = np.array([0.3, -1.0, 0.7])
    assert m.bregman_div_star(z, z) == pytest.approx(0.0, abs=1e-15)
    # shifting by a constant vector keeps the divergence at zero
    assert m.bregman_div_star(z + 5.0, z) == pytest.approx(0.0, abs=1e-12)
    e = maps.EuclideanMap(3)
    assert e.bregman_div_star(z, z) == 0.0


def test_grad_psi_star_lands_in_feasible_set(rng):
    m = maps.EntropicSimplexMap(7)
    for z in random_duals(m, rng, 200, scale=50.0):
        x = m.grad_psi_star(z)
        m.require_feasible(x)


def test_projection_preserves_mirror_point(rng):
    m = maps.EntropicSimplexMap(4)
    _, project = m.point_functions()
    for z in random_duals(m, rng, 200):
        np.testing.assert_allclose(m.grad_psi_star(project(z)), m.grad_psi_star(z), atol=1e-15)


def test_declared_constants():
    for mmap in (maps.EntropicSimplexMap(5), maps.EuclideanMap(5)):
        assert mmap.lipschitz_grad_conjugate == 1.0
    assert maps.EntropicSimplexMap(4).diameter == 2.0
    assert maps.EuclideanMap(4).diameter == float("inf")


def test_make_map():
    assert isinstance(maps.make_map("entropic-simplex", 4), maps.EntropicSimplexMap)
    assert isinstance(maps.make_map("euclidean", 4), maps.EuclideanMap)
    with pytest.raises(ValueError):
        maps.make_map("hyperbolic", 3)
