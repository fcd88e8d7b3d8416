import math

import numpy as np
import pytest

from mirrorflow import presets
from mirrorflow.dynamics import simulate
from mirrorflow.noise import (
    DiagonalPowerLawNoise,
    NoiseStream,
    ScalarPowerLawNoise,
    StateScaledNoise,
    ZeroNoise,
    make_noise,
)
from test_kernel_reference import ref_diag


class TestModels:
    def test_scalar_constant(self):
        model = ScalarPowerLawNoise(0.1, 0.0, 3)
        x = np.ones(3) / 3
        # 0.1 * 5.0**0.0 is 0.1 on every coordinate
        np.testing.assert_array_equal(ref_diag(model, x, 5.0), np.full(3, 0.1))

    def test_zero_model(self):
        model = ZeroNoise(3)
        assert model.is_zero
        assert model.sigma_star_power() is None
        np.testing.assert_array_equal(ref_diag(model, np.ones(3) / 3, 1.0), np.zeros(3))

    def test_scalar_decay(self):
        model = ScalarPowerLawNoise(0.1, -0.5, 2)
        np.testing.assert_allclose(ref_diag(model, np.array([0.5, 0.5]), 4.0), [0.05, 0.05])

    def test_sigma_star_sq_values(self):
        model = ScalarPowerLawNoise(0.1, 0.2, 3)
        assert model.sigma_star_power().value(10.0) ** 2 == pytest.approx(0.01 * 10**0.4)
        assert model.sigma_star_power().value(10.0) ** 2 == pytest.approx(0.02511886, abs=1e-7)
        assert ZeroNoise(3).sigma_star_power() is None

    def test_diagonal_equal_entries_matches_scalar(self):
        scalar = ScalarPowerLawNoise(0.2, 0.3, 4)
        diag = DiagonalPowerLawNoise(np.full(4, 0.2), np.full(4, 0.3))
        for t in (1.0, 7.0, 50.0):
            assert diag.sigma_star_power().value(t) ** 2 == pytest.approx(
                scalar.sigma_star_power().value(t) ** 2)
        p = diag.sigma_star_power()
        assert (p.coef, p.exponent) == (0.2, 0.3)

    def test_diagonal_mixed_exponents_has_no_power_form(self):
        # the sup would switch to the slower-decaying coordinate for large t
        with pytest.raises(ValueError, match="alphas must be equal"):
            DiagonalPowerLawNoise([0.1, 0.2], [0.0, -0.5])

    def test_state_scaled_bound_dominates_samples(self, rng, simplex3):
        base = ScalarPowerLawNoise(0.1, 0.1, 3)
        d = np.array([1.0, -1.0, 0.5])
        model = StateScaledNoise(base, direction=d, center=np.ones(3) / 3, mmap=simplex3)
        for t in (1.0, 10.0):
            bound = model.sigma_star_power().value(t) ** 2
            # exact: the factor peaks at the vertex e_0, where <d, x - c> = 1 - 1/6
            peak = base.sigma_star_power().value(t) ** 2 * (1 + 0.5 * math.tanh(5 / 6)) ** 2
            assert bound == pytest.approx(peak, rel=1e-12)
            assert bound == pytest.approx(ref_diag(model, np.eye(3)[0], t).max() ** 2, rel=1e-12)
            for x in rng.dirichlet(np.ones(3), size=1000):
                assert ref_diag(model, x, t).max() ** 2 <= bound * (1 + 1e-12)

    def test_state_scaled_factor_capped(self, rng, simplex3):
        base = ScalarPowerLawNoise(1.0, 0.0, 3)
        model = StateScaledNoise(base, np.array([5.0, -5.0, 0.0]), np.ones(3) / 3,
                                 mmap=simplex3)
        for x in rng.dirichlet(np.ones(3), size=200):
            d = ref_diag(model, x, 1.0)
            assert np.all((0.5 <= d) & (d <= 1.5))

    def test_make_noise(self, simplex3):
        assert make_noise("zero", 0.5, 0.0, simplex3).is_zero
        assert make_noise("scalar", 0.0, 0.0, simplex3).is_zero  # zero amplitude degenerates
        assert isinstance(make_noise("scalar", 0.1, 0.0, simplex3), ScalarPowerLawNoise)
        assert isinstance(make_noise("diagonal", 0.1, 0.0, simplex3), DiagonalPowerLawNoise)
        assert make_noise("diagonal", 0.1, 0.0, simplex3).dim == 3
        assert isinstance(make_noise("state-scaled", 0.1, 0.0, simplex3), StateScaledNoise)
        with pytest.raises(ValueError):
            make_noise("jump", 0.1, 0.0, simplex3)


def increments(stream: NoiseStream, h: float, n: int) -> np.ndarray:
    """n Wiener increments over a step h, drawn as simulate draws them."""
    return stream.standard_normals(n) * math.sqrt(h)


class TestStreams:
    def test_replay_is_identical(self):
        a = NoiseStream(123, 4)
        b = NoiseStream(123, 4)
        da = np.concatenate([increments(a, 0.01, 3) for _ in range(50)])
        db = np.concatenate([increments(b, 0.01, 3) for _ in range(50)])
        np.testing.assert_array_equal(da, db)
        assert a.position == b.position == 150

    def test_batch_equals_stepwise(self):
        # chunked draws replay the same underlying sequence
        a = NoiseStream(9, 0)
        b = NoiseStream(9, 0)
        batch = a.standard_normals(60).reshape(20, 3)
        steps = np.array([b.standard_normals(3) for _ in range(20)])
        np.testing.assert_array_equal(batch, steps)

    def test_distinct_indices_differ(self):
        a = NoiseStream(123, 0).standard_normals(64)
        b = NoiseStream(123, 1).standard_normals(64)
        assert not np.array_equal(a, b)
        assert abs(float(np.corrcoef(a, b)[0, 1])) < 0.4

    def test_increment_moments(self):
        h = 0.37
        draws = increments(NoiseStream(2024, 0), h, 1_000_000)
        assert abs(draws.mean()) < 4.0 * math.sqrt(h / 1e6)
        assert draws.var() == pytest.approx(h, rel=0.01)

    def test_spawn(self):
        # a trajectory's stream is keyed by (seed, index) alone: draws from
        # other streams in between change nothing
        first = NoiseStream(7, 3).standard_normals(8)
        NoiseStream(7, 0).standard_normals(100)
        np.testing.assert_array_equal(NoiseStream(7, 3).standard_normals(8), first)
        assert not np.array_equal(NoiseStream(8, 3).standard_normals(8), first)

    def test_invalid_step(self):
        spec, cert = presets.default_spec("samd", sigma0=0.1)
        stream = NoiseStream(1, 0)
        with pytest.raises(ValueError, match="0 < h"):
            simulate(spec, cert, t_end=2.0, h=0.0, stream=stream)
        assert stream.position == 0
