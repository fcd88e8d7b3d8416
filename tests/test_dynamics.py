import dataclasses
import math

import numpy as np
import pytest

from mirrorflow import presets
from mirrorflow.dynamics import (
    DETERMINISTIC_TWIN,
    STOCHASTIC_KINDS,
    SystemSpec,
    averaged_iterate,
    bind_step,
    md_bundle,
    nesterov_bundle,
    primal_average_residual,
    simulate,
)
from mirrorflow.errors import NonFinite, StepTooLarge, StrideTooCoarse
from mirrorflow.maps import EntropicSimplexMap, EuclideanMap
from mirrorflow.noise import NoiseStream, ZeroNoise, make_noise
from mirrorflow.objectives import MinimizerCertificate, Rank1Quadratic, SumExp
from mirrorflow.schedules import CONSTANT_ONE, PowerLaw, RateBundle, coupled_bundle
from mirrorflow.verify import ZeroStream
from test_kernel_reference import ref_b, ref_step

FIG_RATES = RateBundle(eta=CONSTANT_ONE, r=PowerLaw(1.0, 1.0), s=PowerLaw(1.0, 0.5))


def make_spec(kind, sigma0=0.0, rates=None, objective=None):
    spec, cert = presets.default_spec(kind, rates=rates, sigma0=sigma0, objective=objective)
    return spec, cert


def oscillator_spec(objective, x0, beta):
    return SystemSpec(
        kind="nesterov", mmap=EuclideanMap(len(x0)), objective=objective,
        rates=nesterov_bundle(beta), noise=ZeroNoise(len(x0)), x0=x0,
        z0=np.zeros(len(x0)), beta=beta,
    )


def noisy_spec(kind, geometry, noise_kind):
    """A smd/samd spec with eta = 1 and noise sigma0 = 0.2, alpha = -0.1 on
    the default simplex instance or a euclidean rank-one quadratic."""
    rates = coupled_bundle(1.0, 0.5) if kind == "samd" else md_bundle(alpha_s=0.5)
    if geometry == "simplex":
        return presets.default_spec(kind, rates=rates, sigma0=0.2, alpha_sigma=-0.1,
                                    noise_kind=noise_kind)
    mmap = EuclideanMap(3)
    x0 = np.array([1.0, -0.5, 0.2])
    spec = SystemSpec(
        kind=kind, mmap=mmap, objective=Rank1Quadratic(np.array([1.0, 0.6, -0.3])),
        rates=rates, noise=make_noise(noise_kind, 0.2, -0.1, mmap), x0=x0, z0=x0,
    )
    cert = MinimizerCertificate(
        x_star=np.zeros(3), f_star=0.0, z_star=np.zeros(3),
        boundary=False, residual=0.0, method="analytic",
    )
    return spec, cert


class TestSingleSteps:
    @pytest.mark.parametrize("kind, noisy", [("md", False), ("smd", True), ("samd", False),
                                             ("samd", True)],
                             ids=["md", "smd", "samd", "samd-noisy"])
    def test_step_matches_hand_arithmetic(self, kind, noisy, simplex3):
        obj = presets.default_sum_exp()
        spec = SystemSpec(
            kind=kind,
            mmap=simplex3,
            objective=obj,
            rates=FIG_RATES if kind == "samd" else md_bundle(alpha_s=0.5),
            noise=make_noise("scalar", 0.1, 0.0, simplex3) if noisy else ZeroNoise(3),
            x0=np.array([0.5, 0.3, 0.2]),
            z0=np.array([0.1, -0.2, 0.1]),
        )
        t, h = 1.0, 0.01
        dW = np.array([0.03, -0.01, 0.02]) if noisy else None
        x_star = np.array([0.4, 0.3, 0.3])
        x1, z1, dmart = bind_step(spec, x_star)(spec.x0, spec.z0, t, h, dW)
        # independent arithmetic; eta = 1 for every kind here
        g = np.exp(obj.coefficients @ spec.x0) @ obj.coefficients
        dz_expect = -h * g - (0.1 * dW if noisy else 0.0)
        z_expect = spec.z0 + dz_expect
        z_expect = z_expect - z_expect.mean()
        # the Ito integrand's anchor: the time-t mirror point, x0 for md/smd
        anchor = spec.x0
        if kind == "samd":
            e = np.exp(spec.z0 / 1.0 - np.max(spec.z0 / 1.0))
            anchor = e / e.sum()
            x_expect = spec.x0 + (1.0 * h) * (anchor - spec.x0)
        else:
            s_next = (t + h) ** 0.5
            e = np.exp(z_expect / s_next - np.max(z_expect / s_next))
            x_expect = e / e.sum()
        np.testing.assert_allclose(z1, z_expect, atol=1e-14)
        np.testing.assert_allclose(x1, x_expect, atol=1e-14)
        if noisy:
            assert dmart == pytest.approx(-0.1 * (anchor - x_star) @ dW, abs=1e-15)
            assert dmart != 0.0
            sigma_star = spec.noise.sigma_star_power().value(t)
            assert sigma_star**2 * h == pytest.approx(0.1**2 * h, rel=1e-14)
        else:
            assert dmart == 0.0

    def test_zero_gradient_relaxes_toward_mirror_point(self, simplex3):
        obj = SumExp(np.zeros((1, 3)))
        cert = MinimizerCertificate(
            x_star=np.ones(3) / 3,
            f_star=1.0,
            z_star=np.zeros(3),
            boundary=False,
            residual=0.0,
            method="constant objective",
        )
        z0 = np.array([0.6, -0.6, 0.0])
        spec = SystemSpec(
            kind="samd",
            mmap=simplex3,
            objective=obj,
            rates=RateBundle(eta=CONSTANT_ONE, r=CONSTANT_ONE, s=CONSTANT_ONE),
            noise=ZeroNoise(3),
            x0=np.ones(3) / 3,
            z0=z0,
        )
        traj = simulate(spec, cert, t_end=9.0, h=0.01, record_stride=100)
        # dual variable never moves; primal relaxes onto grad_psi_star(z0)
        np.testing.assert_allclose(traj.z[-1], z0 - z0.mean(), atol=1e-14)
        target = simplex3.grad_psi_star(z0)
        gap_first = np.abs(traj.x[0] - target).max()
        gap_last = np.abs(traj.x[-1] - target).max()
        assert gap_last < 1e-3 * gap_first

    def test_nesterov_step_hand_arithmetic(self):
        obj = Rank1Quadratic(np.array([1.0, 0.5]))
        x, v = np.array([1.0, -1.0]), np.array([0.2, 0.0])
        t, h, beta = 2.0, 0.05, 3.0
        x1, v1, *_ = bind_step(oscillator_spec(obj, x, beta))(x, v, t, h)
        np.testing.assert_allclose(x1, x + h * v)
        g = (obj.c @ x) * obj.c
        np.testing.assert_allclose(v1, v + h * (-g - v * (beta + 1.0) / t))

    def test_nesterov_zero_gradient_stays_put(self):
        obj = Rank1Quadratic(np.array([0.0, 0.0]))
        x, v = np.array([0.3, -0.8]), np.zeros(2)
        advance = bind_step(oscillator_spec(obj, x, 2.0))
        for t in (1.0, 2.0, 3.0):
            x, v, *_ = advance(x, v, t, 0.1)
        np.testing.assert_array_equal(x, [0.3, -0.8])
        np.testing.assert_array_equal(v, np.zeros(2))

    def test_md_scalar_recursion_exact_geometric_decay(self):
        # euclidean 1-d quadratic: z_{k+1} = (1 - h) z_k exactly
        m = EuclideanMap(1)
        obj = Rank1Quadratic(np.array([1.0]))
        cert = MinimizerCertificate(
            x_star=np.zeros(1), f_star=0.0, z_star=np.zeros(1),
            boundary=False, residual=0.0, method="analytic",
        )
        spec = SystemSpec(
            kind="md", mmap=m, objective=obj, rates=md_bundle(),
            noise=ZeroNoise(1), x0=np.array([1.0]), z0=np.array([1.0]),
        )
        h = 0.125
        traj = simulate(spec, cert, t_end=2.0, h=h)
        ks = np.arange(traj.n_recorded)
        np.testing.assert_allclose(traj.z[:, 0], (1.0 - h) ** ks, atol=1e-14)


class TestSimulateMatchesStepFunctions:
    def test_deterministic_kinds(self):
        euclid_cert = MinimizerCertificate(
            x_star=np.zeros(2), f_star=0.0, z_star=np.zeros(2),
            boundary=False, residual=0.0, method="analytic",
        )
        oscillator = oscillator_spec(Rank1Quadratic(np.array([1.0, 0.6])),
                                     np.array([1.0, -0.5]), 3.0)
        for kind in ("md", "amd", "nesterov"):
            if kind == "nesterov":
                spec, cert = oscillator, euclid_cert
                z = spec.rates.a.value(1.0) * (spec.z0 - spec.x0)
            else:
                spec, cert = make_spec(kind, rates=FIG_RATES if kind == "amd" else None)
                z = np.array(spec.z0, float)
            traj = simulate(spec, cert, t_end=1.0 + 7 * 0.01, h=0.01)
            advance = bind_step(spec)
            x = np.array(spec.x0, float)
            for k in range(7):
                t = 1.0 + k * 0.01
                x, z, *_ = advance(x, z, t, 0.01)
                np.testing.assert_array_equal(traj.x[k + 1], x)
                np.testing.assert_array_equal(traj.z[k + 1], z)

    def test_stochastic_kinds(self):
        for kind in ("smd", "samd"):
            rates = FIG_RATES if kind == "samd" else md_bundle(alpha_s=0.5)
            spec, cert = make_spec(kind, sigma0=0.1, rates=rates)
            traj = simulate(
                spec, cert, t_end=1.0 + 7 * 0.01, h=0.01,
                stream=NoiseStream(42, 0),
            )
            replay = NoiseStream(42, 0)
            x = np.array(spec.x0, float)
            z = np.array(spec.z0, float)
            mart = 0.0
            sq = math.sqrt(0.01)
            for k in range(7):
                t = 1.0 + k * 0.01
                dW = replay.standard_normals(3) * sq
                x, z, _, dmart = ref_step(spec, x, z, t, 0.01, dW, cert.x_star)
                mart += dmart
                np.testing.assert_array_equal(traj.x[k + 1], x)
                np.testing.assert_array_equal(traj.z[k + 1], z)
                assert traj.martingale[k + 1] == mart
                assert traj.b[k + 1] == ref_b(spec, 1.0 + (k + 1) * 0.01)


    @pytest.mark.parametrize("noise_kind", ["scalar", "diagonal", "state-scaled"])
    @pytest.mark.parametrize("geometry", ["simplex", "euclidean"])
    @pytest.mark.parametrize("kind", ["smd", "samd"])
    def test_replay_across_noise_blocks(self, kind, geometry, noise_kind):
        # 700 steps of h in blocks of 256, 256 and 188 rows, then a clipped
        # half step drawn alone
        spec, cert = noisy_spec(kind, geometry, noise_kind)
        h, stride = 0.01, 7
        t_end = 1.0 + 700.5 * h
        stream = NoiseStream(9, 2)
        traj = simulate(spec, cert, t_end=t_end, h=h, record_stride=stride, stream=stream)
        assert stream.position == 3 * 701

        replay = NoiseStream(9, 2)
        x = np.array(spec.x0, float)
        z = np.array(spec.z0, float)
        mart = 0.0
        for k in range(701):
            t = 1.0 + k * h
            hk = h if k < 700 else t_end - t
            dW = replay.standard_normals(3) * math.sqrt(hk)
            x, z, _, dmart = ref_step(spec, x, z, t, hk, dW, cert.x_star)
            mart += dmart
            if (k + 1) % stride == 0 or k == 700:
                row = (k + 1) // stride + (k == 700)
                np.testing.assert_array_equal(traj.x[row], x)
                np.testing.assert_array_equal(traj.z[row], z)
                assert traj.martingale[row] == mart
                assert traj.b[row] == ref_b(spec, 1.0 + (k + 1) * h if k < 700 else t_end)
        assert row == traj.n_recorded - 1


class TestDegeneracyAndDeterminism:
    def test_zero_noise_samd_equals_amd_bitwise(self):
        amd, cert = make_spec("amd", rates=FIG_RATES)
        samd = SystemSpec(
            kind="samd", mmap=amd.mmap, objective=amd.objective, rates=amd.rates,
            noise=make_noise("scalar", 0.0, 0.0, amd.mmap), x0=amd.x0, z0=amd.z0,
        )
        ta = simulate(amd, cert, t_end=3.0, h=0.01, record_stride=10)
        ts = simulate(samd, cert, t_end=3.0, h=0.01, record_stride=10,
                      stream=NoiseStream(1, 0))
        np.testing.assert_array_equal(ta.x, ts.x)
        np.testing.assert_array_equal(ta.z, ts.z)
        np.testing.assert_array_equal(ta.gap, ts.gap)
        np.testing.assert_array_equal(ta.energy, ts.energy)

    def test_zero_noise_smd_equals_md_bitwise(self):
        md, cert = make_spec("md", rates=md_bundle(alpha_s=0.5))
        smd = SystemSpec(
            kind="smd", mmap=md.mmap, objective=md.objective, rates=md.rates,
            noise=make_noise("scalar", 0.0, 0.0, md.mmap), x0=md.x0, z0=md.z0,
        )
        tm = simulate(md, cert, t_end=3.0, h=0.01)
        tsm = simulate(smd, cert, t_end=3.0, h=0.01, stream=NoiseStream(1, 0))
        np.testing.assert_array_equal(tm.x, tsm.x)
        np.testing.assert_array_equal(tm.z, tsm.z)

    @pytest.mark.parametrize("noise_kind", ["scalar", "diagonal", "state-scaled"])
    @pytest.mark.parametrize("geometry", ["simplex", "euclidean"])
    @pytest.mark.parametrize("kind", ["smd", "samd"])
    def test_zero_increments_equal_the_deterministic_twin(self, kind, geometry, noise_kind):
        # eta = 1, so each noisy dual increment -(h g + d * 0.0) is the
        # twin's -h g; the 300 steps span two noise blocks
        spec, cert = noisy_spec(kind, geometry, noise_kind)
        twin = dataclasses.replace(spec, kind=DETERMINISTIC_TWIN[kind], noise=ZeroNoise(3))
        stream = ZeroStream()
        noisy = simulate(spec, cert, t_end=4.0, h=0.01, record_stride=7, stream=stream)
        plain = simulate(twin, cert, t_end=4.0, h=0.01, record_stride=7)
        assert spec.is_stochastic and stream.position == 3 * 300
        np.testing.assert_array_equal(noisy.x, plain.x)
        np.testing.assert_array_equal(noisy.z, plain.z)

    def test_identical_seed_bitwise_repeat(self):
        spec, cert = make_spec("samd", sigma0=0.1, rates=FIG_RATES)
        a = simulate(spec, cert, t_end=2.0, h=0.01, stream=NoiseStream(7, 3))
        b = simulate(spec, cert, t_end=2.0, h=0.01, stream=NoiseStream(7, 3))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.z, b.z)
        np.testing.assert_array_equal(a.martingale, b.martingale)

    def test_different_seed_differs(self):
        spec, cert = make_spec("samd", sigma0=0.1, rates=FIG_RATES)
        a = simulate(spec, cert, t_end=2.0, h=0.01, stream=NoiseStream(7, 0))
        b = simulate(spec, cert, t_end=2.0, h=0.01, stream=NoiseStream(8, 0))
        assert not np.array_equal(a.x, b.x)


class TestTrajectoryContents:
    def test_grid_and_accumulators(self):
        spec, cert = make_spec("samd", sigma0=0.1, rates=FIG_RATES)
        traj = simulate(spec, cert, t_end=2.0, h=0.01, record_stride=10,
                        stream=NoiseStream(5, 0))
        assert traj.times[0] == 1.0
        assert traj.times[-1] == pytest.approx(2.0, abs=1e-12)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.martingale[0] == 0.0
        assert traj.b[0] == 0.0
        # b integrates eta^2 sigma*^2 = 0.01 in closed form over [1, 2]
        assert traj.b[-1] == pytest.approx(0.01 * 1.0, rel=1e-14)

    @pytest.mark.parametrize("noise_kind", ["scalar", "diagonal", "state-scaled"])
    @pytest.mark.parametrize("kind", STOCHASTIC_KINDS)
    def test_b_is_the_closed_form_at_every_recorded_time(self, kind, noise_kind):
        # eta = 1.5 t^0.5 for samd and sigma* ~ t^0.25, so a per-step sum
        # of the integrand would miss the closed form by O(h)
        rates = coupled_bundle(1.5, 0.5) if kind == "samd" else md_bundle(alpha_s=0.5)
        spec, cert = presets.default_spec(kind, rates=rates, sigma0=0.2, alpha_sigma=0.25,
                                          noise_kind=noise_kind)
        traj = simulate(spec, cert, t_end=1.0 + 300.5 * 0.01, h=0.01, record_stride=7,
                        stream=NoiseStream(3, 0))
        assert traj.b[0] == 0.0 and traj.b[-1] > 0.0
        for t, b in zip(traj.times.tolist(), traj.b.tolist()):
            assert b == ref_b(spec, t)

    def test_simplex_feasibility_along_path(self):
        spec, cert = make_spec("samd", sigma0=0.3, rates=FIG_RATES)
        traj = simulate(spec, cert, t_end=5.0, h=0.01, record_stride=7,
                        stream=NoiseStream(11, 0))
        sums = traj.x.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)
        assert traj.x.min() >= -1e-12

    def test_energy_absent_for_boundary_certificate(self, simplex3):
        obj = presets.face_sum_exp()
        cert = presets.certificate_for(obj, simplex3)
        spec, _ = make_spec("smd", sigma0=0.1, rates=md_bundle(0.5), objective=obj)
        traj = simulate(spec, cert, t_end=2.0, h=0.01, stream=NoiseStream(3, 0))
        assert traj.energy is None
        assert traj.martingale is None
        assert not traj.has_energy
        assert np.all(np.isfinite(traj.gap))

    def test_csv_round_trip(self, tmp_path):
        spec, cert = make_spec("samd", sigma0=0.1, rates=FIG_RATES)
        traj = simulate(spec, cert, t_end=1.5, h=0.01, record_stride=5,
                        stream=NoiseStream(2, 0))
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x_1,x_2,x_3,z_1,z_2,z_3,gap,energy,b,martingale"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (traj.n_recorded, 11)
        np.testing.assert_array_equal(data[:, 0], traj.times)
        np.testing.assert_array_equal(data[:, 1:4], traj.x)
        np.testing.assert_array_equal(data[:, 10], traj.martingale)

    def test_csv_empty_columns_for_boundary(self, tmp_path, simplex3):
        obj = presets.face_sum_exp()
        cert = presets.certificate_for(obj, simplex3)
        spec, _ = make_spec("smd", sigma0=0.1, rates=md_bundle(0.5), objective=obj)
        traj = simulate(spec, cert, t_end=1.2, h=0.01, stream=NoiseStream(3, 0))
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        first_row = path.read_text().splitlines()[1].split(",")
        assert first_row[8] == ""  # energy cell
        assert first_row[10] == ""  # martingale cell


class TestGuards:
    def test_step_guard(self):
        spec, cert = make_spec("amd", rates=coupled_bundle(2.0, 0.0))
        # a(1) = 2, h = 0.3 -> a h = 0.6 > 1/2
        with pytest.raises(StepTooLarge):
            simulate(spec, cert, t_end=2.0, h=0.3)

    def test_step_guard_covers_a_growing_rate(self):
        # a = eta / r = t^1.875: a(0.5) * h = 0.27 passes at t0, but the
        # step from t = 1.5 on leaves the simplex and the run overflows
        rates = RateBundle(eta=PowerLaw(1.0, 2.0), r=PowerLaw(1.0, 0.125), s=CONSTANT_ONE,
                           t0=0.5)
        spec, cert = make_spec("amd", rates=rates)
        with pytest.raises(StepTooLarge, match=r"a\(t\) \* h = 24.4 at t = 5.5"):
            simulate(spec, cert, t_end=6.5, h=1.0)

    def test_inadmissible_bundle_rejected(self):
        bad = RateBundle(eta=CONSTANT_ONE, r=PowerLaw(1.0, 2.0), s=CONSTANT_ONE)
        spec, cert = make_spec("amd", rates=bad)
        with pytest.raises(ValueError, match="admissible"):
            simulate(spec, cert, t_end=10.0, h=0.01)

    def test_deterministic_kind_rejects_noise(self, simplex3, default_objective):
        with pytest.raises(ValueError, match="zero noise"):
            SystemSpec(
                kind="amd", mmap=simplex3, objective=default_objective,
                rates=FIG_RATES, noise=make_noise("scalar", 0.1, 0.0, simplex3),
                x0=np.ones(3) / 3, z0=np.zeros(3),
            )

    def test_stochastic_needs_stream(self):
        spec, cert = make_spec("samd", sigma0=0.1, rates=FIG_RATES)
        with pytest.raises(ValueError, match="NoiseStream"):
            simulate(spec, cert, t_end=2.0, h=0.01)

    def test_nonfinite_detected(self):
        m = EuclideanMap(1)
        obj = Rank1Quadratic(np.array([1.0]))
        cert = MinimizerCertificate(
            x_star=np.zeros(1), f_star=0.0, z_star=np.zeros(1),
            boundary=False, residual=0.0, method="analytic",
        )
        spec = SystemSpec(
            kind="md", mmap=m, objective=obj, rates=md_bundle(),
            noise=ZeroNoise(1), x0=np.array([1e300]), z0=np.array([1e300]),
        )
        # z grows by 1.5x per step and x = z: both overflow in step 45
        with pytest.raises(NonFinite, match=r"^x became non-finite at step 45; the last "
                                            r"finite state is at t = 113\.5$"), \
                np.errstate(over="ignore", invalid="ignore"):
            simulate(spec, cert, t_end=151.0, h=2.5)
        # the oscillator's velocity (z) overflows in step 0, while x moves to
        # x0 + h v0 = 1e308, still finite
        spec = SystemSpec(
            kind="nesterov", mmap=m, objective=obj, rates=nesterov_bundle(2.0),
            noise=ZeroNoise(1), x0=np.zeros(1), z0=np.array([1e307]), beta=2.0,
        )
        with pytest.raises(NonFinite, match=r"^z became non-finite at step 0; the last "
                                            r"finite state is at t = 1$"), \
                np.errstate(over="ignore", invalid="ignore"):
            simulate(spec, cert, t_end=11.0, h=5.0)

    def test_nonfinite_inside_a_later_noise_block(self):
        m = EuclideanMap(1)
        obj = Rank1Quadratic(np.array([1.0]))
        cert = MinimizerCertificate(
            x_star=np.zeros(1), f_star=0.0, z_star=np.zeros(1),
            boundary=False, residual=0.0, method="analytic",
        )
        spec = SystemSpec(
            kind="smd", mmap=m, objective=obj, rates=md_bundle(),
            noise=make_noise("scalar", 1e-3, 0.0, m), x0=np.array([1e10]),
            z0=np.array([1e10]),
        )
        # z grows by 4x per step (h = 5), so z and x = z overflow in step
        # 495, inside the second block of 256 steps
        with pytest.raises(NonFinite, match=r"^x became non-finite at step 495; the last "
                                            r"finite state is at t = 2476$"), \
                np.errstate(over="ignore", invalid="ignore"):
            simulate(spec, cert, t_end=1.0 + 600 * 5.0, h=5.0, stream=NoiseStream(4, 0))

    def test_step_count_overflow_is_a_value_error(self):
        spec, cert = make_spec("md")
        with pytest.raises(ValueError, match=r"^h = 1e-320 is too small"):
            simulate(spec, cert, t_end=5.0, h=1e-320)

    def test_oversized_run_is_a_value_error(self):
        # each raises before the recorded grid is built, so no run starts
        spec, cert = make_spec("md")
        with pytest.raises(ValueError, match=r"^h = 1e-12 is too small: 4e\+12 steps exceed "
                                            r"the cap of 1e\+09$"):
            simulate(spec, cert, t_end=5.0, h=1e-12)
        with pytest.raises(ValueError, match=r"^h = 1e-08 is too small: 400000001 recorded "
                                            r"rows of 3 coordinates take 32.8 GiB, more than "
                                            r"the cap of 1 GiB$"):
            simulate(spec, cert, t_end=5.0, h=1e-8)

    def test_one_exact_step_below_its_rounded_span(self, simplex3, default_objective,
                                                   default_certificate):
        # 1.005 - 1.0 rounds below 0.005, yet the span is one step of h
        spec = SystemSpec(
            kind="md", mmap=simplex3, objective=default_objective, rates=md_bundle(),
            noise=ZeroNoise(3), x0=np.ones(3) / 3, z0=np.zeros(3),
        )
        assert 1.005 - 1.0 < 0.005
        traj = simulate(spec, default_certificate, t_end=1.005, h=0.005)
        np.testing.assert_array_equal(traj.times, [1.0, 1.0 + 0.005])
        with pytest.raises(ValueError, match="need 0 < h <= t_end - t0"):
            simulate(spec, default_certificate, t_end=1.005, h=0.00501)


class TestAveragedIterate:
    def test_constant_trajectory(self):
        spec, cert = make_spec("amd", rates=FIG_RATES)
        traj = simulate(spec, cert, t_end=2.0, h=0.01)
        traj.x[:] = np.array([0.2, 0.5, 0.3])
        avg = averaged_iterate(traj)
        np.testing.assert_allclose(avg, traj.x, atol=1e-14)

    def test_linear_reference(self):
        spec, cert = make_spec("amd", rates=FIG_RATES)
        traj = simulate(spec, cert, t_end=2.0, h=0.01)
        # overwrite with a synthetic linear path x(t) = (t - t0) * v
        v = np.array([1.0, -2.0, 1.0])
        traj.x = (traj.times - traj.times[0])[:, None] * v
        avg = averaged_iterate(traj)
        expected = 0.5 * (traj.times - traj.times[0])[:, None] * v
        np.testing.assert_allclose(avg[1:], expected[1:], rtol=1e-10)

    def test_jensen_inequality_along_run(self):
        spec, cert = make_spec("smd", sigma0=0.1, rates=md_bundle(0.5))
        traj = simulate(spec, cert, t_end=5.0, h=0.005, stream=NoiseStream(13, 0))
        avg = averaged_iterate(traj)
        obj = spec.objective
        f_avg = np.array([obj.value(p) for p in avg])
        # running trapezoid average of the function values
        fs = np.array([obj.value(p) for p in traj.x])
        dt = np.diff(traj.times)
        run = np.concatenate([[fs[0]], np.cumsum(0.5 * dt * (fs[1:] + fs[:-1]))])
        run[1:] /= traj.times[1:] - traj.times[0]
        assert np.all(f_avg <= run + 1e-12)


class TestPrimalAveragingIdentity:
    def run_residual(self, h):
        spec, cert = make_spec("amd", rates=FIG_RATES)
        traj = simulate(spec, cert, t_end=10.0, h=h)
        return primal_average_residual(traj)

    def test_residual_is_first_order(self):
        r1 = self.run_residual(1e-3)
        r2 = self.run_residual(5e-4)
        assert r1 < 5e-4
        assert 1.6 <= r1 / r2 <= 2.4

    def test_constant_mirror_closed_form(self, simplex3):
        obj = SumExp(np.zeros((1, 3)))
        cert = MinimizerCertificate(
            x_star=np.ones(3) / 3, f_star=1.0, z_star=np.zeros(3),
            boundary=False, residual=0.0, method="constant objective",
        )
        spec = SystemSpec(
            kind="amd", mmap=simplex3, objective=obj,
            rates=RateBundle(eta=CONSTANT_ONE, r=CONSTANT_ONE, s=CONSTANT_ONE),
            noise=ZeroNoise(3), x0=np.ones(3) / 3, z0=np.array([0.5, -0.5, 0.0]),
        )
        traj = simulate(spec, cert, t_end=2.0, h=1e-3)
        # dual never moves so the mirror point is constant; the integral
        # form interpolates x0 toward it and the euler recursion tracks it
        assert primal_average_residual(traj) < 2e-3

    def test_stride_guard(self):
        spec, cert = make_spec("amd", rates=FIG_RATES)
        traj = simulate(spec, cert, t_end=2.0, h=0.01, record_stride=10)
        with pytest.raises(StrideTooCoarse):
            primal_average_residual(traj)


class TestNesterovEquivalence:
    def setup_runs(self, h, beta=2.0, t_end=10.0):
        m = EuclideanMap(2)
        obj = Rank1Quadratic(np.array([1.0, 0.6]))
        cert = MinimizerCertificate(
            x_star=np.zeros(2), f_star=0.0, z_star=np.zeros(2),
            boundary=False, residual=0.0, method="analytic",
        )
        x0 = np.array([1.0, -0.5])
        amd_spec = SystemSpec(
            kind="amd", mmap=m, objective=obj, rates=nesterov_bundle(beta),
            noise=ZeroNoise(2), x0=x0, z0=x0.copy(),
        )
        ode_spec = SystemSpec(
            kind="nesterov", mmap=m, objective=obj, rates=nesterov_bundle(beta),
            noise=ZeroNoise(2), x0=x0, z0=x0.copy(), beta=beta,
        )
        ta = simulate(amd_spec, cert, t_end=t_end, h=h, record_stride=10)
        tn = simulate(ode_spec, cert, t_end=t_end, h=h, record_stride=10)
        return ta, tn

    def test_trajectories_converge_at_first_order(self):
        d = {}
        for h in (1e-3, 5e-4):
            ta, tn = self.setup_runs(h)
            d[h] = float(np.abs(ta.x - tn.x).max())
        assert d[1e-3] < 1e-3
        assert 1.6 <= d[1e-3] / d[5e-4] <= 2.4

    def test_oscillator_needs_euclidean(self, simplex3, default_objective):
        with pytest.raises(ValueError, match="euclidean"):
            SystemSpec(
                kind="nesterov", mmap=simplex3, objective=default_objective,
                rates=nesterov_bundle(2.0), noise=ZeroNoise(3),
                x0=np.ones(3) / 3, z0=np.zeros(3), beta=2.0,
            )


class TestFastAveragingLimit:
    def test_large_averaging_rate_recovers_unaveraged_flow(self):
        # with a = eta / r huge, the primal trajectory tracks the mirror
        # point, which is the non-averaged system's primal variable
        md_spec, cert = make_spec("md")
        ref = simulate(md_spec, cert, t_end=3.0, h=2e-4, record_stride=50)
        distances = {}
        for a_const in (100.0, 1000.0):
            rates = RateBundle(
                eta=CONSTANT_ONE, r=PowerLaw(1.0 / a_const, 0.0), s=CONSTANT_ONE
            )
            spec, _ = make_spec("amd", rates=rates)
            traj = simulate(spec, cert, t_end=3.0, h=2e-4, record_stride=50)
            # skip the initial relaxation layer of width ~ 1/a
            distances[a_const] = float(np.abs(traj.x[5:] - ref.x[5:]).max())
        assert distances[1000.0] < distances[100.0]
        assert distances[1000.0] < 0.02


class TestSelfConvergence:
    def test_deterministic_first_order(self):
        spec, cert = make_spec("amd", rates=FIG_RATES)
        finals = {}
        for h in (4e-3, 2e-3, 1e-3):
            traj = simulate(spec, cert, t_end=10.0, h=h, record_stride=1000)
            finals[h] = traj.x[-1]
        d1 = np.abs(finals[4e-3] - finals[1e-3]).max()
        d2 = np.abs(finals[2e-3] - finals[1e-3]).max()
        # (4h vs h) is ~3x the (2h vs h) deviation for a first-order scheme
        assert 2.4 <= d1 / d2 <= 3.6
