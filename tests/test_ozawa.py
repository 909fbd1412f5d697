import dataclasses
import json
import math
import struct
import tracemalloc
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from quvar import (
    TRANSFER_KTAU,
    ConfigError,
    DimensionlessOscillator,
    ExtremalSpec,
    FreeMass,
    GaussianState,
    Grid,
    Oscillator,
    OzawaConfig,
    PhysConfig,
    ProtocolTrace,
    StepRecord,
    TwoModeGaussian,
    check_regime,
    couple,
    evolve,
    gaussian_from_extremal,
    interaction_generator,
    interaction_map,
    joint_moments,
    meter_marginal,
    moments,
    read_meter,
    run_protocol,
    sample_joint,
    slice_at_y,
    symplectic_defect,
    system_marginal,
)
from quvar import _trace, gaussian, ozawa
from quvar.cli import main

SQRT3 = math.sqrt(3.0)
REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "ozawa_reference.json"


def contractive(vxx, vpp, mean_x=0.0, mean_p=0.0):
    return gaussian_from_extremal(
        ExtremalSpec.from_variances(vxx, vpp, 1.0, 1), mean_x, mean_p, 1.0
    )


def base_config(**overrides):
    tau = 0.01
    defaults = dict(
        k=TRANSFER_KTAU / tau,
        tau=tau,
        N=3,
        Omega=1.0,
        delta_tau=1e-4,
        system=FreeMass(m=1.0),
        meter_variances=(1.0, 1.0),
        initial_system=contractive(1.0, 1.0, mean_x=0.5),
        seed=11,
        mode="sample",
    )
    defaults.update(overrides)
    return OzawaConfig(**defaults)


class TestGenerator:
    def test_zero_coupling(self):
        np.testing.assert_array_equal(interaction_generator(0.0), np.zeros((4, 4)))

    def test_block_eigenvalues(self):
        k = 0.7
        gen = interaction_generator(k)
        for idx in ([0, 2], [1, 3]):
            eigs = np.linalg.eigvals(gen[np.ix_(idx, idx)])
            np.testing.assert_allclose(
                sorted(eigs.imag), [-SQRT3 * k, SQRT3 * k], rtol=1e-12
            )
            np.testing.assert_allclose(eigs.real, 0.0, atol=1e-12)

    def test_hamiltons_equations_finite_difference(self):
        # Independent derivation: the generator must reproduce Hamilton's
        # equations for H = k(2x p_y - 2 p_x y + x p_x - y p_y). Central
        # differences are exact for a quadratic H up to rounding.
        k = 1.3

        def hamiltonian(z):
            x, px, y, py = z
            return k * (2.0 * x * py - 2.0 * px * y + x * px - y * py)

        def hamilton_flow(z, h=1e-5):
            grad = np.zeros(4)
            for j in range(4):
                zp, zm = z.copy(), z.copy()
                zp[j] += h
                zm[j] -= h
                grad[j] = (hamiltonian(zp) - hamiltonian(zm)) / (2.0 * h)
            # dz/dt = (dH/dpx, -dH/dx, dH/dpy, -dH/dy)
            return np.array([grad[1], -grad[0], grad[3], -grad[2]])

        rng = np.random.default_rng(3)
        gen = interaction_generator(k)
        for _ in range(5):
            z = rng.normal(size=4)
            np.testing.assert_allclose(gen @ z, hamilton_flow(z), atol=1e-8)


class TestInteractionMap:
    def test_transfer_dose_position_block(self):
        M = interaction_map(1.0, TRANSFER_KTAU)
        np.testing.assert_allclose(
            M[np.ix_([0, 2], [0, 2])], [[1.0, -1.0], [1.0, 0.0]], atol=1e-12
        )

    def test_momentum_block_matches_matrix_exponential(self):
        M = interaction_map(1.0, TRANSFER_KTAU)
        oracle = expm(interaction_generator(1.0) * TRANSFER_KTAU)
        np.testing.assert_allclose(M, oracle, atol=1e-12)
        np.testing.assert_allclose(
            M[np.ix_([1, 3], [1, 3])], [[0.0, -1.0], [1.0, 1.0]], atol=1e-12
        )

    def test_matches_expm_at_random_doses(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = rng.uniform(0.1, 5.0)
            tau = rng.uniform(0.0, 3.0)
            np.testing.assert_allclose(
                interaction_map(k, tau), expm(interaction_generator(k) * tau), atol=1e-11
            )

    def test_symplectic_at_random_doses(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            M = interaction_map(rng.uniform(0.0, 5.0), rng.uniform(0.0, 3.0))
            assert symplectic_defect(M) <= 1e-12

    @pytest.mark.parametrize("k, tau", [(1e300, 1e10), (math.inf, 1.0), (1.0, math.nan)])
    def test_a_dose_that_is_not_finite_is_named(self, k, tau):
        with pytest.raises(ValueError) as info:
            interaction_map(k, tau)
        assert str(info.value) == (
            f"coupling dose is not finite: sqrt(3)*k*tau = {SQRT3 * k * tau}, k = {k}, tau = {tau}"
        )

    def test_zero_duration_identity(self):
        np.testing.assert_array_equal(interaction_map(1.7, 0.0), np.eye(4))

    def test_blocks_are_inverse_transposes(self):
        M = interaction_map(0.9, 1.1)
        pos = M[np.ix_([0, 2], [0, 2])]
        mom = M[np.ix_([1, 3], [1, 3])]
        np.testing.assert_allclose(mom, np.linalg.inv(pos).T, atol=1e-12)

    def test_position_block_sine_coefficient_form(self):
        # x(t+tau) = (2/sqrt3)[sin(k tau sqrt3 + pi/3) x - sin(k tau sqrt3) y]
        # y(t+tau) = (2/sqrt3)[sin(k tau sqrt3) x + sin(pi/3 - k tau sqrt3) y]
        rng = np.random.default_rng(12)
        for _ in range(10):
            k, tau = rng.uniform(0.1, 3.0), rng.uniform(0.0, 2.0)
            s = SQRT3 * k * tau
            want = (
                2.0
                / SQRT3
                * np.array(
                    [
                        [math.sin(s + math.pi / 3.0), -math.sin(s)],
                        [math.sin(s), math.sin(math.pi / 3.0 - s)],
                    ]
                )
            )
            pos = interaction_map(k, tau)[np.ix_([0, 2], [0, 2])]
            np.testing.assert_allclose(pos, want, atol=1e-12)


class TestCouple:
    def test_variance_transfer_at_dose(self):
        system = contractive(0.7, 1.1, mean_x=2.0)
        meter = contractive(0.9, 0.8)
        joint = couple(system, meter, 2.0, TRANSFER_KTAU / 2.0)
        marginal = meter_marginal(joint)
        assert marginal.vxx == pytest.approx(system.vxx, abs=1e-12)
        assert marginal.mean_x == pytest.approx(2.0, abs=1e-12)

    def test_zero_coupling_keeps_product_form(self):
        system = contractive(0.7, 1.1, mean_x=2.0, mean_p=-1.0)
        meter = contractive(0.9, 0.8)
        joint = couple(system, meter, 0.0, 1.0)
        assert system_marginal(joint) == system
        assert meter_marginal(joint) == meter
        np.testing.assert_allclose(joint.cov[:2, 2:], 0.0, atol=1e-15)

    def test_invalid_state_rejected(self):
        bad = GaussianState(vxx=1.0, vpp=1.0, vxp=0.9)
        with pytest.raises(ValueError, match="invalid system"):
            couple(bad, contractive(1.0, 1.0), 1.0, TRANSFER_KTAU)

    def test_transfer_dose_joint_wavefunction_is_reflected_product(self):
        # At k*tau = pi/(3*sqrt3) the joint surface must factor as
        # psi_system(y) * chi_meter(y - x).
        sys_spec = ExtremalSpec.from_variances(1.0, 1.0, 1.0, 1)
        met_spec = ExtremalSpec.from_variances(0.8, 0.9, 1.0, 1)
        gx = Grid.centered(0.0, 12.0, 128)
        gy = Grid.centered(0.0, 12.0, 128)
        amps = sample_joint(sys_spec.width, (0.3, 0.2), met_spec.width, TRANSFER_KTAU, gx, gy)
        x = gx.points()[:, None]
        y = gy.points()[None, :]

        def gauss(xi, width, mx, mp):
            return (width.real / math.pi) ** 0.25 * np.exp(
                1j * mp * xi - width * (xi - mx) ** 2 / 2.0
            )

        want = gauss(y, sys_spec.width, 0.3, 0.2) * gauss(y - x, met_spec.width, 0.0, 0.0)
        np.testing.assert_allclose(amps, want, atol=1e-12)

    def test_joint_covariance_against_2d_oracle(self):
        sys_spec = ExtremalSpec.from_variances(1.0, 1.0, 1.0, 1)
        met_spec = ExtremalSpec.from_variances(0.8, 0.9, 1.0, 1)
        system = gaussian_from_extremal(sys_spec, 0.3, 0.2)
        meter = gaussian_from_extremal(met_spec)
        joint = couple(system, meter, 1.0, TRANSFER_KTAU)
        gx = Grid.centered(0.3, 14.0, 512)
        gy = Grid.centered(0.3, 14.0, 512)
        amps = sample_joint(sys_spec.width, (0.3, 0.2), met_spec.width, TRANSFER_KTAU, gx, gy)
        got, norm = joint_moments(amps, gx, gy)
        assert norm == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(got.mean, joint.mean, atol=1e-7)
        np.testing.assert_allclose(got.cov, joint.cov, atol=1e-7)


class TestMeterMarginal:
    def test_reads_back_system_position_statistics(self):
        system = contractive(0.7, 0.5, mean_x=2.0)
        joint = couple(system, contractive(1.0, 1.0), 1.0, TRANSFER_KTAU)
        marginal = meter_marginal(joint)
        assert marginal.mean_x == pytest.approx(2.0, abs=1e-13)
        assert marginal.vxx == pytest.approx(0.7, abs=1e-13)

    def test_zero_coupling_returns_meter(self):
        meter = contractive(0.9, 0.8)
        joint = couple(contractive(1.0, 1.0), meter, 0.0, 2.0)
        assert meter_marginal(joint) == meter

    def test_general_dose_against_2d_oracle(self):
        sys_spec = ExtremalSpec.from_variances(1.2, 0.4, 1.0, 1)
        met_spec = ExtremalSpec.from_variances(0.6, 1.5, 1.0, 1)
        ktau = 0.37
        joint = couple(
            gaussian_from_extremal(sys_spec, -0.4, 0.6),
            gaussian_from_extremal(met_spec),
            1.0,
            ktau,
        )
        gx = Grid.centered(-0.4, 15.0, 512)
        gy = Grid.centered(-0.4, 15.0, 512)
        amps = sample_joint(sys_spec.width, (-0.4, 0.6), met_spec.width, ktau, gx, gy)
        got, _ = joint_moments(amps, gx, gy)
        marginal = meter_marginal(joint)
        assert got.mean[2] == pytest.approx(marginal.mean_x, abs=1e-7)
        assert got.cov[2, 2] == pytest.approx(marginal.vxx, abs=1e-7)
        assert got.cov[3, 3] == pytest.approx(marginal.vpp, abs=1e-7)
        assert got.cov[2, 3] == pytest.approx(marginal.vxp, abs=1e-7)


class TestReadMeter:
    def test_posterior_covariance_is_meter_preparation(self):
        # The y' - x' reflection flips both axes of the collapsed state, so
        # the covariance carries over unchanged, vxp sign included.
        meter = contractive(0.8, 0.9)
        joint = couple(contractive(1.0, 1.0, mean_x=0.3, mean_p=0.2), meter, 1.0, TRANSFER_KTAU)
        post = read_meter(joint, 1.234)
        assert post.vxx == pytest.approx(meter.vxx, abs=1e-10)
        assert post.vpp == pytest.approx(meter.vpp, abs=1e-10)
        assert post.vxp == pytest.approx(meter.vxp, abs=1e-10)

    def test_posterior_mean_is_reading(self):
        joint = couple(
            contractive(1.0, 1.0, mean_x=0.3), contractive(1.0, 1.0), 1.0, TRANSFER_KTAU
        )
        for reading in (-2.0, 0.0, 0.71):
            assert read_meter(joint, reading).mean_x == pytest.approx(reading, abs=1e-12)

    def test_covariance_independent_of_reading(self):
        joint = couple(
            contractive(1.0, 2.0, mean_x=-0.5), contractive(0.7, 1.3), 1.0, TRANSFER_KTAU
        )
        a = read_meter(joint, -3.0)
        b = read_meter(joint, 4.0)
        assert (a.vxx, a.vpp, a.vxp) == (b.vxx, b.vpp, b.vxp)

    def test_nonfinite_reading_rejected(self):
        joint = couple(contractive(1.0, 1.0), contractive(1.0, 1.0), 1.0, TRANSFER_KTAU)
        with pytest.raises(ValueError, match="finite"):
            read_meter(joint, math.nan)

    def test_a_meter_without_position_variance_cannot_condition(self):
        with pytest.raises(ValueError) as info:
            read_meter(TwoModeGaussian(np.zeros(4), np.zeros((4, 4))), 0.0)
        assert str(info.value) == "cannot condition: meter position variance 0.0 is not positive"

    def test_posterior_against_conditional_slice(self):
        sys_spec = ExtremalSpec.from_variances(1.0, 1.0, 1.0, 1)
        met_spec = ExtremalSpec.from_variances(0.8, 0.9, 1.0, 1)
        joint = couple(
            gaussian_from_extremal(sys_spec, 0.3, 0.2),
            gaussian_from_extremal(met_spec),
            1.0,
            TRANSFER_KTAU,
        )
        gx = Grid.centered(0.3, 14.0, 512)
        gy = Grid.centered(0.3, 14.0, 512)
        amps = sample_joint(sys_spec.width, (0.3, 0.2), met_spec.width, TRANSFER_KTAU, gx, gy)
        psi_c, y_value = slice_at_y(amps, gx, gy, 300)
        got = moments(psi_c)
        want = read_meter(joint, y_value)
        assert got.mean_x == pytest.approx(want.mean_x, abs=1e-6)
        assert got.mean_p == pytest.approx(want.mean_p, abs=1e-6)
        assert got.vxx == pytest.approx(want.vxx, abs=1e-6)
        assert got.vpp == pytest.approx(want.vpp, abs=1e-6)
        assert got.vxp == pytest.approx(want.vxp, abs=1e-6)


class TestConfig:
    def test_valid_config_builds(self):
        assert base_config().period() == pytest.approx(0.01 + SQRT3)

    @pytest.mark.parametrize("T", [None, 0.7])
    def test_the_run_reads_the_period_the_constructor_checked(self, monkeypatch, T):
        cfg = base_config(N=3, T=T)
        period = cfg.period()
        monkeypatch.setattr(OzawaConfig, "period", lambda self: pytest.fail("schedule rechecked"))
        assert [s.time for s in run_protocol(cfg).steps] == [0.0, period, 2 * period]
        assert "_period" not in cfg.to_dict()

    @pytest.mark.parametrize(
        "overrides,field",
        [
            (dict(k=0.0), "k"),
            (dict(tau=-1.0), "tau"),
            (dict(N=0), "N"),
            (dict(delta_tau=-1e-3), "delta_tau"),
            (dict(meter_variances=(0.1, 0.1)), "meter_variances"),
            (dict(T=0.001), "T"),
            (dict(mode="median"), "mode"),
            (dict(initial_system=GaussianState(vxx=1.0, vpp=1.0, vxp=0.9)), "initial_system"),
            # Non-finite fields: NaN passes every range comparison and inf
            # fails only deep inside the run, so finiteness is its own check.
            (dict(Omega=math.nan), "Omega"),
            (dict(delta_tau=math.nan), "delta_tau"),
            (dict(k=math.inf), "k"),
            (dict(tau=math.inf), "tau"),
            (dict(hbar=math.inf), "hbar"),
            (dict(T=math.inf), "T"),
            (dict(meter_variances=(math.inf, 1.0)), "meter_variances.vyy0"),
            (dict(system=FreeMass(m=math.inf)), "system.m"),
            (dict(initial_system=contractive(1.0, 1.0, mean_x=math.nan)), "initial_system.mean_x"),
            (dict(seed=-1), "seed"),
            # A JSON integer beyond the float range: float() would overflow.
            (dict(k=10**400), "k"),
            (dict(T=-(10**400)), "T"),
            # A finite T whose flow over T − τ is not: (T − τ)/m or ω(T − τ) overflows.
            (dict(system=FreeMass(m=1e-300), T=1e10), "T"),
            (dict(system=DimensionlessOscillator(omega=1e300), T=1e10), "T"),
            (dict(system=Oscillator(m=1e-300, omega=1e300), T=1e10), "T"),
            # A finite flow that makes the meter covariance M·V·Mᵀ overflow.
            (dict(system=FreeMass(m=1e-150), T=1e10), "T"),
            # A finite k and τ whose dose √3·k·τ overflows (interaction_map's check).
            (dict(k=1e300, tau=1e10), "tau"),
        ],
    )
    def test_violations_name_the_field(self, overrides, field):
        with pytest.raises(ConfigError) as err:
            base_config(**overrides)
        assert err.value.field == field

    def test_dimensionless_system_requires_unit_hbar(self):
        with pytest.raises(ConfigError) as err:
            base_config(system=DimensionlessOscillator(omega=0.5), hbar=2.0)
        assert err.value.field == "hbar"

    def test_auto_horizon_free_mass(self):
        assert base_config().contraction_horizon() == pytest.approx(SQRT3, rel=1e-12)

    def test_auto_horizon_dimensionless_oscillator(self):
        cfg = base_config(system=DimensionlessOscillator(omega=2.0))
        assert cfg.contraction_horizon() == pytest.approx(math.pi / 2.0 / 2.0, rel=1e-12)

    def test_auto_horizon_dimensional_oscillator_matches_dimensionless(self):
        # With m*omega = 1 and hbar = 1 the quadrature reduction is trivial.
        cfg = base_config(system=Oscillator(m=2.0, omega=0.5))
        assert cfg.contraction_horizon() == pytest.approx(math.pi / 2.0 / 0.5, rel=1e-12)

    def test_minimal_meter_has_no_auto_schedule(self):
        with pytest.raises(ConfigError, match="horizon"):
            base_config(meter_variances=(0.5, 0.5))

    def test_an_overflowing_auto_horizon_names_the_meter(self):
        # (m/vpp_y0)·√(4·vyy0·vpp_y0 − ħ²) = inf·√3: the run cannot schedule T.
        with pytest.raises(ConfigError) as err:
            base_config(system=FreeMass(m=1e308), meter_variances=(1e10, 1e-10))
        assert err.value.field == "meter_variances"
        assert str(err.value) == (
            "meter_variances: t_M = (m/vpp_y0)*sqrt(4*vyy0*vpp_y0 - hbar^2) "
            "is inf * 1.7320508075688772 = inf, not finite"
        )

    def test_a_tiny_omega_auto_horizon_names_T(self):
        # The horizon t_M′ = phase/ω overflows at ω = 5e-324, and with it the
        # wait T − τ, whose flow the schedule check rejects when the config is
        # built. It used to fail only inside the run.
        with pytest.raises(ConfigError) as err:
            base_config(system=DimensionlessOscillator(omega=5e-324))
        assert str(err.value) == "T: phase omega*t is not finite at t = inf"

    def test_an_auto_horizon_lost_in_tau_names_T(self):
        # t_M = √3·1e-20 is below half an ulp of τ = 0.01, so τ + t_M − τ = 0: the
        # run waited no time at all. The wait is held to T − τ > 0 as an explicit
        # T is, and the message quotes the auto T = τ + t_M.
        with pytest.raises(ConfigError) as err:
            base_config(system=FreeMass(m=1e-20))
        assert str(err.value) == "T: must exceed tau = 0.01, got 0.01"

    @pytest.mark.parametrize(
        "system, hbar, want",
        [
            # vyy0·mω/ħ = 1e310 overflows in quadratures; the horizon was 3π/4
            # where it is π, and the run failed with "invalid posterior state".
            (Oscillator(m=1e100, omega=1.0), 1e-210,
             "sqrt(4*vxx0*vpp0 - 1) overflows: vxx0 = inf, vpp0 = 1e+110"),
            # mω·ħ underflows to 0: the run raised ZeroDivisionError, uncaught.
            (Oscillator(m=1e-77, omega=1e-77), 1e-300, "float division by zero"),
        ],
    )
    def test_an_auto_horizon_lost_in_quadratures_names_the_meter(self, system, hbar, want):
        with pytest.raises(ConfigError) as err:
            base_config(system=system, hbar=hbar)
        assert str(err.value) == f"meter_variances: in quadrature units, {want}"

    def test_from_dict_roundtrip(self):
        raw = {
            "version": 1,
            "hbar": 1.0,
            "k": TRANSFER_KTAU / 0.01,
            "tau": 0.01,
            "T": "auto",
            "N": 3,
            "Omega": 1.0,
            "delta_tau": 1e-4,
            "system": {"variant": "free_mass", "m": 1.0},
            "meter_variances": {"vyy0": 1.0, "vpp_y0": 1.0},
            "initial_system": {
                "mean_x": 0.5,
                "mean_p": 0.0,
                "vxx": 1.0,
                "vxp": -SQRT3 / 2.0,
                "vpp": 1.0,
            },
            "seed": 11,
            "mode": "sample",
        }
        cfg = OzawaConfig.from_dict(raw)
        assert cfg.N == 3
        assert cfg.T is None
        assert isinstance(cfg.system, FreeMass)

    @pytest.mark.parametrize(
        "mutate,field",
        [
            (lambda d: d.pop("k"), "k"),
            (lambda d: d.pop("meter_variances"), "meter_variances"),
            (lambda d: d["meter_variances"].pop("vyy0"), "meter_variances.vyy0"),
            (lambda d: d["system"].update(variant="rotor"), "system.variant"),
            (lambda d: d["initial_system"].pop("vxp"), "initial_system.vxp"),
            (lambda d: d.update(T="sometimes"), "T"),
            (lambda d: d.update(version=2), "version"),
        ],
    )
    def test_from_dict_errors_name_the_field(self, mutate, field):
        raw = {
            "version": 1,
            "k": TRANSFER_KTAU / 0.01,
            "tau": 0.01,
            "N": 3,
            "Omega": 1.0,
            "delta_tau": 1e-4,
            "system": {"variant": "free_mass", "m": 1.0},
            "meter_variances": {"vyy0": 1.0, "vpp_y0": 1.0},
            "initial_system": {
                "mean_x": 0.5,
                "mean_p": 0.0,
                "vxx": 1.0,
                "vxp": -SQRT3 / 2.0,
                "vpp": 1.0,
            },
            "seed": 11,
        }
        mutate(raw)
        with pytest.raises(ConfigError) as err:
            OzawaConfig.from_dict(raw)
        assert err.value.field == field

    @pytest.mark.parametrize(
        "path, value",
        [
            (("k",), 10**400),
            (("T",), 2**1024),
            (("initial_system", "vxp"), -(10**400)),
            (("system", "m"), 10**400),
        ],
    )
    def test_from_dict_rejects_integers_beyond_the_float_range(self, path, value):
        # float() would raise OverflowError on these JSON integers.
        raw = json.loads(REFERENCE_CONFIG.read_text())
        *parents, leaf = path
        node = raw
        for key in parents:
            node = node[key]
        node[leaf] = value
        with pytest.raises(ConfigError) as err:
            OzawaConfig.from_dict(raw)
        assert err.value.field == ".".join(path)

    def test_from_dict_rejects_an_unusable_oscillator_scale(self):
        raw = json.loads(REFERENCE_CONFIG.read_text())
        raw["system"] = {"variant": "oscillator", "m": 1e-10, "omega": 1e-300}
        with pytest.raises(ConfigError, match=r"m\*omega") as err:
            OzawaConfig.from_dict(raw)
        assert err.value.field == "system"


class TestCheckRegime:
    def test_clean_config_is_silent(self):
        assert check_regime(base_config()) == []

    def test_slow_measurement_warns(self):
        cfg = base_config(Omega=50.0)  # Omega*tau = 0.5
        warnings = check_regime(cfg)
        assert any("free Hamiltonian non-negligible" in w for w in warnings)

    def test_timing_offset_warns(self):
        cfg = base_config(k=TRANSFER_KTAU / 0.01 * (1.0 + 1e-3))
        warnings = check_regime(cfg)
        assert any("timing" in w for w in warnings)

    def test_jitter_warns(self):
        cfg = base_config(delta_tau=0.01)  # delta_tau*k ~ 0.6
        warnings = check_regime(cfg)
        assert any("jitter" in w for w in warnings)

    def test_free_mass_effective_rate(self):
        # sigma_p/(m sigma_x) = 4 for vpp/vxx = 16; tau = 0.05 gives 0.2 > 0.1.
        cfg = base_config(
            tau=0.05,
            k=TRANSFER_KTAU / 0.05,
            initial_system=contractive(0.25, 4.0),
        )
        warnings = check_regime(cfg)
        assert any("free Hamiltonian" in w for w in warnings)


class TestRunProtocol:
    def test_chained_contraction(self):
        trace = run_protocol(base_config(N=3))
        assert len(trace.steps) == 3
        for step in trace.steps:
            assert step.pre.vxx <= 1.0 + 1e-9
            assert step.meter.vxx == pytest.approx(step.pre.vxx, abs=1e-10)

    def test_single_step_reduces_to_couple_and_read(self):
        cfg = base_config(N=1, mode="mean")
        trace = run_protocol(cfg)
        joint = couple(cfg.initial_system, cfg.meter_state(), cfg.k, cfg.tau)
        marginal = meter_marginal(joint)
        want = read_meter(joint, marginal.mean_x)
        step = trace.steps[0]
        assert step.y_reading == marginal.mean_x
        assert step.post == want

    def test_deterministic_given_seed(self):
        cfg = base_config(N=4, seed=99)
        assert run_protocol(cfg).to_csv() == run_protocol(cfg).to_csv()

    def test_mean_mode_ignores_seed(self):
        a = run_protocol(base_config(N=2, mode="mean", seed=1)).to_csv()
        b = run_protocol(base_config(N=2, mode="mean", seed=2)).to_csv()
        assert a == b

    def test_inexact_dose_runs_with_warning_only(self):
        # The transfer identity is only asserted at the exact dose; an
        # off-dose run must still complete (non-strict) with a warning.
        cfg = base_config(k=TRANSFER_KTAU / 0.01 * 1.001, N=2)
        assert any("timing" in w for w in check_regime(cfg))
        trace = run_protocol(cfg)
        assert len(trace.steps) == 2

    def test_csv_header(self):
        trace = run_protocol(base_config(N=1))
        header = trace.to_csv().splitlines()[0]
        assert header == (
            "i,t,y_reading,vxx_pre,vxp_pre,vpp_pre,"
            "vxx_post,vxp_post,vpp_post,vyy_meter"
        )

    def test_oscillator_system_chained_contraction(self):
        cfg = base_config(
            system=DimensionlessOscillator(omega=1.0),
            meter_variances=(1.0, 2.0),
            initial_system=contractive(1.0, 2.0),
            N=4,
        )
        trace = run_protocol(cfg)
        for step in trace.steps:
            assert step.pre.vxx <= 1.0 + 1e-9

    def test_dimensional_oscillator_schedule_closes_the_loop(self):
        # m*omega != 1 exercises the quadrature reduction behind the auto
        # schedule: at the horizon the collapsed state's position variance
        # must return exactly to the meter preparation value.
        from quvar import evolve

        system = Oscillator(m=0.5, omega=0.8)
        meter_variances = (1.2, 0.9)
        cfg = base_config(
            system=system,
            meter_variances=meter_variances,
            initial_system=contractive(1.2, 0.9),
            N=4,
        )
        horizon = cfg.contraction_horizon()
        back = evolve(cfg.meter_state(), system, horizon)
        assert back.vxx == pytest.approx(meter_variances[0], rel=1e-10)
        trace = run_protocol(cfg)
        for step in trace.steps:
            assert step.pre.vxx <= meter_variances[0] + 1e-9


def reference_trace(cfg):
    """Reference for run_protocol: a plain loop of public calls with one
    rng.normal draw per round and nothing hoisted. Returns the tuple of
    StepRecords."""
    pconf = PhysConfig(1.0 if isinstance(cfg.system, DimensionlessOscillator) else cfg.hbar)
    period = cfg.period()
    rng = np.random.default_rng(cfg.seed)
    meter = cfg.meter_state()
    system = cfg.initial_system
    steps = []
    for i in range(1, cfg.N + 1):
        joint = couple(system, meter, cfg.k, cfg.tau, pconf)
        marginal = meter_marginal(joint)
        if cfg.mode == "mean":
            reading = marginal.mean_x
        else:
            reading = float(rng.normal(marginal.mean_x, math.sqrt(marginal.vxx)))
        post = read_meter(joint, reading)
        steps.append(StepRecord(i, (i - 1) * period, reading, system, post, marginal))
        system = evolve(post, cfg.system, period - cfg.tau, pconf)
    return tuple(steps)


def reference_csv(steps):
    """Reference CSV formatter: str(index), then one %.17g cell per value."""
    lines = ["i,t,y_reading,vxx_pre,vxp_pre,vpp_pre,vxx_post,vxp_post,vpp_post,vyy_meter"]
    for s in steps:
        values = (
            s.time, s.y_reading, s.pre.vxx, s.pre.vxp, s.pre.vpp,
            s.post.vxx, s.post.vxp, s.post.vpp, s.meter.vxx,
        )
        lines.append(",".join([str(s.index)] + [f"{v:.17g}" for v in values]))
    return "\n".join(lines) + "\n"


SYSTEMS = {
    "free": dict(
        system=FreeMass(m=1.3),
        meter_variances=(1.2, 0.9),
        initial_system=contractive(0.8, 1.5, mean_x=0.3, mean_p=-0.2),
    ),
    "osc": dict(
        system=Oscillator(m=0.5, omega=0.8),
        hbar=0.7,
        meter_variances=(1.2, 0.9),
        initial_system=contractive(1.1, 0.7, mean_x=-0.4, mean_p=0.6),
    ),
    "osc-dimless": dict(
        system=DimensionlessOscillator(omega=1.5),
        meter_variances=(1.0, 2.0),
        initial_system=contractive(1.0, 2.0, mean_x=0.2),
    ),
}


class TestRunProtocolBitIdentity:
    """run_protocol hoists the map, the meter and the normal draws out of
    its loop; the trace must stay identical to the unhoisted loop."""

    @pytest.mark.parametrize("mode", ["sample", "mean"])
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_matches_public_call_loop(self, system, mode):
        self.check(base_config(N=50, seed=7, mode=mode, **SYSTEMS[system]))

    def test_off_dose(self):
        cfg = base_config(N=50, k=TRANSFER_KTAU / 0.01 * 1.01, **SYSTEMS["free"])
        assert any("timing" in w for w in check_regime(cfg))
        self.check(cfg)

    def test_explicit_period(self):
        self.check(base_config(N=50, T=0.7, **SYSTEMS["osc"]))

    @pytest.mark.parametrize(
        "system, mode", [("free", "sample"), ("osc", "mean"), ("osc-dimless", "sample")]
    )
    def test_long_runs_match_public_call_loop(self, system, mode):
        # Long enough for the covariance recursion to settle and any cycle
        # among its few covariances to repeat many times.
        self.check(base_config(N=2000, seed=5, mode=mode, **SYSTEMS[system]))

    @staticmethod
    def check(cfg):
        got = run_protocol(cfg)
        want = reference_trace(cfg)
        assert len(got.steps) == cfg.N
        for a, b in zip(got.steps, want):
            assert a == b
        assert got.to_csv().encode() == reference_csv(want).encode()


class TestTraceRows:
    """run_protocol's trace holds one flat row per round and builds its
    StepRecords only when trace.steps is indexed or iterated."""

    CONFIG = dict(N=50, seed=3, **SYSTEMS["osc"])

    def test_len_and_csv_build_no_records(self, monkeypatch):
        built = []

        def counting_record(*args):
            built.append(args[0])
            return StepRecord(*args)

        monkeypatch.setattr(_trace, "StepRecord", counting_record)
        cfg = base_config(**self.CONFIG)
        trace = run_protocol(cfg)
        assert len(trace.steps) == cfg.N
        assert trace.to_csv() == reference_csv(reference_trace(cfg))
        assert built == []
        trace.steps[0]
        assert built == list(range(1, cfg.N + 1))
        list(trace.steps), trace.steps[-1]
        assert len(built) == cfg.N  # built once, then cached

    def test_records_equal_the_public_call_loop(self):
        cfg = base_config(**self.CONFIG)
        got, want = run_protocol(cfg).steps, reference_trace(cfg)
        assert got[0] == want[0] and got[-1] == want[-1]
        assert got[3:40:7] == want[3:40:7]
        assert list(got) == list(want)
        for index in (cfg.N, -cfg.N - 1):
            with pytest.raises(IndexError):
                got[index]

    def test_traces_compare_by_their_records(self):
        cfg = base_config(**self.CONFIG)
        got, want = run_protocol(cfg), reference_trace(cfg)
        assert got == want and want == got and got == run_protocol(cfg)
        assert hash(got) == hash(want)
        assert got != run_protocol(dataclasses.replace(cfg, seed=4))

    def test_a_trace_is_the_sequence_of_its_records(self):
        trace = run_protocol(base_config(**self.CONFIG))
        assert isinstance(trace, ProtocolTrace) and isinstance(trace, Sequence)
        assert trace.steps is trace
        for other in (5, None, "trace", trace.rows):
            assert trace != other and not trace == other


def test_run_protocol_peak_memory():
    # Each round is one packed 64-byte record: 10^4 rounds peak at ~0.67 MiB
    # (0.61 MiB of records), where a tuple of seven floats and a reference to
    # the round's covariance step peaked at ~2.45 MiB, tuples that also held
    # the round's index and time at ~3.1 MiB, and a StepRecord and three
    # GaussianStates per round at ~6.5 MiB (Python 3.11). The short first run
    # imports numpy.random (~0.6 MiB) outside the traced span.
    cfg = OzawaConfig.from_dict(dict(json.loads(REFERENCE_CONFIG.read_text()), N=10_000))
    run_protocol(dataclasses.replace(cfg, N=1))
    tracemalloc.start()
    try:
        trace = run_protocol(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.steps) == cfg.N
    assert peak <= 1.25 * 2**20


def record_bits(record):
    """A StepRecord's fields as bytes: unlike ==, they tell -0.0 from 0.0."""
    index, time, y, *states = dataclasses.astuple(record)
    return struct.pack("q17d", index, time, y, *(v for state in states for v in state))


# The reference config with k·tau at a tenth of the transfer dose settles
# its covariance slowly: 1,000 rounds visit 395 distinct covariance steps,
# so the records' step index runs past one byte.
OFF_DOSE_RAW = dict(json.loads(REFERENCE_CONFIG.read_text()), N=1000)
OFF_DOSE_RAW["k"] *= 0.1
PACKING_CASES = {
    "free": base_config(N=200, **SYSTEMS["free"]),
    "osc": base_config(N=200, **SYSTEMS["osc"]),
    "off-dose": OzawaConfig.from_dict(OFF_DOSE_RAW),
    "signed-zero means": base_config(N=200, **dict(
        SYSTEMS["free"], initial_system=contractive(0.8, 1.5, mean_x=-0.0, mean_p=-0.0))),
}


@pytest.mark.parametrize("mode", ["mean", "sample"])
@pytest.mark.parametrize("case", sorted(PACKING_CASES))
def test_packed_rows_give_the_public_call_loops_records_bit_for_bit(case, mode):
    cfg = dataclasses.replace(PACKING_CASES[case], mode=mode)
    got, want = run_protocol(cfg), reference_trace(cfg)
    assert len(got) == len(want) == cfg.N
    assert [record_bits(r) for r in got] == [record_bits(r) for r in want]
    assert got.to_csv() == reference_csv(want)
    if case == "off-dose":
        assert len(got.covariance_steps) == 395
    if case == "signed-zero means":
        assert math.copysign(1.0, got[0].pre.mean_x) == math.copysign(1.0, got[0].pre.mean_p) == -1.0


def spy_covariance_step(monkeypatch):
    """The pre-measurement covariances run_protocol's covariance step is called with."""
    calls, covariance_step = [], ozawa._covariance_step

    def spy(cov, *args):
        calls.append(cov)
        return covariance_step(cov, *args)

    monkeypatch.setattr(ozawa, "_covariance_step", spy)
    return calls


@pytest.mark.parametrize("T", ["auto", 0.5])
def test_covariance_step_runs_once_per_distinct_covariance(monkeypatch, T):
    # The covariance half of a round depends on the pre-measurement covariance
    # alone, so run_protocol computes it once per distinct covariance.
    calls = spy_covariance_step(monkeypatch)
    raw = dict(json.loads(REFERENCE_CONFIG.read_text()), N=1000, T=T)
    TestRunProtocolBitIdentity.check(OzawaConfig.from_dict(raw))
    assert 1 <= len(calls) <= 10
    assert len({struct.pack("3d", *cov) for cov in calls}) == len(calls)


def test_a_signed_zero_covariance_is_its_own_step(monkeypatch):
    # -0.0 == 0.0, but the bits differ, and so may the bits computed from them.
    # With omega = 0 the free flow is the identity: round 2 starts from round
    # 1's posterior covariance, which is round 1's own with vxp = +0.0.
    calls = spy_covariance_step(monkeypatch)
    cfg = base_config(
        system=DimensionlessOscillator(omega=0.0),
        meter_variances=(1.0, 0.25),
        initial_system=GaussianState(0.5, 0.0, 1.0000000000000002, 0.25, -0.0),
        T=0.5,
        mode="mean",
    )
    TestRunProtocolBitIdentity.check(cfg)
    assert [(vxx, vpp) for vxx, vpp, _ in calls] == [(1.0000000000000002, 0.25)] * 2
    assert [math.copysign(1.0, vxp) for *_, vxp in calls] == [-1.0, 1.0]


def spy_validate_state(monkeypatch):
    """The states run_protocol validates: through ozawa.validate_state, and
    through gaussian.validate_state, which the shared _require_valid calls."""
    calls, validate_state = [], ozawa.validate_state

    def spy(state, *args):
        calls.append(state)
        return validate_state(state, *args)

    monkeypatch.setattr(ozawa, "validate_state", spy)
    monkeypatch.setattr(gaussian, "validate_state", spy)
    return calls


@pytest.mark.parametrize("mode", ["mean", "sample"])
def test_states_are_validated_once_per_distinct_covariance(monkeypatch, mode):
    # The covariance half of the system and posterior checks depends on the
    # covariance alone, so it runs when a covariance step is created; a round
    # that reuses a step checks only that its means are finite. The meter
    # preparation is valid by construction, so the run does not check it.
    cfg = OzawaConfig.from_dict(dict(json.loads(REFERENCE_CONFIG.read_text()), N=1000, mode=mode))
    steps = spy_covariance_step(monkeypatch)
    validated = spy_validate_state(monkeypatch)
    got = run_protocol(cfg)
    assert 1 <= len(steps) <= 10
    assert len(validated) <= 2 * len(steps)
    assert got.to_csv() == reference_csv(reference_trace(cfg))


class CountingNumpy:
    """Stands in for quvar.ozawa's numpy and counts each call of a function
    looked up on it. Classes pass through uncounted."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)

        return counted


@pytest.mark.parametrize("mode", ["mean", "sample"])
def test_numpy_calls_scale_with_covariances_not_rounds(monkeypatch, mode):
    # The mean step writes each round's means into vectors made once per run,
    # so a round that reuses a covariance step calls no numpy function.
    counts = []
    for n in (100, 1000):
        cfg = OzawaConfig.from_dict(dict(json.loads(REFERENCE_CONFIG.read_text()), N=n, mode=mode))
        with monkeypatch.context() as patch:
            steps = spy_covariance_step(patch)
            proxy = CountingNumpy()
            patch.setattr(ozawa, "np", proxy)
            got = run_protocol(cfg)
        counts.append((len(steps), proxy.calls))
        assert got.to_csv() == reference_csv(reference_trace(cfg))
    assert counts[0] == counts[1] and counts[0][1] > 0, counts


# Doubles for the mean step's BLAS guard: any finite double, with signed
# zeros, subnormals and magnitudes near the top of the range drawn often.
MEAN_STEP_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
                     1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(min_value=1e290, max_value=1e308).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(min_value=5e-324, max_value=2.2250738585072009e-308),
)


@settings(max_examples=300)
@given(st.data(), st.sampled_from([4, 2]))
def test_reused_buffers_give_the_bits_of_a_fresh_array(data, dim):
    # run_protocol's mean step computes M @ np.array([mx, mp, 0.0, 0.0]) and
    # F @ np.array([qx, qp]) as A.dot(v, out=w) on vectors it reuses every
    # round. Both reach the same BLAS dgemv; if a numpy or OpenBLAS upgrade
    # sends them to different kernels, this fails before the golden files do.
    a = np.array(data.draw(st.lists(MEAN_STEP_DOUBLES, min_size=dim * dim, max_size=dim * dim)))
    a = a.reshape(dim, dim)
    v, w = np.zeros(dim), np.empty(dim)
    means = st.tuples(MEAN_STEP_DOUBLES, MEAN_STEP_DOUBLES)
    with np.errstate(all="ignore"):
        for x, p in data.draw(st.lists(means, min_size=1, max_size=5)):
            v[0], v[1] = x, p
            fresh = a @ np.array([x, p, 0.0, 0.0][:dim])
            assert a.dot(v, out=w).tobytes() == fresh.tobytes()


def first_error(run, cfg):
    """The round in which run(cfg) first raises, and its error: the smallest N
    for which the run raises (a run that raises at N raises at every larger N)."""

    def error(n):
        try:
            run(dataclasses.replace(cfg, N=n))
        except ValueError as exc:
            return exc

    lo, hi = 0, cfg.N  # no error in lo rounds, an error in hi
    assert error(hi) is not None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if error(mid) else (mid, hi)
    return hi, str(error(hi))


# Off dose at k·tau × 0.5 the coupling stretches <x> by 1.15 a round, and the
# explicit T settles the covariance by round 37: from <x> = 1e300 the coupled
# mean overflows in round 133, in a round that reuses its covariance step.
# At × 1.2 the meter reads 1.1·<x>, so from <x> = 1.7e308 the reading overflows.
OVERFLOWING_MEANS = {
    "posterior mean": (dict(SYSTEMS["free"], T=0.011, k=TRANSFER_KTAU / 0.01 * 0.5,
                            initial_system=contractive(1.0, 2.0, mean_x=1e300)), 133),
    "reading": (dict(SYSTEMS["free"], k=TRANSFER_KTAU / 0.01 * 1.2,
                     initial_system=contractive(1.0, 2.0, mean_x=1.7e308)), 1),
}


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
@pytest.mark.parametrize("mode", ["mean", "sample"])
@pytest.mark.parametrize("case", sorted(OVERFLOWING_MEANS))
def test_an_overflowing_mean_fails_as_in_the_public_call_loop(case, mode):
    overrides, round_ = OVERFLOWING_MEANS[case]
    cfg = base_config(N=300, mode=mode, **overrides)
    got, want = first_error(run_protocol, cfg), first_error(reference_trace, cfg)
    assert got[0] == want[0] == round_
    if case == "reading":
        assert want[1] == "y_reading must be finite, got inf"
        assert got[1] == f"round {round_}: {want[1]}"
    else:  # evolve, where the public call loop checks the posterior, names no state
        assert want[1] == "mean_x must be finite, got inf"
        assert got[1] == f"round {round_}: invalid posterior state: {want[1]}"


def free_flow_overflow_config(n):
    # With m = 100 the free flow over T - tau overflows <p> at the end of
    # round 131, a round that reuses its covariance step (the covariance
    # settles by round 36).
    return base_config(N=n, T=0.02, k=TRANSFER_KTAU / 0.01 * 0.5,
                       **dict(SYSTEMS["osc"], system=Oscillator(m=100.0, omega=0.8),
                              initial_system=contractive(1.0, 2.0, mean_x=1e300)))


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
def test_a_mean_the_free_flow_overflows_fails_the_next_rounds_system_check():
    # evolve names the overflow in round 131; run_protocol's per-round mean
    # check hands the next round's state to the full check, so a run with a
    # round 132 fails there, whatever its N.
    cfg = free_flow_overflow_config(300)
    assert first_error(reference_trace, cfg)[0] == 131
    for n in (132, 300):
        with pytest.raises(ValueError) as err:
            run_protocol(dataclasses.replace(cfg, N=n))
        assert str(err.value) == "round 132: invalid system state: mean_p must be finite, got -inf"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_mean_the_free_flow_overflows_in_the_last_round_fails_that_round(capsys, tmp_path):
    # At N = 131 no next round checks the overflowed mean: the run checks its
    # last evolved mean itself, and no numpy warning escapes on the way.
    cfg = free_flow_overflow_config(131)
    want = "round 131: posterior mean overflows over T - tau = 0.01"
    with pytest.raises(ValueError) as err:
        run_protocol(cfg)
    assert str(err.value) == want
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert main(["ozawa", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"relative; position transfer is no longer exact\nprotocol failed: {want}\n")


def test_a_meter_variance_leaking_through_the_dose_fails_the_transfer_check(capsys, tmp_path):
    # At the transfer dose the meter's vyy0 drops out of vyy only up to the
    # rounding of the coupling map: at vyy0 = 1e24 that leak is 1.2e-8 > 1e-10.
    raw = json.loads(REFERENCE_CONFIG.read_text())
    raw["meter_variances"]["vyy0"] = 1e24
    want = "variance transfer violated at step 1: |vyy_meter - vxx_pre| = 1.23e-08"
    with pytest.raises(RuntimeError) as err:
        run_protocol(OzawaConfig.from_dict(raw))
    assert str(err.value) == want
    path = tmp_path / "leaky_meter.json"
    path.write_text(json.dumps(raw))
    assert main(["ozawa", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", f"protocol failed: {want}\n")
    # Three decades lower the leak is 1.2e-11, under the bound.
    raw["meter_variances"]["vyy0"] = 1e21
    assert len(run_protocol(OzawaConfig.from_dict(raw)).steps) == 3


@pytest.mark.parametrize("scale", [1 - 9.9e-10, 1 + 9.9e-10])
@pytest.mark.parametrize("mode", ["sample", "mean"])
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_a_dose_the_regime_check_calls_exact_runs(system, mode, scale):
    # Within 1e-9 of the transfer dose check_regime gives no timing warning
    # and run_protocol asserts the transfer identity. Its bound admits the
    # map's own first-order leak |M[2,0]^2 - 1|*vxx, ~1.2e-9*vxx here, so the
    # run completes, as the public call loop does.
    cfg = base_config(N=50, seed=7, mode=mode, k=TRANSFER_KTAU / 0.01 * scale, **SYSTEMS[system])
    assert check_regime(cfg) == []
    TestRunProtocolBitIdentity.check(cfg)


def test_quvar_ozawa_runs_a_dose_the_regime_check_calls_exact(capsys, tmp_path):
    # The reference config at k*(1 + 5e-10) used to fail at step 1 with
    # |vyy_meter - vxx_pre| = 6.05e-10, unwarned; at 1 + 1.1e-9 it warns and runs.
    raw = json.loads(REFERENCE_CONFIG.read_text())
    path = tmp_path / "near_dose.json"
    for scale in (1 + 5e-10, 1 - 9.9e-10, 1 + 9.9e-10, 1 + 1.1e-9):
        path.write_text(json.dumps(dict(raw, k=raw["k"] * scale)))
        assert main(["ozawa", "--config", str(path)]) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == raw["N"] + 1
        assert err.startswith("warning: interaction timing: ") if scale > 1 + 1e-9 else err == ""


def test_sample_mode_readings_are_standard_normal_deviates():
    # Seed fixed before the first run and never tuned. At the exact dose the
    # readings must be independent draws from the meter marginal, so the
    # standardized residuals are i.i.d. N(0, 1); each bound is five standard
    # errors of its estimator.
    n = 10_000
    trace = run_protocol(base_config(N=n, seed=4242, meter_variances=(1.2, 0.9)))
    z = np.array([(s.y_reading - s.meter.mean_x) / math.sqrt(s.meter.vxx) for s in trace.steps])
    assert abs(z.mean()) <= 5.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) <= 5.0 * math.sqrt(2.0 / n)
    dz = z - z.mean()
    lag1 = float(dz[:-1] @ dz[1:]) / float(dz @ dz)
    assert abs(lag1) <= 5.0 / math.sqrt(n)
