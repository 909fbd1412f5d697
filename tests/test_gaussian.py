import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from quvar import (
    DimensionlessOscillator,
    FreeMass,
    GaussianState,
    Oscillator,
    PhysConfig,
    StateValidationError,
    evolve,
    flow_map,
    validate_state,
    variance_x_closed_form,
)

SQRT3 = math.sqrt(3.0)


@st.composite
def valid_states(draw, v_lo=0.05, v_hi=50.0):
    vxx = draw(st.floats(v_lo, v_hi))
    vpp = draw(st.floats(max(0.25 / vxx, v_lo), 2.0 * v_hi))
    corr = draw(st.floats(-0.999, 0.999))
    vxp = corr * math.sqrt(max(vxx * vpp - 0.25, 0.0))
    mean_x = draw(st.floats(-5.0, 5.0))
    mean_p = draw(st.floats(-5.0, 5.0))
    return GaussianState(mean_x=mean_x, mean_p=mean_p, vxx=vxx, vpp=vpp, vxp=vxp)


models = st.one_of(
    st.builds(FreeMass, m=st.floats(0.1, 10.0)),
    st.builds(Oscillator, m=st.floats(0.1, 10.0), omega=st.floats(0.1, 10.0)),
    st.builds(DimensionlessOscillator, omega=st.floats(0.0, 10.0)),
)

# Strong shears (t/m ~ 100 on vpp/vxx ~ 1e3) make the determinant evaluation
# itself a near-total cancellation; the invariant property tests run on a
# moderate domain where a 1e-10 relative check is numerically meaningful.
moderate_states = valid_states(v_lo=0.1, v_hi=10.0)
moderate_models = st.one_of(
    st.builds(FreeMass, m=st.floats(0.5, 2.0)),
    st.builds(Oscillator, m=st.floats(0.5, 2.0), omega=st.floats(0.2, 3.0)),
    st.builds(DimensionlessOscillator, omega=st.floats(0.0, 3.0)),
)


class TestValidateState:
    def test_minimum_uncertainty_ok(self):
        report = validate_state(GaussianState(vxx=0.5, vpp=0.5, vxp=0.0))
        assert report.ok
        assert report.sr_margin == pytest.approx(0.0, abs=1e-15)

    def test_sr_violation_reported_with_margin(self):
        # 1 - 0.81 = 0.19 < 0.25: fails the product bound.
        report = validate_state(GaussianState(vxx=1.0, vpp=1.0, vxp=0.9))
        assert not report.ok
        assert report.sr_margin == pytest.approx(-0.06)
        assert any("Schrodinger-Robertson" in v for v in report.violations)
        assert any("-0.06" in v for v in report.violations)

    def test_exact_saturation_zero_margin(self):
        report = validate_state(GaussianState(vxx=1.0, vpp=1.0, vxp=SQRT3 / 2.0))
        assert report.ok
        assert abs(report.sr_margin) <= 1e-12

    def test_nonpositive_variances_named(self):
        report = validate_state(GaussianState(vxx=-1.0, vpp=0.0, vxp=0.0))
        assert not report.ok
        assert any("vxx" in v for v in report.violations)
        assert any("vpp" in v for v in report.violations)

    def test_hbar_scales_the_bound(self):
        state = GaussianState(vxx=1.0, vpp=1.0, vxp=0.0)
        assert validate_state(state, PhysConfig(hbar=2.0)).ok
        assert not validate_state(state, PhysConfig(hbar=2.1)).ok

    @pytest.mark.parametrize(
        "state, hbar",
        [
            (GaussianState(vxx=1.0, vpp=1.0, vxp=1e200), 1.0),  # vxp² overflows
            (GaussianState(vxx=1e200, vpp=1e200, vxp=1e200), 1.0),  # inf − inf
            (GaussianState(vxx=1e200, vpp=1e200, vxp=0.0), 1e200),  # ħ² overflows
        ],
    )
    def test_overflowing_margin_is_a_violation(self, state, hbar):
        report = validate_state(state, PhysConfig(hbar))
        assert not report.ok
        assert any("Schrodinger-Robertson" in v for v in report.violations)


@pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan])
def test_phys_config_rejects_a_non_positive_hbar(hbar):
    with pytest.raises(ValueError) as info:
        PhysConfig(hbar)
    assert str(info.value) == f"hbar must be > 0, got {hbar}"


class TestOscillatorScale:
    @pytest.mark.parametrize(
        "m, omega", [(1e100, 1e100), (1e-300, 1e10), (1e300, 1e10), (1e-200, 1e-200)]
    )
    def test_unusable_m_omega_is_rejected(self, m, omega):
        with pytest.raises(ValueError, match=r"m\*omega must have a finite, nonzero square"):
            Oscillator(m=m, omega=omega)

    def test_extreme_but_usable_scale_is_kept(self):
        assert Oscillator(m=1e150, omega=1e-10)._scale == 1e150 * 1e-10


class TestHamiltonianPair:
    @pytest.mark.parametrize(
        "model, t, pair",
        [
            (FreeMass(m=1.7), 0.0, (1.7, 0.0)),
            (FreeMass(m=math.inf), 0.5, (math.inf, 0.0)),
            (Oscillator(m=1.5, omega=0.7), 0.0, (1.5, 0.7)),
            (DimensionlessOscillator(omega=1.3), 0.5, (1.0 / 1.3, 1.3)),
            (DimensionlessOscillator(omega=1.3), 0.0, None),
            (DimensionlessOscillator(omega=0.0), 0.5, None),
        ],
    )
    def test_each_model_gives_its_pair(self, model, t, pair):
        assert model._pair(t) == pair

    @given(models, st.floats(-10.0, 10.0))
    def test_the_pair_generates_the_models_flow(self, model, t):
        # H = P²/(2m) + ½mω²X² moves (x, p) by the shear (1, t/m) at ω = 0 and
        # by the rotation [[c, s/(mω)], [−mω·s, c]] otherwise; no pair is no flow.
        pair = model._pair(t)
        if pair is None:
            want = np.eye(2)
        elif pair[1] == 0.0:
            want = np.array([[1.0, t / pair[0]], [0.0, 1.0]])
        else:
            (m, omega), th = pair, pair[1] * t
            mw = m * omega
            assume(math.isfinite(mw))  # 1/ω overflows at a subnormal ω: gridsim's route refuses it
            want = np.array([[math.cos(th), math.sin(th) / mw], [-mw * math.sin(th), math.cos(th)]])
        np.testing.assert_allclose(flow_map(model, t), want, rtol=1e-12, atol=1e-12)


class TestFlowMap:
    def test_free_mass_identity_at_t0(self):
        np.testing.assert_array_equal(flow_map(FreeMass(m=1.0), 0.0), np.eye(2))

    def test_free_mass_shear(self):
        M = flow_map(FreeMass(m=2.0), 3.0)
        np.testing.assert_allclose(M, [[1.0, 1.5], [0.0, 1.0]])

    def test_dimensionless_quarter_period(self):
        M = flow_map(DimensionlessOscillator(omega=1.0), math.pi / 2.0)
        np.testing.assert_allclose(M, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    def test_oscillator_determinant_one(self):
        M = flow_map(Oscillator(m=2.0, omega=3.0), 0.1)
        assert abs(np.linalg.det(M) - 1.0) <= 1e-12

    def test_omega_zero_dimensionless_is_identity(self):
        np.testing.assert_array_equal(
            flow_map(DimensionlessOscillator(omega=0.0), 7.3), np.eye(2)
        )

    @pytest.mark.parametrize(
        "model", [DimensionlessOscillator(omega=1e300), Oscillator(m=1e-300, omega=1e300)]
    )
    def test_overflowing_phase_is_named(self, model):
        # math.cos of the infinite phase raised only "math domain error".
        message = r"phase omega\*t is not finite at t = 10000000000.0"
        with pytest.raises(ValueError, match=message):
            flow_map(model, 1e10)
        with pytest.raises(ValueError, match=message):
            model._x_row([0.5, 1e10])

    @given(models, st.floats(-10.0, 10.0))
    def test_determinant_one_everywhere(self, model, t):
        assert abs(np.linalg.det(flow_map(model, t)) - 1.0) <= 1e-12


class TestEvolve:
    def test_gaussian_spreading(self):
        # Momentum-space Gaussian with alpha = 2, hbar = m = 1 has vpp = 1,
        # vxx(0) = 1/4 and spreads as (1 + 4t^2)/4.
        s = GaussianState(vxx=0.25, vpp=1.0, vxp=0.0)
        for t in (0.5, 1.0, 2.0):
            got = evolve(s, FreeMass(m=1.0), t).vxx
            assert got == pytest.approx((1.0 + 4.0 * t * t) / 4.0, rel=1e-14)
        assert evolve(s, FreeMass(m=1.0), 1.0).vxx == pytest.approx(1.25)

    def test_t0_is_identity(self):
        s = GaussianState(mean_x=0.4, mean_p=-1.2, vxx=2.0, vpp=0.7, vxp=0.3)
        out = evolve(s, Oscillator(m=1.5, omega=2.0), 0.0)
        assert out == s

    def test_quarter_period_swaps_quadratures(self):
        s = GaussianState(vxx=2.0, vpp=0.5, vxp=-0.3)
        out = evolve(s, DimensionlessOscillator(omega=1.0), math.pi / 2.0)
        assert out.vxx == pytest.approx(0.5, rel=1e-14)
        assert out.vpp == pytest.approx(2.0, rel=1e-14)
        assert out.vxp == pytest.approx(0.3, rel=1e-14, abs=1e-15)

    def test_invalid_state_raises(self):
        with pytest.raises(StateValidationError):
            evolve(GaussianState(vxx=1.0, vpp=1.0, vxp=0.9), FreeMass(m=1.0), 1.0)

    def test_dimensionless_ignores_config_hbar(self):
        # Valid at hbar = 1 but not at hbar = 3; the quadrature model fixes 1.
        s = GaussianState(vxx=1.0, vpp=1.0, vxp=0.0)
        out = evolve(s, DimensionlessOscillator(omega=1.0), 0.3, PhysConfig(hbar=3.0))
        assert out.vxx > 0

    @pytest.mark.parametrize(
        "t, message",
        [
            (math.inf, "t must be finite, got inf"),
            (math.nan, "t must be finite, got nan"),
            # A finite t whose shear t/m squares past the double range.
            (1e308, "evolved moments are not finite at t = 1e[+]308"),
        ],
    )
    def test_nonfinite_time_or_moments_name_t(self, t, message):
        # These returned vxx = nan or inf with RuntimeWarnings (errors here).
        with pytest.raises(ValueError, match=message):
            evolve(GaussianState(0.0, 0.0, 1.0, 1.0, 0.0), FreeMass(1.0), t)


class TestClosedForm:
    def test_spreading_value(self):
        s = GaussianState(vxx=0.25, vpp=1.0, vxp=0.0)
        assert variance_x_closed_form(s, FreeMass(m=1.0), 1.0) == pytest.approx(1.25)

    def test_t0_returns_vxx(self):
        s = GaussianState(vxx=0.37, vpp=1.9, vxp=0.1)
        assert variance_x_closed_form(s, FreeMass(m=2.0), 0.0) == s.vxx

    def test_dimensionless_example(self):
        # cos^2*1 + sin^2*2 + sin(2wt)*(-0.5) at wt = pi/4 -> 0.5 + 1 - 0.5.
        s = GaussianState(vxx=1.0, vpp=2.0, vxp=-0.5)
        got = variance_x_closed_form(s, DimensionlessOscillator(omega=1.0), math.pi / 4.0)
        assert got == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize(
        "model, t, message",
        [
            (FreeMass(1.0), math.inf, "t must be finite, got inf"),
            # (t/m)² overflows.
            (FreeMass(1.0), 1e308, "variance is not finite at t = 1e[+]308: nan"),
            # ωt is finite but 2ωt overflows, so sin 2ωt is nan.
            (DimensionlessOscillator(1.0), 2.0**1023,
             "variance is not finite at t = 8.98846567431158e[+]307: nan"),
        ],
    )
    def test_nonfinite_time_or_variance_name_t(self, model, t, message):
        # These returned nan with RuntimeWarnings (errors here), where evolve raises.
        with pytest.raises(ValueError, match=message):
            variance_x_closed_form(GaussianState(), model, t)

    @given(valid_states(), models, st.floats(-10.0, 10.0))
    def test_agrees_with_evolve(self, s, model, t):
        direct = variance_x_closed_form(s, model, t)
        via_map = evolve(s, model, t).vxx
        assert direct == pytest.approx(via_map, rel=1e-12, abs=1e-13)


class TestFlowProperties:
    @given(moderate_states, moderate_models, st.floats(-3.0, 3.0))
    def test_sr_invariant_preserved(self, s, model, t):
        out = evolve(s, model, t)
        before = s.vxx * s.vpp - s.vxp**2
        after = out.vxx * out.vpp - out.vxp**2
        assert after == pytest.approx(before, rel=1e-10)

    @given(moderate_states, moderate_models, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    def test_flow_composition(self, s, model, t1, t2):
        chained = evolve(evolve(s, model, t1), model, t2)
        direct = evolve(s, model, t1 + t2)
        for field in ("mean_x", "mean_p", "vxx", "vpp", "vxp"):
            assert getattr(chained, field) == pytest.approx(
                getattr(direct, field), rel=1e-10, abs=1e-10
            )

    @given(valid_states(), models, st.floats(-10.0, 10.0))
    def test_positivity(self, s, model, t):
        out = evolve(s, model, t)
        assert out.vxx > 0
        assert out.vpp > 0


class TestNonFiniteMoments:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["mean_x", "mean_p", "vxx", "vpp", "vxp"])
    def test_violation_names_the_field_and_evolve_raises(self, field, value):
        state = GaussianState(**{**GaussianState().to_dict(), field: value})
        report = validate_state(state)
        assert not report.ok
        assert f"{field} must be finite, got {value}" in report.violations
        with pytest.raises(StateValidationError, match=f"{field} must be finite"):
            evolve(state, FreeMass(m=1.0), 0.5)


class TestOscillatorXRow:
    """The oscillator x-row is whole-array numpy. Its bytes rest on numpy's cos,
    sin and float_power agreeing with libm and Python's ** on the platform."""

    def test_equals_libm_and_python_pow_elementwise(self):
        rng = np.random.default_rng(16)
        n = 10**6 // 4
        th = np.concatenate([rng.uniform(0.0, 10.0, n), rng.uniform(0.0, 1e8, n),
                             rng.uniform(-1e15, 1e15, 2 * n)])
        mw = 1.3
        cxx, cpp, cxp = Oscillator(m=mw, omega=1.0)._x_row(th)  # phase 1.0 * t is t
        for i in range(0, len(th), 10**5):
            chunk = slice(i, i + 10**5)
            xs = th[chunk].tolist()
            np.testing.assert_array_equal(cxx[chunk], [math.cos(x) ** 2 for x in xs])
            np.testing.assert_array_equal(cpp[chunk], [math.sin(x) ** 2 / mw**2 for x in xs])
            np.testing.assert_array_equal(cxp[chunk], [math.sin(2.0 * x) / (2.0 * mw) for x in xs])
        # Squaring rounds unlike pow on these phases, so a switch to c*c fails above.
        c, s = np.cos(th), np.sin(th)
        assert np.count_nonzero(c * c != cxx) >= 100
        assert np.count_nonzero(s * s / mw**2 != cpp) >= 100

    def test_peak_memory(self):
        # tracemalloc peak on Python 3.11.7 / numpy 2.4.6: the per-element loop,
        # with its Python float lists and three fromiter arrays alive at once,
        # peaked at 6.86 MiB; the whole-array row peaks at 5.34 MiB.
        model, t = Oscillator(1.3, 0.8), np.linspace(0.0, 10.0, 10**5 + 1)
        tracemalloc.start()
        try:
            model._x_row(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * 2**20, peak / 2**20
