import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quvar import (
    DimensionlessOscillator,
    ExtremalSpec,
    FreeMass,
    SqueezeParams,
    bogoliubov_eigenvalue,
    complex_width_from_squeeze,
    complex_width_from_variances,
    contraction_phase_osc,
    evolve,
    evolve_squeeze,
    free_mass_bounds,
    gaussian_from_extremal,
    squeeze_from_complex_width,
    state_from_squeeze,
    validate_state,
    variance_x_closed_form,
    variances_from_complex_width,
)

SQRT3 = math.sqrt(3.0)


class TestComplexWidth:
    def test_reference_point(self):
        w = complex_width_from_variances(1.0, 1.0, 1.0, 1)
        assert w == pytest.approx(0.5 + 1j * SQRT3 / 2.0)

    def test_minimum_uncertainty_real(self):
        # vxx*vpp = hbar^2/4 exactly: the width loses its imaginary part.
        w = complex_width_from_variances(2.0, 0.03125, 0.5, 1)
        assert w.imag == 0.0
        assert w.real == pytest.approx(0.5 / 4.0)

    def test_momentum_variance_consistency(self):
        # vpp = hbar*|w|^2/(2 Re w) must reproduce the input.
        for vxx, vpp, hbar in ((1.0, 1.0, 1.0), (0.3, 7.0, 0.7), (5.0, 2.0, 2.0)):
            w = complex_width_from_variances(vxx, vpp, hbar, -1)
            assert hbar * abs(w) ** 2 / (2.0 * w.real) == pytest.approx(vpp, rel=1e-12)

    def test_real_part_formula(self):
        for vxx in (0.2, 1.0, 9.0):
            w = complex_width_from_variances(vxx, 10.0, 1.0, 1)
            assert w.real == pytest.approx(1.0 / (2.0 * vxx), rel=1e-14)

    @given(st.floats(0.05, 50.0), st.floats(1.0, 100.0), st.sampled_from([1, -1]))
    def test_roundtrip_with_variances(self, vxx, factor, sign):
        vpp = factor * 0.25 / vxx  # product = factor/4 >= 1/4
        w = complex_width_from_variances(vxx, vpp, 1.0, sign)
        back = variances_from_complex_width(w, 1.0)
        assert back[0] == pytest.approx(vxx, rel=1e-12)
        assert back[1] == pytest.approx(vpp, rel=1e-12)

    def test_invalid_sign(self):
        with pytest.raises(ValueError, match="sign"):
            complex_width_from_variances(1.0, 1.0, 1.0, 2)

    @pytest.mark.parametrize(
        "vxx0, vpp0, hbar, width",
        [
            (1e300, 1e300, 1.0, "(5e-301+infj)"),  # 4·vxx0·vpp0 overflows, so Im w does
            (5e-324, math.inf, 0.8, "(inf+infj)"),  # and ħ/(2·vxx0) with it
        ],
    )
    def test_an_overflowing_width_is_named(self, vxx0, vpp0, hbar, width):
        message = (
            f"width (hbar + i*sign*sqrt(4*vxx0*vpp0 - hbar^2))/(2*vxx0) overflows: w = {width}"
        )
        for build in (complex_width_from_variances, ExtremalSpec.from_variances):
            with pytest.raises(ValueError) as info:
                build(vxx0, vpp0, hbar, 1)
            assert str(info.value) == message

    def test_variances_of_a_left_half_plane_width_rejected(self):
        with pytest.raises(ValueError) as info:
            variances_from_complex_width(-1.0 + 0.5j)
        assert str(info.value) == "Re(width) must be > 0, got (-1+0.5j)"

    def test_variances_of_an_infinite_real_width_rejected(self):
        # vxx would be 0 and vpp inf/inf = NaN.
        with pytest.raises(ValueError) as info:
            variances_from_complex_width(complex(math.inf, math.inf))
        assert str(info.value) == "Re(width) must be finite, got (inf+infj)"


class TestExtremalStates:
    def test_contractive_covariance(self):
        spec = ExtremalSpec.from_variances(1.0, 1.0, 1.0, 1)
        state = gaussian_from_extremal(spec)
        assert state.vxx == pytest.approx(1.0, rel=1e-14)
        assert state.vpp == pytest.approx(1.0, rel=1e-14)
        assert state.vxp == pytest.approx(-SQRT3 / 2.0, rel=1e-14)

    def test_sign_flip_flips_covariance(self):
        plus = gaussian_from_extremal(ExtremalSpec.from_variances(1.0, 2.0, 1.0, 1))
        minus = gaussian_from_extremal(ExtremalSpec.from_variances(1.0, 2.0, 1.0, -1))
        assert minus.vxp == pytest.approx(-plus.vxp, rel=1e-14)

    def test_zero_sr_margin(self):
        from quvar import PhysConfig

        spec = ExtremalSpec.from_variances(0.7, 3.0, 1.3, 1)
        report = validate_state(gaussian_from_extremal(spec, hbar=1.3), PhysConfig(1.3))
        assert report.ok
        assert abs(report.sr_margin) <= 1e-12 * max(1.3**2, 0.7 * 3.0)

    def test_saturates_lower_envelope_after_evolution(self):
        spec = ExtremalSpec.from_variances(1.0, 1.0, 1.0, 1)
        state = gaussian_from_extremal(spec)
        got = evolve(state, FreeMass(m=1.0), 1.0).vxx
        assert got == pytest.approx(2.0 - SQRT3, rel=1e-12)
        assert got == pytest.approx(free_mass_bounds(1.0, 1.0, 1.0, 1.0, 1.0).lower, rel=1e-12)

    def test_spec_rejects_inconsistent_sign(self):
        with pytest.raises(ValueError, match="inconsistent"):
            ExtremalSpec(width=0.5 + 1.0j, sign=-1)

    def test_spec_rejects_nonpositive_real(self):
        with pytest.raises(ValueError, match="Re"):
            ExtremalSpec(width=-0.5 + 1.0j, sign=1)

    def test_spec_rejects_a_sign_other_than_one(self):
        with pytest.raises(ValueError) as info:
            ExtremalSpec(width=0.5 + 1.0j, sign=2)
        assert str(info.value) == "sign must be +1 or -1, got 2"

    def test_a_double_overflow_builds_no_spec(self):
        # 4·vxx0·vpp0 and ħ² both overflow: the width was 0.5+nanj, and its
        # state's vpp nan.
        with pytest.raises(ValueError, match=r"4\*vxx0\*vpp0 and hbar\^2 both overflow"):
            ExtremalSpec.from_variances(1e200, 1e200, 1e200)


class TestSqueezeMaps:
    def test_no_squeeze_is_unit_width(self):
        assert complex_width_from_squeeze(0.0, 1.234) == pytest.approx(1.0 + 0.0j)

    def test_theta_zero_pure_position_squeeze(self):
        # cosh 2r - sinh 2r cancels toward e^{-2r}; tolerance reflects that.
        for r in (0.2, 1.0, 2.5):
            w = complex_width_from_squeeze(r, 0.0)
            assert w.imag == pytest.approx(0.0, abs=1e-15)
            assert w.real == pytest.approx(math.exp(2.0 * r), rel=1e-11)

    def test_quarter_angle_reference(self):
        w = complex_width_from_squeeze(0.5, math.pi / 2.0)
        assert w.real == pytest.approx(1.0 / math.cosh(1.0), rel=1e-13)
        assert w.imag == pytest.approx(math.sinh(1.0) / math.cosh(1.0), rel=1e-13)

    def test_imag_sign_follows_sin_theta(self):
        assert complex_width_from_squeeze(0.8, 0.4).imag > 0
        assert complex_width_from_squeeze(0.8, -0.4).imag < 0
        assert complex_width_from_squeeze(0.8, math.pi).imag == pytest.approx(0.0, abs=1e-15)

    def test_unit_width_maps_to_zero_squeeze(self):
        assert squeeze_from_complex_width(1.0 + 0.0j) == (0.0, 0.0)

    def test_real_width_inversion(self):
        r0 = 0.9
        r, theta = squeeze_from_complex_width(complex(math.exp(2.0 * r0), 0.0))
        assert r == pytest.approx(r0, rel=1e-12)
        assert theta == 0.0

    def test_roundtrip_reference_width(self):
        w = (1.0 + 1j * SQRT3) / 2.0
        r, theta = squeeze_from_complex_width(w)
        back = complex_width_from_squeeze(r, theta)
        assert abs(back - w) <= 1e-12

    def test_rejects_left_half_plane(self):
        with pytest.raises(ValueError, match="Re"):
            squeeze_from_complex_width(-1.0 + 0.5j)

    @pytest.mark.parametrize(
        "build",
        [lambda: complex_width_from_squeeze(-0.1, 0.0),
         lambda: SqueezeParams(alpha=0.0, r=-0.1, theta=0.0)],
        ids=["complex_width_from_squeeze", "SqueezeParams"],
    )
    def test_negative_squeeze_rejected(self, build):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == "r must be >= 0, got -0.1"

    @given(st.floats(0.01, 10.0), st.floats(-10.0, 10.0))
    def test_roundtrip_random_widths(self, re, im):
        w = complex(re, im)
        r, theta = squeeze_from_complex_width(w)
        back = complex_width_from_squeeze(r, theta)
        assert abs(back - w) <= 1e-12 * max(1.0, abs(w))


class TestSqueezeEvolution:
    def test_identity_at_zero_phase(self):
        sp = SqueezeParams(alpha=0.3 + 0.1j, r=0.7, theta=1.1)
        assert evolve_squeeze(sp, 0.0) == sp

    def test_half_period_negates_alpha(self):
        sp = SqueezeParams(alpha=1.0 - 2.0j, r=0.5, theta=0.9)
        out = evolve_squeeze(sp, math.pi)
        assert abs(out.alpha + sp.alpha) <= 1e-12
        assert out.theta == pytest.approx(sp.theta, abs=1e-12)
        assert out.r == sp.r

    @given(
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
        st.floats(0.0, 2.0),
        st.floats(0.0, 2.0 * math.pi),
        st.floats(0.0, 10.0),
    )
    def test_labels_match_moment_evolution(self, ax, ay, r, theta, phase):
        sp = SqueezeParams(alpha=complex(ax, ay), r=r, theta=theta)
        via_labels = state_from_squeeze(evolve_squeeze(sp, phase))
        via_moments = evolve(state_from_squeeze(sp), DimensionlessOscillator(omega=1.0), phase)
        for field in ("mean_x", "mean_p", "vxx", "vpp", "vxp"):
            assert getattr(via_labels, field) == pytest.approx(
                getattr(via_moments, field), rel=1e-10, abs=1e-10
            )

    def test_width_of_squeeze_state_matches_moments(self):
        sp = SqueezeParams(alpha=0.0, r=0.8, theta=2.2)
        state = state_from_squeeze(sp)
        w = complex_width_from_squeeze(sp.r, sp.theta)
        vxx, vpp = variances_from_complex_width(w)
        assert state.vxx == pytest.approx(vxx, rel=1e-12)
        assert state.vpp == pytest.approx(vpp, rel=1e-12)
        assert state.vxp == pytest.approx(-w.imag * vxx, rel=1e-12)


class TestBogoliubovEigenvalue:
    def test_no_squeeze_identity(self):
        assert bogoliubov_eigenvalue(0.7 - 0.2j, 0.0, 1.3) == 0.7 - 0.2j

    def test_zero_displacement(self):
        assert bogoliubov_eigenvalue(0.0, 1.5, 0.7) == 0.0

    def test_real_unit_case(self):
        assert bogoliubov_eigenvalue(1.0, 1.0, 0.0) == pytest.approx(math.e, rel=1e-14)

    def test_matches_squeeze_params_property(self):
        sp = SqueezeParams(alpha=0.4 + 0.9j, r=0.6, theta=2.0)
        want = math.cosh(0.6) * sp.alpha + cmath.exp(2.0j) * math.sinh(0.6) * sp.alpha.conjugate()
        assert sp.beta == pytest.approx(want)


class TestContractivityBranch:
    @given(st.floats(0.01, 2.0), st.floats(0.01, math.pi - 0.01))
    def test_positive_sin_theta_is_contractive(self, r, theta):
        state = state_from_squeeze(SqueezeParams(alpha=0.0, r=r, theta=theta))
        assert state.vxp < 0.0

    def test_horizon_grid(self):
        vxx, vpp = 1.0, 2.0
        spec = ExtremalSpec.from_variances(vxx, vpp, 1.0, 1)
        state = gaussian_from_extremal(spec)
        horizon = contraction_phase_osc(vxx, vpp)
        model = DimensionlessOscillator(omega=1.0)
        for phase in np.linspace(0.0, horizon, 200):
            v = variance_x_closed_form(state, model, float(phase))
            assert v <= vxx * (1.0 + 1e-12)
        beyond = variance_x_closed_form(state, model, horizon * (1.0 + 1e-3))
        assert beyond > vxx
