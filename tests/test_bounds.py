import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quvar
from quvar import (
    DimensionlessOscillator,
    ExtremalSpec,
    FreeMass,
    GaussianState,
    Oscillator,
    PhysConfig,
    contraction_phase_osc,
    contraction_time_free,
    evolve,
    free_mass_bounds,
    free_mass_lower_alt_forms,
    gaussian_from_extremal,
    oscillator_bounds_dimensional,
    oscillator_bounds_p,
    oscillator_bounds_x,
    sql_reference,
    validate_state,
)
from quvar import _g17
from quvar.bounds import envelope, sqrt_uncertainty_excess
from quvar.cli import main

SQRT3 = math.sqrt(3.0)


@st.composite
def variance_pairs(draw):
    vxx = draw(st.floats(0.05, 50.0))
    vpp = draw(st.floats(max(0.25 / vxx, 0.01), 100.0))
    return vxx, vpp


class TestFreeMassBounds:
    def test_reference_point(self):
        pair = free_mass_bounds(1.0, 1.0, 1.0, 1.0, 1.0)
        assert pair.lower == pytest.approx(2.0 - SQRT3, rel=1e-14)
        assert pair.upper == pytest.approx(2.0 + SQRT3, rel=1e-14)

    def test_minimum_uncertainty_collapses(self):
        for t in (0.0, 0.7, 3.0):
            pair = free_mass_bounds(0.5, 0.5, 1.0, 1.0, t)
            want = 0.5 + t * t * 0.5
            assert pair.lower == pytest.approx(want, rel=1e-12)
            assert pair.upper == pytest.approx(want, rel=1e-12)

    def test_t0(self):
        pair = free_mass_bounds(0.8, 2.0, 1.3, 1.0, 0.0)
        assert pair.lower == pair.upper == 0.8

    def test_invalid_product_raises(self):
        with pytest.raises(ValueError, match="uncertainty product"):
            free_mass_bounds(0.1, 0.1, 1.0, 1.0, 1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="t must be >= 0"):
            free_mass_bounds(1.0, 1.0, 1.0, 1.0, -0.5)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_time_rejected(self, t):
        # Non-finite t must raise, not return lower = nan.
        with pytest.raises(ValueError, match="t must be"):
            free_mass_bounds(1.0, 1.0, 1.0, 1.0, t)
        with pytest.raises(ValueError, match="t must be"):
            oscillator_bounds_dimensional(1.0, 1.0, 1.0, 1.0, 1.0, t)
        with pytest.raises(ValueError, match="t must be"):
            oscillator_bounds_x(1.0, 1.0, t)
        with pytest.raises(ValueError, match="t must be"):
            oscillator_bounds_p(1.0, 1.0, t)

    @given(variance_pairs(), st.floats(0.0, 10.0), st.floats(0.1, 10.0))
    def test_lower_positive_and_floored(self, pair, t, m):
        vxx, vpp = pair
        b = free_mass_bounds(vxx, vpp, m, 1.0, t)
        assert 0.0 < b.lower <= b.upper
        assert b.lower >= 1.0 / (4.0 * vpp) * (1.0 - 1e-12)


class TestAltForms:
    def test_reference_point(self):
        f1, f2 = free_mass_lower_alt_forms(1.0, 1.0, 1.0, 1.0, 1.0)
        assert f1 == pytest.approx(2.0 - SQRT3, rel=1e-12)
        assert f2 == pytest.approx(2.0 - SQRT3, rel=1e-12)

    def test_minimum_uncertainty(self):
        for t in (0.0, 1.2):
            f1, f2 = free_mass_lower_alt_forms(0.5, 0.5, 1.0, 1.0, t)
            want = 0.5 + t * t * 0.5
            assert f1 == pytest.approx(want, rel=1e-12)
            assert f2 == pytest.approx(want, rel=1e-12)

    def test_vertex_hits_global_minimum(self):
        vxx, vpp, m, hbar = 2.0, 3.0, 1.5, 1.0
        t_m = contraction_time_free(vxx, vpp, m, hbar)
        f1, _ = free_mass_lower_alt_forms(vxx, vpp, m, hbar, 0.5 * t_m)
        assert f1 == pytest.approx(hbar**2 / (4.0 * vpp), rel=1e-12)

    @given(variance_pairs(), st.floats(0.0, 10.0), st.floats(0.1, 10.0))
    def test_identical_to_lower_everywhere(self, pair, t, m):
        vxx, vpp = pair
        lower = free_mass_bounds(vxx, vpp, m, 1.0, t).lower
        f1, f2 = free_mass_lower_alt_forms(vxx, vpp, m, 1.0, t)
        assert f1 == pytest.approx(lower, rel=1e-10)
        assert f2 == pytest.approx(lower, rel=1e-10)


class TestContractionTimeFree:
    def test_reference_point(self):
        assert contraction_time_free(1.0, 1.0, 1.0, 1.0) == pytest.approx(SQRT3, rel=1e-14)

    def test_minimum_uncertainty_zero(self):
        assert contraction_time_free(0.5, 0.5, 1.0, 1.0) == 0.0

    def test_linear_in_mass(self):
        t1 = contraction_time_free(1.0, 2.0, 1.0, 1.0)
        t2 = contraction_time_free(1.0, 2.0, 2.0, 1.0)
        assert t2 == pytest.approx(2.0 * t1, rel=1e-14)

    def test_envelope_returns_to_initial_at_horizon(self):
        vxx, vpp = 1.3, 0.9
        t_m = contraction_time_free(vxx, vpp, 1.0, 1.0)
        assert free_mass_bounds(vxx, vpp, 1.0, 1.0, t_m).lower == pytest.approx(
            vxx, rel=1e-12
        )

    def test_a_double_overflow_is_named(self):
        # 4·vxx0·vpp0 and ħ² both overflow: inf − inf was a NaN that passed
        # both rejection tests, and t_M was NaN with it.
        message = re.escape(
            "4*vxx0*vpp0 and hbar^2 both overflow: vxx0 = 1e+200, vpp0 = 1e+200, hbar = 1e+200"
        )
        with pytest.raises(ValueError, match=message):
            sqrt_uncertainty_excess(1e200, 1e200, 1e200)
        with pytest.raises(ValueError, match=message):
            contraction_time_free(1e200, 1e200, 1.0, 1e200)

    def test_an_overflow_of_the_square_alone_keeps_its_message(self):
        with pytest.raises(ValueError, match="uncertainty product below minimum"):
            sqrt_uncertainty_excess(1.0, 1.0, 1e200)
        assert sqrt_uncertainty_excess(1e200, 1e200, 1.0) == math.inf

    @pytest.mark.parametrize(
        "vxx0, vpp0, m, product",
        [(0.9, math.inf, 1.3, "0.0 * inf"), (0.5, 0.5, math.inf, "inf * 0.0")],
    )
    def test_zero_times_infinity_is_named(self, vxx0, vpp0, m, product):
        message = re.escape(f"t_M = (m/vpp0)*sqrt(4*vxx0*vpp0 - hbar^2) is {product}")
        with pytest.raises(ValueError, match=message):
            contraction_time_free(vxx0, vpp0, m, 1.0)

    @pytest.mark.parametrize(
        "vxx0, vpp0, m, product",
        [
            (1.0, 1.0, math.inf, "inf * 1.7320508075688772"),  # m/vpp0 overflows
            (1e300, 1e300, 1.0, "1e-300 * inf"),  # 4·vxx0·vpp0, so the root, overflows
            (1e10, 1e-10, 1e308, "inf * 1.7320508075688772"),
            (1e300, 1.0, 1e300, "1e+300 * 2e+150"),  # the product alone overflows
        ],
    )
    def test_an_overflowing_time_is_named(self, vxx0, vpp0, m, product):
        with pytest.raises(ValueError) as info:
            contraction_time_free(vxx0, vpp0, m, 1.0)
        assert str(info.value) == (
            f"t_M = (m/vpp0)*sqrt(4*vxx0*vpp0 - hbar^2) is {product} = inf, not finite"
        )


@st.composite
def near_minimal_products(draw):
    """(vxx0, vpp0, ħ) with vxx0·vpp0 within ±1e−11 relative of ħ²/4."""
    hbar = 10.0 ** draw(st.floats(-100.0, 100.0))
    vxx0 = hbar * 10.0 ** draw(st.floats(-50.0, 50.0))
    vpp0 = hbar * hbar / (4.0 * vxx0) * (1.0 + draw(st.floats(-1e-11, 1e-11)))
    return vxx0, vpp0, hbar


class TestUncertaintyAllowance:
    """sqrt_uncertainty_excess accepts exactly the products validate_state
    accepts at vxp = 0: one rounding allowance for one uncertainty bound."""

    HALF = 0.5 * math.sqrt(1.0 - 2e-12)

    @settings(max_examples=300, deadline=None)
    @given(near_minimal_products())
    # ħ² dominates: a margin of −5e−13, inside validate_state's allowance,
    # was outside the quarter of it that sqrt_uncertainty_excess allowed.
    @example((HALF, HALF, 1.0))
    def test_accepts_what_validate_state_accepts(self, args):
        vxx0, vpp0, hbar = args
        try:
            sqrt_uncertainty_excess(vxx0, vpp0, hbar)
        except ValueError:
            returned = False
        else:
            returned = True
        assert returned == validate_state(GaussianState(vxx=vxx0, vpp=vpp0), PhysConfig(hbar)).ok


class TestOscillatorBounds:
    def test_quarter_period_swap(self):
        pair = oscillator_bounds_x(1.3, 0.7, math.pi / 2.0)
        assert pair.lower == pytest.approx(0.7, rel=1e-12)
        assert pair.upper == pytest.approx(0.7, rel=1e-12)

    def test_reference_point(self):
        pair = oscillator_bounds_x(1.0, 1.0, math.pi / 4.0)
        assert pair.lower == pytest.approx(1.0 - SQRT3 / 2.0, rel=1e-12)
        assert pair.upper == pytest.approx(1.0 + SQRT3 / 2.0, rel=1e-12)

    def test_phase_zero(self):
        pair = oscillator_bounds_x(0.6, 1.9, 0.0)
        assert pair.lower == pair.upper == 0.6

    def test_momentum_bounds_swap_roles(self):
        x_pair = oscillator_bounds_x(1.0, 2.0, 0.3)
        p_pair = oscillator_bounds_p(2.0, 1.0, 0.3)
        assert p_pair.lower == pytest.approx(x_pair.lower, rel=1e-12)
        assert p_pair.upper == pytest.approx(x_pair.upper, rel=1e-12)

    def test_dimensional_t0_and_half_period(self):
        pair0 = oscillator_bounds_dimensional(1.1, 0.9, 2.0, 3.0, 1.0, 0.0)
        assert pair0.lower == pair0.upper == 1.1
        t_half = math.pi / 3.0  # omega*t = pi
        pair = oscillator_bounds_dimensional(1.1, 0.9, 2.0, 3.0, 1.0, t_half)
        assert pair.lower == pytest.approx(1.1, rel=1e-10)
        assert pair.upper == pytest.approx(1.1, rel=1e-10)

    def test_free_mass_limit_quadratic_in_omega(self):
        # |bound(omega) - bound_free| should shrink like omega^2.
        free = free_mass_bounds(1.0, 1.0, 1.0, 1.0, 1.0)
        omegas = np.array([1e-2, 1e-3, 1e-4])
        lower_err = []
        upper_err = []
        for w in omegas:
            pair = oscillator_bounds_dimensional(1.0, 1.0, 1.0, w, 1.0, 1.0)
            lower_err.append(abs(pair.lower - free.lower))
            upper_err.append(abs(pair.upper - free.upper))
        for err in (lower_err, upper_err):
            slope = np.polyfit(np.log(omegas), np.log(err), 1)[0]
            assert slope == pytest.approx(2.0, abs=0.1)


class TestContractionPhaseOsc:
    def test_equal_variances_give_quarter_turn(self):
        assert contraction_phase_osc(1.0, 1.0) == pytest.approx(math.pi / 2.0, rel=1e-14)

    def test_reference_point(self):
        assert contraction_phase_osc(1.0, 2.0) == pytest.approx(
            math.atan2(math.sqrt(7.0), 1.0), rel=1e-14
        )

    def test_branch_stays_below_pi_when_vpp_smaller(self):
        phase = contraction_phase_osc(2.0, 0.4)
        assert math.pi / 2.0 < phase < math.pi

    def test_wide_momentum_variance_shrinks_horizon(self):
        # vpp >> vxx at fixed product: phase -> small positive.
        phase = contraction_phase_osc(0.01, 1000.0)
        assert 0.0 < phase < 0.01

    def test_minimal_product_zero_horizon(self):
        assert contraction_phase_osc(0.5, 0.5) == 0.0

    @pytest.mark.parametrize("vxx0, vpp0", [(1e200, 1e150), (math.inf, 1e110)])
    def test_an_overflowing_product_raises(self, vxx0, vpp0):
        # √(4·vxx0·vpp0 − 1) is inf, and atan2(inf, vpp0 − vxx0) is π/2 or 3π/4.
        # At (1e200, 1e150) the phase is π − 2e-25 (40-digit mpmath).
        with pytest.raises(ValueError) as info:
            contraction_phase_osc(vxx0, vpp0)
        assert str(info.value) == (
            f"sqrt(4*vxx0*vpp0 - 1) overflows: vxx0 = {vxx0}, vpp0 = {vpp0}"
        )


class TestSqlReference:
    def test_values(self):
        assert sql_reference(1.0, 1.0, 1.0) == 1.0
        assert sql_reference(1.0, 1.0, 0.0) == 0.0
        assert sql_reference(2.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_non_positive_mass_rejected(self):
        with pytest.raises(ValueError) as info:
            sql_reference(0.0, 1.0, 1.0)
        assert str(info.value) == "m must be > 0, got 0.0"


class TestSandwich:
    @given(
        variance_pairs(),
        st.floats(-0.999, 0.999),
        st.floats(0.0, 10.0),
        st.floats(0.1, 10.0),
    )
    def test_free_mass_sandwich(self, pair, corr, t, m):
        vxx, vpp = pair
        vxp = corr * math.sqrt(max(vxx * vpp - 0.25, 0.0))
        s = GaussianState(vxx=vxx, vpp=vpp, vxp=vxp)
        got = evolve(s, FreeMass(m=m), t).vxx
        b = free_mass_bounds(vxx, vpp, m, 1.0, t)
        assert b.lower - 1e-10 <= got <= b.upper + 1e-10

    @given(
        variance_pairs(),
        st.floats(-0.999, 0.999),
        st.floats(0.0, 10.0),
        st.floats(1e-3, 10.0),
    )
    def test_oscillator_sandwich(self, pair, corr, phase, omega):
        vxx, vpp = pair
        vxp = corr * math.sqrt(max(vxx * vpp - 0.25, 0.0))
        s = GaussianState(vxx=vxx, vpp=vpp, vxp=vxp)
        t = phase / omega
        got = evolve(s, DimensionlessOscillator(omega=omega), t).vxx
        b = oscillator_bounds_x(vxx, vpp, omega * t)
        assert b.lower - 1e-10 <= got <= b.upper + 1e-10

    @given(variance_pairs(), st.floats(-0.999, 0.999), st.floats(0.0, 10.0))
    def test_oscillator_momentum_sandwich(self, pair, corr, phase):
        vxx, vpp = pair
        vxp = corr * math.sqrt(max(vxx * vpp - 0.25, 0.0))
        s = GaussianState(vxx=vxx, vpp=vpp, vxp=vxp)
        got = evolve(s, DimensionlessOscillator(omega=1.0), phase).vpp
        b = oscillator_bounds_p(vxx, vpp, phase)
        assert b.lower - 1e-10 <= got <= b.upper + 1e-10

    @given(
        variance_pairs(),
        st.floats(-0.999, 0.999),
        st.floats(0.0, 10.0),
        st.floats(0.2, 5.0),
        st.floats(0.2, 5.0),
    )
    def test_dimensional_oscillator_sandwich(self, pair, corr, t, m, omega):
        vxx, vpp = pair
        vxp = corr * math.sqrt(max(vxx * vpp - 0.25, 0.0))
        s = GaussianState(vxx=vxx, vpp=vpp, vxp=vxp)
        got = evolve(s, Oscillator(m=m, omega=omega), t).vxx
        b = oscillator_bounds_dimensional(vxx, vpp, m, omega, 1.0, t)
        assert b.lower - 1e-9 <= got <= b.upper + 1e-9


class TestSaturation:
    def test_extremal_states_track_envelopes(self):
        vxx, vpp, m, hbar = 1.0, 1.0, 1.0, 1.0
        t_m = contraction_time_free(vxx, vpp, m, hbar)
        model = FreeMass(m=m)
        for sign, side in ((1, "lower"), (-1, "upper")):
            state = gaussian_from_extremal(
                ExtremalSpec.from_variances(vxx, vpp, hbar, sign), hbar=hbar
            )
            for t in np.linspace(0.0, 3.0 * t_m, 50):
                got = evolve(state, model, float(t)).vxx
                want = getattr(free_mass_bounds(vxx, vpp, m, hbar, float(t)), side)
                assert got == pytest.approx(want, rel=1e-9)


class TestSqlViolation:
    def test_lower_bound_far_below_sql_line(self):
        # 4*vxx*vpp/hbar^2 = 1e4; pick t so (t/m)*vpp = sigma_x*sigma_p.
        vxx = vpp = 50.0
        m = hbar = 1.0
        sx, sp = math.sqrt(vxx), math.sqrt(vpp)
        t = m * sx * sp / vpp
        lower = free_mass_bounds(vxx, vpp, m, hbar, t).lower
        sql = sql_reference(m, hbar, t)
        assert lower < 0.01 * sql
        asymptote = t * hbar**2 / (4.0 * m * sx * sp)
        assert lower == pytest.approx(asymptote, rel=0.1)


def _loop_table(system, m, omega, hbar, vxx0, vpp0, t_max, steps):
    """`quvar bounds` stdout as the per-row loop wrote it: scalar arithmetic,
    min/max and one f-string per row, joined in memory."""
    hbar = 1.0 if system == "osc-dimless" else hbar
    mw = m * omega if system == "osc" else 1.0
    s = math.sqrt(max(4.0 * vxx0 * vpp0 - hbar * hbar, 0.0))
    floor = hbar * hbar / (4.0 * vpp0) if system == "free" else 0.0
    lines = ["t,lower,upper,sql_line"]
    for j in range(steps + 1):
        t = j * t_max / steps
        if system == "free":
            u = t / m
            cxx, cpp, cxp = 1.0, u * u, u
        else:
            th = omega * t
            cxx = math.cos(th) ** 2
            cpp = math.sin(th) ** 2 / mw**2
            cxp = math.sin(2.0 * th) / (2.0 * mw)
        center = cxx * vxx0 + cpp * vpp0
        half = abs(cxp) * s
        upper = center + half
        lower = min(max(center - half, floor), upper)
        sql = f"{hbar * t / m:.17g}" if system == "free" else ""
        lines.append(f"{t:.17g},{lower:.17g},{upper:.17g},{sql}")
    return "\n".join(lines) + "\n"


def _bounds_argv(system, m, omega, hbar, vxx0, vpp0, t_max, steps):
    opts = dict(m=m, omega=omega, hbar=hbar, vxx0=vxx0, vpp0=vpp0, t_max=t_max)
    argv = ["bounds", f"--system={system}", f"--steps={steps}"]
    return argv + [f"--{k.replace('_', '-')}={v!r}" for k, v in opts.items()]


TABLE_SYSTEMS = [
    ("free", 1.7, 1.0, 0.8),
    ("osc", 1.3, 0.9, 0.7),
    ("osc-dimless", 1.0, 1.9, 1.0),
]


class TestEnvelopeTableBitIdentity:
    """`quvar bounds` stdout equals the per-row scalar loop's, byte for byte."""

    @pytest.mark.parametrize("steps", [1, 4095, 4096, 4097, 10_000])
    @pytest.mark.parametrize("minimal", [False, True], ids=["mixed-product", "minimal"])
    @pytest.mark.parametrize("system, m, omega, hbar", TABLE_SYSTEMS)
    def test_table_equals_the_scalar_loop(self, capsys, system, m, omega, hbar, minimal, steps):
        h = 1.0 if system == "osc-dimless" else hbar
        vxx0 = 0.37
        vpp0 = h * h / (4.0 * vxx0) if minimal else 2.3
        args = (system, m, omega, hbar, vxx0, vpp0, 7.5, steps)
        assert main(_bounds_argv(*args)) == 0
        assert capsys.readouterr().out == _loop_table(*args)

    @settings(max_examples=100)
    @given(
        system=st.sampled_from(["free", "osc", "osc-dimless"]),
        m=st.floats(0.01, 100.0),
        omega=st.floats(0.0, 100.0),
        hbar=st.floats(0.01, 10.0),
        vxx0=st.floats(1e-3, 1e3),
        excess=st.one_of(st.just(1.0), st.floats(1.0, 1e3)),
        t_max=st.floats(1e-3, 1e3),
        steps=st.integers(1, 300),
    )
    def test_random_tables_equal_the_scalar_loop(
        self, system, m, omega, hbar, vxx0, excess, t_max, steps
    ):
        if system == "osc":
            omega = max(omega, 0.01)
        h = 1.0 if system == "osc-dimless" else hbar
        vpp0 = h * h / (4.0 * vxx0) * excess
        args = (system, m, omega, hbar, vxx0, vpp0, t_max, steps)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(_bounds_argv(*args)) == 0
        assert out.getvalue() == _loop_table(*args)

    @pytest.mark.parametrize("system, m, omega, hbar", TABLE_SYSTEMS)
    def test_output_file_bytes_equal_stdout(self, capsys, tmp_path, system, m, omega, hbar):
        argv = _bounds_argv(system, m, omega, hbar, 0.6, 0.9, 3.0, 5000)
        assert main(argv) == 0
        out = capsys.readouterr().out
        path = tmp_path / "table.csv"
        assert main(argv + ["--output", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == out.encode()

    @pytest.mark.parametrize("steps", [1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("system, m, omega, hbar", TABLE_SYSTEMS)
    def test_tables_ending_at_a_block_edge_equal_the_scalar_loop(
        self, capsys, system, m, omega, hbar, steps
    ):
        # steps + 1 rows: the last 1024-row block holds 1024, 1, 2 or 2 rows.
        args = (system, m, omega, hbar, 0.37, 2.3, 7.5, steps)
        assert main(_bounds_argv(*args)) == 0
        assert capsys.readouterr().out == _loop_table(*args)

    @pytest.mark.parametrize("t_max, steps, paths", [
        # Every t below 1e-4 prints with an exponent: every block is left to %.
        (1e-6, 2000, {None}),
        # t < 1e-4 in the first block only: % there, quvar._g17 in the others.
        (3e-3, 10_000, {None, str}),
    ], ids=["percent", "mixed"])
    @pytest.mark.parametrize("system, m, omega, hbar", TABLE_SYSTEMS)
    def test_blocks_left_to_the_percent_operator_equal_the_scalar_loop(
        self, capsys, monkeypatch, system, m, omega, hbar, t_max, steps, paths
    ):
        seen = set()
        rows = _g17.rows

        def recorded(table, end):
            text = rows(table, end)
            seen.add(text if text is None else str)
            return text

        monkeypatch.setattr(_g17, "rows", recorded)
        args = (system, m, omega, hbar, 0.37, 2.3, t_max, steps)
        assert main(_bounds_argv(*args)) == 0
        assert capsys.readouterr().out == _loop_table(*args)
        assert seen == paths

    @pytest.mark.parametrize("system", ["free", "osc", "osc-dimless"])
    def test_table_peak_memory_holds_no_full_length_temporary(self, tmp_path, system):
        # tracemalloc peak of a 10**5-row table written to a file, measured on
        # Python 3.11.7 / numpy 2.4.6: 6.64 (free), 7.00 (osc) and 7.01 MiB
        # (osc-dimless) with one envelope() over every row and the table
        # stacked whole; 3.67, 2.64 and 2.65 MiB with every 1024-row block
        # held until the write; 1.98, 1.55 and 1.56 MiB with each block
        # computed where it is formatted.
        path = tmp_path / f"{system}.csv"
        tracemalloc.start()
        try:
            code = main(["bounds", f"--system={system}", "--steps=100000", f"--output={path}"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 2.5 * 2**20, peak / 2**20


@pytest.mark.parametrize("argv, imported", [
    ([], False),
    (["extremal"], False),
    (["bounds", "--steps", "2000"], True),
])
def test_only_quvar_bounds_imports_the_table_kernel(argv, imported):
    # quvar._g17 is imported inside _cmd_bounds: the other commands, and the
    # --help runs that time quvar's start-up, never compile it.
    script = ("import contextlib, io, sys\nimport quvar.cli\n"
              "if sys.argv[1:]:\n    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        quvar.cli.main(sys.argv[1:])\n"
              "print('quvar._g17' in sys.modules)")
    src = str(Path(quvar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          env=env, capture_output=True, text=True)
    assert (proc.stdout, proc.stderr) == (f"{imported}\n", "")


class TestEnvelopeArrayBody:
    MODELS = [FreeMass(m=1.7), Oscillator(m=1.3, omega=0.9), DimensionlessOscillator(omega=1.9)]

    @pytest.mark.parametrize("model", MODELS)
    def test_array_rows_equal_scalar_calls(self, model):
        t = np.linspace(0.0, 9.0, 101)
        pair = envelope(model, 0.37, 2.3, t, 0.8)
        assert isinstance(pair.lower, np.ndarray) and np.array_equal(pair.t, t)
        for i, ti in enumerate(t.tolist()):
            one = envelope(model, 0.37, 2.3, ti, 0.8)
            assert type(one.lower) is float and type(one.upper) is float and one.t == ti
            assert (one.lower, one.upper) == (pair.lower[i], pair.upper[i])

    def test_scalar_call_returns_the_time_as_given(self):
        assert envelope(FreeMass(m=1.0), 1.0, 1.0, 2, 1.0).t == 2

    def test_first_bad_time_is_named(self):
        with pytest.raises(ValueError, match=r"t must be >= 0 and finite, got -1\.5"):
            envelope(FreeMass(m=1.0), 1.0, 1.0, np.array([0.0, 1.0, -1.5, math.nan]), 1.0)
        with pytest.raises(ValueError, match=r"got nan"):
            envelope(FreeMass(m=1.0), 1.0, 1.0, np.array([0.0, math.nan, -1.0]), 1.0)

    def test_non_finite_row_names_its_time(self):
        # (t/m)² overflows from t = 1e60 on: lower would be nan, upper inf.
        t = np.array([0.0, 1e40, 1e60, 1e70])
        with pytest.raises(ValueError, match=r"envelope is not finite at t = 1e\+60"):
            envelope(FreeMass(m=1e-100), 1.0, 1.0, t, 1.0)
        with pytest.raises(ValueError, match="not finite"):
            free_mass_bounds(1.0, 1.0, 1e-200, 1.0, 1e200)

    def test_non_finite_sql_line_names_its_time(self):
        with pytest.raises(ValueError, match=r"sql line is not finite at t = 2"):
            sql_reference(1e-300, 1e10, np.array([0.0, 1e-300, 2.0]))
