import math
import os
import sys
import threading

import numpy as np
import pytest

from quvar import (
    TRANSFER_KTAU,
    AliasingError,
    DimensionlessOscillator,
    ExtremalSpec,
    FreeMass,
    GaussianState,
    Grid,
    GridError,
    Oscillator,
    PhysConfig,
    StateValidationError,
    contraction_phase_osc,
    evolve,
    flow_map,
    free_mass_bounds,
    gaussian_from_extremal,
    moments,
    propagate_free,
    propagate_osc_exact,
    quadrature_norm,
    sample_extremal,
    sample_gaussian,
    verify_bounds_oracle,
    wavefn_csv,
)
from quvar import _fanout, gridsim
from quvar.bounds import envelope
from quvar.gridsim import OracleRow, WaveFn, _gaussian_amps, joint_moments, sample_joint, slice_at_y
from split_step import propagate_osc

SQRT3 = math.sqrt(3.0)

CONTRACTIVE = ExtremalSpec.from_variances(1.0, 1.0, 1.0, 1)
MINIMAL_SPREADING = ExtremalSpec.from_variances(0.25, 1.0, 1.0, 1)  # width = 2, real


def desk_grid(half=40.0, n=2**14, center=0.0):
    return Grid.centered(center, half, n)


class TestGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            Grid(-1.0, 1.0, 1000)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError, match="x_max"):
            Grid(1.0, 1.0, 64)

    @pytest.mark.parametrize("bounds", [(-math.inf, 0.0), (0.0, math.nan), (-1e308, 1e308)])
    def test_rejects_an_interval_of_no_finite_length(self, bounds):
        with pytest.raises(ValueError, match="> 0 and finite"):
            Grid(*bounds, 64)

    def test_momentum_convention(self):
        g = Grid(-5.0, 5.0, 8)
        p = g.momenta(hbar=2.0)
        # p_j = 2*pi*hbar*j/L in FFT order.
        want = 2.0 * math.pi * 2.0 / 10.0 * np.array([0, 1, 2, 3, -4, -3, -2, -1])
        np.testing.assert_allclose(p, want, rtol=1e-15)

    def test_points_exclude_wrap(self):
        g = Grid(0.0, 8.0, 8)
        np.testing.assert_allclose(g.points(), np.arange(8.0))


class TestSampling:
    def test_real_width_gives_real_positive_envelope(self):
        psi = sample_gaussian(2.0 + 0.0j, 0.0, 0.0, desk_grid(), 1.0)
        assert np.max(np.abs(psi.amps.imag)) == 0.0
        # strictly positive where it has not underflowed, maximal at center
        assert np.all(psi.amps.real >= 0.0)
        assert psi.amps.real[psi.grid.n // 2] > 0.0

    def test_norm_at_desk_resolution(self):
        psi = sample_extremal(CONTRACTIVE, 0.0, 0.0, desk_grid(), 1.0)
        assert abs(quadrature_norm(psi) - 1.0) <= 1e-12

    def test_moments_match_construction(self):
        want = gaussian_from_extremal(CONTRACTIVE, mean_x=0.7, mean_p=-0.4)
        psi = sample_extremal(CONTRACTIVE, 0.7, -0.4, desk_grid(), 1.0)
        got = moments(psi)
        assert got.mean_x == pytest.approx(0.7, abs=1e-8)
        assert got.mean_p == pytest.approx(-0.4, abs=1e-8)
        assert got.vxx == pytest.approx(want.vxx, abs=1e-8)
        assert got.vpp == pytest.approx(want.vpp, abs=1e-8)
        assert got.vxp == pytest.approx(want.vxp, abs=1e-8)

    def test_narrow_grid_rejected(self):
        with pytest.raises(GridError, match="cover"):
            sample_extremal(CONTRACTIVE, 0.0, 0.0, Grid.centered(0.0, 4.0, 2**10), 1.0)

    def test_coarse_grid_rejected(self):
        with pytest.raises(GridError, match="norm|represent"):
            sample_extremal(CONTRACTIVE, 0.0, 0.0, Grid.centered(0.0, 40.0, 2**6), 1.0)

    def test_a_grid_past_both_guards_can_still_miss_the_norm(self):
        # 16 points over ±8.3692 cover ±8σ (σ = 1) and resolve 6σP, yet the
        # trapezoid rule misses the norm by 2.94e-08 > 1e-8.
        with pytest.raises(GridError) as info:
            sample_gaussian(0.5 + 0.0j, 0.0, 0.0, Grid.centered(0.0, 8.3692, 16))
        assert type(info.value) is GridError
        assert str(info.value) == "sampled norm deviates from 1 by 2.94e-08; refine the grid"

    def test_non_positive_real_width_rejected(self):
        with pytest.raises(ValueError) as info:
            sample_gaussian(-1.0 + 0.0j, 0.0, 0.0, desk_grid(), 1.0)
        assert str(info.value) == "Re(width) must be > 0, got (-1+0j)"


class TestMoments:
    def test_real_wavefunction_has_zero_vxp(self):
        psi = sample_gaussian(2.0 + 0.0j, 0.0, 0.0, desk_grid(), 1.0)
        assert abs(moments(psi).vxp) <= 1e-10

    def test_contractive_vxp(self):
        psi = sample_extremal(CONTRACTIVE, 0.0, 0.0, desk_grid(), 1.0)
        assert moments(psi).vxp == pytest.approx(-SQRT3 / 2.0, abs=1e-8)

    def test_momentum_translation_covariance(self):
        base = moments(sample_gaussian(1.0 + 0.5j, 0.0, 0.0, desk_grid(), 1.0))
        delta = 1.7
        shifted = moments(sample_gaussian(1.0 + 0.5j, 0.0, delta, desk_grid(), 1.0))
        assert shifted.mean_p - base.mean_p == pytest.approx(delta, abs=1e-10)

    def test_norm_check_raises(self):
        psi = sample_gaussian(2.0 + 0.0j, 0.0, 0.0, desk_grid(), 1.0)
        bad = type(psi)(grid=psi.grid, amps=psi.amps * 1.001, hbar=psi.hbar)
        with pytest.raises(GridError, match="norm"):
            moments(bad)


NORM_DRIFT = (
    "quadrature norm deviates from 1 by 0.21: psi is not normalized or its density "
    "reached the domain boundary"
)


def drifting(core):
    """core with its result scaled by 1.1: the norm drifts by 0.21. Neither
    real core drifts (both are unitary on the grid), so this stands in."""

    def scaled(*args):
        out = core(*args)
        return WaveFn(grid=out.grid, amps=out.amps * 1.1, hbar=out.hbar)

    return scaled


class TestNormCheck:
    @pytest.mark.parametrize(
        "core, run",
        [
            ("_free", lambda psi: propagate_free(psi, 1.0, 0.5)),
            ("_exact", lambda psi: propagate_osc_exact(psi, 1.0, 1.0, 0.5)),
            ("_free", lambda psi: verify_bounds_oracle(CONTRACTIVE, FreeMass(1.0), [0.5], n=2**10)),
            ("_exact", lambda psi: verify_bounds_oracle(
                CONTRACTIVE, Oscillator(1.0, 1.0), [0.0, 0.5], n=2**10)),
        ],
    )
    def test_a_drifting_result_raises_the_one_norm_check(self, monkeypatch, core, run):
        monkeypatch.setattr(gridsim, core, drifting(getattr(gridsim, core)))
        psi = sample_extremal(CONTRACTIVE, 0.0, 0.0, desk_grid(n=2**10), 1.0)
        with pytest.raises(GridError) as info:
            run(psi)
        assert type(info.value) is AliasingError
        assert str(info.value) == NORM_DRIFT

    @pytest.mark.parametrize(
        "run",
        [
            lambda psi: propagate_free(psi, 1.0, 0.5),
            lambda psi: propagate_osc_exact(psi, 1.0, 1.0, 0.5),
        ],
    )
    def test_an_unnormalized_input_raises_the_same_check(self, run):
        psi = sample_extremal(CONTRACTIVE, 0.0, 0.0, desk_grid(n=2**10), 1.0)
        with pytest.raises(GridError) as info:
            run(WaveFn(grid=psi.grid, amps=psi.amps * 1.1, hbar=psi.hbar))
        assert type(info.value) is AliasingError
        assert str(info.value) == NORM_DRIFT

    def test_the_norm_is_checked_before_the_window(self, monkeypatch):
        # A result that both drifts and leaves the domain names the norm, on
        # the public propagator as in the oracle's rows.
        psi = sample_extremal(MINIMAL_SPREADING, 0.0, 0.0, Grid.centered(0.0, 4.05, 2**10), 1.0)
        monkeypatch.setattr(gridsim, "_free", drifting(gridsim._free))
        with pytest.raises(AliasingError) as info:
            propagate_free(psi, 1.0, 1.5)
        assert str(info.value) == NORM_DRIFT


class TestPropagateFree:
    def test_t0_is_identity(self):
        psi = sample_extremal(CONTRACTIVE, 0.3, 0.2, desk_grid(), 1.0)
        out = propagate_free(psi, 1.0, 0.0)
        np.testing.assert_allclose(out.amps, psi.amps, atol=1e-12)

    def test_minimal_gaussian_spreading_closed_form(self):
        # sigma^2(X(t)) = (1 + 4 t^2)/4 for the sampled alpha = 2 packet.
        psi = sample_extremal(MINIMAL_SPREADING, 0.0, 0.0, desk_grid(half=85.0), 1.0)
        for t in (0.5, 1.0, 2.0):
            got = moments(propagate_free(psi, 1.0, t)).vxx
            want = (1.0 + 4.0 * t * t) / 4.0
            assert got == pytest.approx(want, rel=1e-9)

    def test_contractive_state_tracks_lower_envelope(self):
        psi = sample_extremal(CONTRACTIVE, 0.0, 0.0, desk_grid(half=90.0), 1.0)
        for t in (0.5, SQRT3 / 2.0, 1.0, SQRT3):
            got = moments(propagate_free(psi, 1.0, t)).vxx
            want = free_mass_bounds(1.0, 1.0, 1.0, 1.0, t).lower
            assert got == pytest.approx(want, abs=1e-8)

    def test_norm_preserved(self):
        psi = sample_extremal(CONTRACTIVE, 0.0, 0.0, desk_grid(), 1.0)
        out = propagate_free(psi, 1.0, 1.3)
        assert abs(quadrature_norm(out) - 1.0) <= 1e-12

    def test_unresolved_momentum_rejected_at_sampling(self):
        # dx = 0.25 cannot represent mean_p = 50 at hbar = 1; the aliased
        # samples would look healthy afterwards, so the sampler must refuse.
        g = Grid.centered(0.0, 32.0, 2**8)
        with pytest.raises(AliasingError, match="represent"):
            sample_gaussian(1.0 + 0.0j, 0.0, 50.0, g, 1.0)

    def test_spreading_beyond_domain_raises(self):
        psi = sample_extremal(MINIMAL_SPREADING, 0.0, 0.0, Grid.centered(0.0, 4.05, 2**10), 1.0)
        with pytest.raises(AliasingError, match="domain"):
            propagate_free(psi, 1.0, 1.5)

    def test_unresolved_momentum_rejected_at_propagation(self):
        # sigma_x = 0.9 dx: sampled without the sampler's checks, the packet's
        # momentum support (6 sigma_P) is wider than the grid resolves.
        grid = Grid.centered(0.0, 8.0, 64)
        sigma_x = 0.9 * grid.dx
        amps = _gaussian_amps(grid.points(), complex(1.0 / (2.0 * sigma_x**2), 0.0), 0.0, 0.0, 1.0)
        with pytest.raises(AliasingError) as info:
            propagate_free(WaveFn(grid=grid, amps=amps, hbar=1.0), 1.0, 0.1)
        assert str(info.value) == (
            "dx = 0.25 does not resolve the momentum support (need dx < πħ/(|⟨P⟩| + 6σP) = 0.236)"
        )

    def test_non_positive_mass_rejected(self):
        psi = sample_extremal(CONTRACTIVE, 0.0, 0.0, desk_grid(n=2**10), 1.0)
        with pytest.raises(ValueError) as info:
            propagate_free(psi, 0.0, 1.0)
        assert str(info.value) == "m must be > 0, got 0.0"


class TestPropagateOsc:
    def test_omega_zero_matches_free(self):
        psi = sample_extremal(CONTRACTIVE, 0.1, -0.2, desk_grid(half=60.0), 1.0)
        free = propagate_free(psi, 1.0, 0.8)
        split = propagate_osc(psi, 1.0, 0.0, 0.8, n_steps=4)
        np.testing.assert_allclose(split.amps, free.amps, atol=1e-12)

    def test_contractive_matches_signed_branch_at_half_horizon(self):
        phase = contraction_phase_osc(1.0, 1.0) / 2.0  # pi/4
        psi = sample_extremal(CONTRACTIVE, 0.0, 0.0, desk_grid(half=30.0), 1.0)
        got = moments(propagate_osc_exact(psi, 1.0, 1.0, phase)).vxx
        s = math.sqrt(4.0 * 1.0 * 1.0 - 1.0)
        want = (
            math.cos(phase) ** 2 + math.sin(phase) ** 2 - 0.5 * math.sin(2.0 * phase) * s
        )
        assert got == pytest.approx(want, abs=1e-12)

    def test_full_period_returns_to_start(self):
        psi = sample_extremal(CONTRACTIVE, 0.4, 0.0, Grid.centered(0.4, 20.0, 2**12), 1.0)
        start = moments(psi)
        out = moments(propagate_osc_exact(psi, 1.0, 1.0, 2.0 * math.pi))
        for field in ("mean_x", "mean_p", "vxx", "vpp", "vxp"):
            assert getattr(out, field) == pytest.approx(getattr(start, field), abs=1e-12)

    def test_norm_preserved(self):
        psi = sample_extremal(CONTRACTIVE, 0.0, 0.0, desk_grid(half=30.0, n=2**12), 1.0)
        out = propagate_osc(psi, 1.0, 1.0, 1.0, n_steps=64)
        assert abs(quadrature_norm(out) - 1.0) <= 1e-12

    def test_second_order_convergence(self):
        psi = sample_extremal(CONTRACTIVE, 0.0, 0.0, Grid.centered(0.0, 25.0, 2**12), 1.0)
        exact = evolve(gaussian_from_extremal(CONTRACTIVE), DimensionlessOscillator(1.0), 1.0)

        def dev(n_steps):
            got = moments(propagate_osc(psi, 1.0, 1.0, 1.0, n_steps))
            return max(
                abs(got.vxx - exact.vxx), abs(got.vpp - exact.vpp), abs(got.vxp - exact.vxp)
            )

        errors = [dev(n) for n in (16, 32, 64)]
        assert errors[0] > errors[1] > errors[2]
        assert errors[0] / errors[1] >= 4.0
        assert errors[1] / errors[2] >= 4.0


class TestPropagateOscExact:
    MODEL = Oscillator(m=1.5, omega=0.7)
    HBAR = 0.8
    SPEC = ExtremalSpec.from_variances(0.8, 0.9, 0.8, 1)

    def _start(self, n=2**12):
        psi = sample_extremal(self.SPEC, 0.3, -0.2, Grid.centered(0.3, 30.0, n), self.HBAR)
        state = gaussian_from_extremal(self.SPEC, 0.3, -0.2, self.HBAR)
        return psi, state

    @pytest.mark.parametrize(
        "phase", [0.1, math.pi / 2.0, math.pi - 1e-3, math.pi, 2.0 * math.pi, 11.0, 1e3, -0.9]
    )
    def test_matches_closed_form_across_substep_boundaries(self, phase):
        psi, state = self._start()
        t = phase / self.MODEL.omega
        got = moments(propagate_osc_exact(psi, self.MODEL.m, self.MODEL.omega, t))
        want = evolve(state, self.MODEL, t, PhysConfig(self.HBAR))
        for field in ("mean_x", "mean_p", "vxx", "vpp", "vxp"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), abs=1e-12)

    def test_agrees_with_split_step(self):
        # Two grid routes, neither using the closed-form flow.
        psi, _ = self._start(n=2**10)
        exact = moments(propagate_osc_exact(psi, self.MODEL.m, self.MODEL.omega, 2.0))
        split = moments(propagate_osc(psi, self.MODEL.m, self.MODEL.omega, 2.0, n_steps=2048))
        for field in ("mean_x", "mean_p", "vxx", "vpp", "vxp"):
            assert getattr(split, field) == pytest.approx(getattr(exact, field), abs=1e-6)

    def test_norm_preserved(self):
        psi, _ = self._start()
        out = propagate_osc_exact(psi, self.MODEL.m, self.MODEL.omega, 7.0)
        assert abs(quadrature_norm(out) - 1.0) <= 1e-12

    def test_unresolved_chirped_intermediate_raises(self):
        # dx = 0.078 resolves the sampled state (|<P>| + 6 sigma_P = 6), but
        # the chirp shifts the momentum by up to m*omega*|<X>| = 30.
        psi = sample_extremal(CONTRACTIVE, 30.0, 0.0, desk_grid(n=2**10), 1.0)
        with pytest.raises(AliasingError, match="chirped"):
            propagate_osc_exact(psi, 1.0, 1.0, 0.5)
        finer = sample_extremal(CONTRACTIVE, 30.0, 0.0, desk_grid(n=2**11), 1.0)
        got = moments(propagate_osc_exact(finer, 1.0, 1.0, 0.5))
        assert got.mean_x == pytest.approx(30.0 * math.cos(0.5), abs=1e-10)

    @pytest.mark.parametrize("omega", [0.0, -1.0])
    def test_non_positive_omega_rejected(self, omega):
        psi = sample_extremal(CONTRACTIVE, 0.0, 0.0, desk_grid(n=2**10), 1.0)
        with pytest.raises(ValueError, match="omega"):
            propagate_osc_exact(psi, 1.0, omega, 1.0)


class TestVerifyBoundsOracle:
    def test_contractive_free_mass_case(self):
        report = verify_bounds_oracle(
            CONTRACTIVE, FreeMass(m=1.0), [0.5, SQRT3 / 2.0, 1.0, SQRT3]
        )
        assert report.ok
        assert report.max_moment_dev < 1e-8
        assert report.max_envelope_dev < 1e-8

    def test_expanding_state_saturates_upper(self):
        spec = ExtremalSpec.from_variances(1.0, 1.0, 1.0, -1)
        report = verify_bounds_oracle(spec, FreeMass(m=1.0), [0.5, 1.0])
        assert report.ok
        assert report.max_envelope_dev < 1e-8

    def test_t0_at_machine_precision(self):
        report = verify_bounds_oracle(CONTRACTIVE, FreeMass(m=1.0), [0.0])
        assert report.max_moment_dev < 1e-12

    def test_random_pure_states_respect_sandwich(self):
        rng = np.random.default_rng(7)
        model = FreeMass(m=1.0)
        for _ in range(5):
            width = complex(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0))
            state = GaussianState(
                vxx=1.0 / (2.0 * width.real),
                vpp=abs(width) ** 2 / (2.0 * width.real),
                vxp=-width.imag / (2.0 * width.real),
            )
            report = verify_bounds_oracle(state, model, [0.4, 1.1])
            assert report.ok
            for row, t in zip(report.rows, (0.4, 1.1)):
                b = free_mass_bounds(state.vxx, state.vpp, 1.0, 1.0, t)
                # oracle vxx = envelope_side +- envelope_dev; sandwich slack
                assert b.lower - 1e-8 <= row.envelope_dev + b.lower

    def test_dimensional_oscillator_path(self):
        spec = ExtremalSpec.from_variances(0.8, 0.9, 1.0, 1)
        report = verify_bounds_oracle(
            spec,
            Oscillator(m=1.5, omega=0.7),
            [0.6],
            n=2**12,
            domain_sigmas=15.0,
            tolerance=1e-6,
        )
        assert report.ok

    def test_mixed_state_rejected(self):
        mixed = GaussianState(vxx=1.0, vpp=1.0, vxp=0.0)  # product 1 > 1/4
        with pytest.raises(ValueError, match="pure"):
            verify_bounds_oracle(mixed, FreeMass(m=1.0), [0.5])

    def test_an_invalid_state_target_names_its_violations(self):
        # vxx·vpp − vxp² = 0.19 < ħ²/4: the target fails validation before
        # the saturation check, with validate_state's words and no prefix.
        invalid = GaussianState(vxx=1.0, vpp=1.0, vxp=0.9)
        with pytest.raises(StateValidationError) as info:
            verify_bounds_oracle(invalid, FreeMass(m=1.0), [0.5])
        assert str(info.value) == (
            "Schrodinger-Robertson violated: vxx*vpp - vxp^2 - hbar^2/4 = -0.06 (must be >= 0)"
        )


# (model, ħ passed, times); n = 1024 throughout.
ORACLE_CASES = [
    (FreeMass(m=1.7), 0.8, [0.5, 1.2, 2.5]),
    (Oscillator(m=1.5, omega=0.7), 0.8, [0.5, 2.0, 3.5, 4.4]),
    (DimensionlessOscillator(omega=1.3), 0.8, [0.0, 0.3, 1.5, 3.0]),
]


def _hand_oracle(spec, model, times, hbar, n):
    """verify_bounds_oracle's rows, spelled out as a loop of public calls."""
    hbar = model._hbar(hbar)
    state0 = gaussian_from_extremal(spec, 0.0, 0.0, hbar)
    lo, hi = math.inf, -math.inf
    for t in [0.0, *times]:
        m_t = float((flow_map(model, t) @ state0.mean)[0])
        sig = math.sqrt(envelope(model, state0.vxx, state0.vpp, t, hbar).upper)
        lo, hi = min(lo, m_t - 40.0 * sig), max(hi, m_t + 40.0 * sig)
    psi0 = sample_extremal(spec, 0.0, 0.0, Grid(x_min=lo, x_max=hi, n=n), hbar)
    rows = []
    for t in times:
        if isinstance(model, FreeMass):
            psi_t = propagate_free(psi0, model.m, t)
        elif isinstance(model, DimensionlessOscillator) and t == 0.0:
            psi_t = psi0
        else:
            m = 1.0 / model.omega if isinstance(model, DimensionlessOscillator) else model.m
            psi_t = propagate_osc_exact(psi0, m, model.omega, t)
        got = moments(psi_t)
        want = evolve(state0, model, t, PhysConfig(hbar))
        moment_dev = max(
            abs(got.mean_x - want.mean_x),
            abs(got.mean_p - want.mean_p),
            abs(got.vxx - want.vxx),
            abs(got.vpp - want.vpp),
            abs(got.vxp - want.vxp),
        )
        pair = envelope(model, state0.vxx, state0.vpp, t, hbar)
        env = pair.lower if spec.sign * model._x_row(t)[2] >= 0 else pair.upper
        rows.append(OracleRow(t=t, moment_dev=moment_dev, envelope_dev=abs(got.vxx - env)))
    return tuple(rows)


class TestOracleBitIdentity:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("model, hbar, times", ORACLE_CASES)
    def test_rows_equal_a_loop_of_public_calls(self, model, hbar, times, sign):
        spec = ExtremalSpec.from_variances(0.9, 1.1, model._hbar(hbar), sign)
        report = verify_bounds_oracle(spec, model, times, hbar=hbar, n=1024)
        assert report.rows == _hand_oracle(spec, model, times, hbar, 1024)

    @pytest.mark.parametrize("model, hbar, times", ORACLE_CASES)
    def test_one_moments_call_per_time_plus_one(self, monkeypatch, model, hbar, times):
        calls = []
        real = gridsim.moments

        def counting(psi):
            calls.append(psi)
            return real(psi)

        monkeypatch.setattr(gridsim, "moments", counting)
        spec = ExtremalSpec.from_variances(0.9, 1.1, model._hbar(hbar), 1)
        verify_bounds_oracle(spec, model, times, hbar=hbar, n=1024)
        assert len(calls) == len(times) + 1

    @pytest.mark.parametrize("model, hbar, times", ORACLE_CASES)
    def test_one_route_pick_before_the_rows(self, monkeypatch, model, hbar, times):
        calls = []
        real = gridsim._route

        def counting(model, t):
            calls.append(t)
            return real(model, t)

        monkeypatch.setattr(gridsim, "_route", counting)
        spec = ExtremalSpec.from_variances(0.9, 1.1, model._hbar(hbar), 1)
        verify_bounds_oracle(spec, model, times, hbar=hbar, n=1024)
        # One pick of ψ0's input check, then one per row's propagation.
        assert calls == [max(times), *times]

    @pytest.mark.parametrize("model, hbar, times", ORACLE_CASES)
    def test_one_envelope_call_per_run(self, monkeypatch, model, hbar, times):
        calls = []
        real = gridsim.envelope

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(gridsim, "envelope", counting)
        spec = ExtremalSpec.from_variances(0.9, 1.1, model._hbar(hbar), 1)
        verify_bounds_oracle(spec, model, times, hbar=hbar, n=1024)
        assert len(calls) == 1

    @pytest.mark.skipif(
        not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
        reason="the oracle fans out only where os.fork and os.sched_getaffinity exist",
    )
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_fanned_out_times_equal_the_serial_run(self, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        fanned = []
        real = _fanout._fanned
        monkeypatch.setattr(_fanout, "_fanned", lambda *args: fanned.append(args) or real(*args))
        runs = {}
        for points in (math.inf, 0):  # serial, then fanned out
            monkeypatch.setattr(gridsim, "_FANOUT_POINTS", points)
            for model, hbar, times in ORACLE_CASES:
                spec = ExtremalSpec.from_variances(0.9, 1.1, model._hbar(hbar), -1)
                report = verify_bounds_oracle(spec, model, times, hbar=hbar, n=1024)
                runs.setdefault(points, []).append(report.rows)
            # The free mass outgrows a 7σ domain at t = 4, item 5: a worker's.
            spec = ExtremalSpec.from_variances(1.0, 1.0, 1.0, -1)
            times = [0.2, 0.5, 1.0, 2.0, 0.1, 4.0, 0.3]
            with pytest.raises(AliasingError) as err:
                verify_bounds_oracle(spec, FreeMass(m=1.0), times, n=1024, domain_sigmas=7.0)
            runs[points].append(str(err.value))
        assert len(fanned) == len(ORACLE_CASES) + 1
        assert runs[0] == runs[math.inf]
        assert runs[0][-1].startswith("spreading exceeds domain: mean_x ± 8σ")

    def test_input_checks_run_only_where_a_propagator_runs(self):
        # At ⟨X⟩ = 30 the chirped intermediate outruns dx; t = 0 of the
        # dimensionless oscillator copies ψ0 and checks nothing.
        spec = ExtremalSpec.from_variances(0.9, 1.1, 1.0, 1)
        model = DimensionlessOscillator(omega=1.3)
        report = verify_bounds_oracle(spec, model, [0.0], mean_x=30.0, n=1024)
        assert [row.t for row in report.rows] == [0.0]
        with pytest.raises(AliasingError, match="chirped intermediate"):
            verify_bounds_oracle(spec, model, [0.0, 0.5], mean_x=30.0, n=1024)


class TestOracleArguments:
    """Bad numbers raise a ValueError that names them, before any grid work."""

    @pytest.fixture(autouse=True)
    def no_grid_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("grid work ran on a rejected input")

        for name in ("flow_map", "sample_extremal", "_propagate"):
            monkeypatch.setattr(gridsim, name, fail)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(tolerance=math.nan), "tolerance must be >= 0 and finite, got nan"),
            (dict(tolerance=-1.0), "tolerance must be >= 0 and finite, got -1.0"),
            (dict(tolerance=math.inf), "tolerance must be >= 0 and finite, got inf"),
            (dict(domain_sigmas=0.0), "domain_sigmas must be > 0 and finite, got 0.0"),
            (dict(domain_sigmas=-1.0), "domain_sigmas must be > 0 and finite, got -1.0"),
            (dict(domain_sigmas=math.nan), "domain_sigmas must be > 0 and finite, got nan"),
            (dict(mean_x=math.inf), "mean_x must be finite, got inf"),
            (dict(times=[0.5, math.inf]), "t must be >= 0 and finite, got inf"),
            (dict(times=[0.5, -1.0]), "t must be >= 0 and finite, got -1.0"),
            (dict(model=DimensionlessOscillator(omega=1e300), times=[0.5, 1e10]),
             "phase omega*t is not finite at t = 10000000000.0"),
        ],
    )
    def test_rejected_before_any_grid_work(self, kwargs, message):
        args = dict(target=CONTRACTIVE, model=FreeMass(m=1.0), times=[0.5]) | kwargs
        with pytest.raises(ValueError) as err:
            verify_bounds_oracle(**args)
        assert str(err.value) == message


class TestGridAxes:
    """The oracle's grid axes: built once per grid and ħ, shared read-only."""

    def test_built_once_read_only_and_bitwise_the_public_axes(self):
        grid = Grid.centered(0.3, 20.0, 2**10)
        x, p = gridsim._axes(grid, 0.8)
        assert x.tobytes() == grid.points().tobytes()
        assert p.tobytes() == grid.momenta(0.8).tobytes()
        assert not x.flags.writeable and not p.flags.writeable
        again = gridsim._axes(grid, 0.8)
        assert again[0] is x and again[1] is p
        assert grid.points() is not grid.points()  # the public methods stay fresh
        # Another ħ, or the same value as another type, builds its own pair.
        for hbar in (0.5, np.float32(0.5), 0.5):
            got = gridsim._axes(grid, hbar)[1]
            assert got.tobytes() == grid.momenta(hbar).tobytes()
        assert gridsim._axes(grid, 0.8)[1] is not p
        # The cache is not a field: equal grids stay equal and hash alike.
        fresh = Grid.centered(0.3, 20.0, 2**10)
        assert fresh == grid and hash(fresh) == hash(grid) and repr(fresh) == repr(grid)

    def test_threads_sharing_a_grid_get_their_own_hbars_momenta(self):
        grid = Grid.centered(0.0, 10.0, 2**6)
        want = {hbar: grid.momenta(hbar).tobytes() for hbar in (0.5, 2.0)}
        wrong = []

        def work(hbar):
            for _ in range(50000):
                if gridsim._axes(grid, hbar)[1].tobytes() != want[hbar]:
                    wrong.append(hbar)
                    return

        threads = [threading.Thread(target=work, args=(hbar,)) for hbar in (0.5, 2.0) * 2]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


def test_a_slice_of_zero_norm_is_rejected():
    grid = Grid.centered(0.0, 4.0, 8)
    with pytest.raises(ValueError) as info:
        slice_at_y(np.zeros((8, 8), dtype=complex), grid, grid, 3)
    assert str(info.value) == "slice at y index 3 has zero norm"


class TestWavefnCsv:
    def test_header_and_shape(self):
        psi = sample_extremal(CONTRACTIVE, 0.0, 0.0, Grid.centered(0.0, 40.0, 2**10), 1.0)
        text = wavefn_csv(psi)
        lines = text.strip().split("\n")
        assert lines[0] == "x,re,im,abs2"
        assert len(lines) == 1 + 2**10
        x, re, im, abs2 = (float(tok) for tok in lines[1].split(","))
        assert abs2 == pytest.approx(re * re + im * im)


def _ten_integral_moments(amps, grid_x, grid_y, hbar=1.0):
    """The earlier joint_moments body: ten hand-written 2-D integrals."""

    def integrate(f):
        return float(np.trapezoid(np.trapezoid(f, dx=grid_y.dx, axis=1), dx=grid_x.dx))

    x = grid_x.points()[:, None]
    y = grid_y.points()[None, :]
    dens = np.abs(amps) ** 2
    norm = integrate(dens)
    mx = integrate(x * dens) / norm
    my = integrate(y * dens) / norm
    dev_x, dev_y = x - mx, y - my
    px = grid_x.momenta(hbar)[:, None]
    py = grid_y.momenta(hbar)[None, :]
    px_amps = np.fft.ifft(px * np.fft.fft(amps, axis=0), axis=0)
    py_amps = np.fft.ifft(py * np.fft.fft(amps, axis=1), axis=1)
    conj = np.conj(amps)
    mpx = integrate(np.real(conj * px_amps)) / norm
    mpy = integrate(np.real(conj * py_amps)) / norm
    dpx_amps = px_amps - mpx * amps
    dpy_amps = py_amps - mpy * amps
    cov = np.zeros((4, 4))
    cov[0, 0] = integrate(dev_x**2 * dens) / norm
    cov[2, 2] = integrate(dev_y**2 * dens) / norm
    cov[0, 2] = integrate(dev_x * dev_y * dens) / norm
    cov[1, 1] = integrate(np.abs(dpx_amps) ** 2) / norm
    cov[3, 3] = integrate(np.abs(dpy_amps) ** 2) / norm
    cov[1, 3] = integrate(np.real(np.conj(dpx_amps) * dpy_amps)) / norm
    cov[0, 1] = integrate(np.real(conj * dev_x * dpx_amps)) / norm
    cov[0, 3] = integrate(np.real(conj * dev_x * dpy_amps)) / norm
    cov[1, 2] = integrate(np.real(conj * dev_y * dpx_amps)) / norm
    cov[2, 3] = integrate(np.real(conj * dev_y * dpy_amps)) / norm
    cov = cov + np.triu(cov, 1).T
    return np.array([mx, mpx, my, mpy]), cov, norm


class TestJointMoments:
    @pytest.mark.parametrize("ktau", [TRANSFER_KTAU, 0.3])
    def test_gram_matrix_matches_the_ten_integrals(self, ktau):
        system = ExtremalSpec.from_variances(1.2, 0.4, 0.8, 1)
        meter = ExtremalSpec.from_variances(0.6, 1.5, 0.8, 1)
        gx = Grid.centered(-0.4, 15.0, 256)
        gy = Grid.centered(-0.4, 15.0, 256)
        amps = sample_joint(system.width, (-0.4, 0.6), meter.width, ktau, gx, gy, 0.8, (0.1, -0.2))
        got, norm = joint_moments(amps, gx, gy, 0.8)
        mean, cov, want_norm = _ten_integral_moments(amps, gx, gy, 0.8)
        assert norm == pytest.approx(want_norm, abs=1e-15)
        np.testing.assert_allclose(got.mean, mean, rtol=0, atol=1e-15)
        np.testing.assert_allclose(got.cov, cov, rtol=0, atol=1e-15)
        assert np.array_equal(got.cov, got.cov.T)
