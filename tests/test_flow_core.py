"""Properties of the one quadratic-flow core shared by every model.

The envelopes of all three models come from one body, bounds.envelope, fed
by each model's x-row and effective ħ; the grid oracle picks the side of
that envelope the extremal state rides. These tests pin the identities the
core relies on.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quvar import (
    DimensionlessOscillator,
    ExtremalSpec,
    FreeMass,
    Moments,
    Oscillator,
    PhysConfig,
    evolve,
    gaussian_from_extremal,
    oscillator_bounds_p,
    oscillator_bounds_x,
    variance_x_closed_form,
    verify_bounds_oracle,
)
from quvar import gridsim
from quvar.bounds import envelope


@st.composite
def variance_pairs(draw):
    """(vxx, vpp) in quadrature units, minimal products (vxx·vpp = 1/4) included."""
    vxx = draw(st.floats(0.05, 50.0))
    excess = draw(st.one_of(st.just(1.0), st.floats(1.0, 400.0)))
    return vxx, excess * 0.25 / vxx


@given(variance_pairs(), st.floats(0.0, 50.0))
def test_p_envelope_is_x_envelope_with_variances_swapped(pair, phase):
    vxx, vpp = pair
    assert oscillator_bounds_p(vxx, vpp, phase) == oscillator_bounds_x(vpp, vxx, phase)


@given(variance_pairs(), st.floats(0.0, 10.0), st.floats(0.0, 20.0))
def test_dimensionless_oscillator_ignores_the_hbar_passed(pair, omega, t):
    vxx, vpp = pair
    model = DimensionlessOscillator(omega=omega)
    assert envelope(model, vxx, vpp, t, 7.0) == envelope(model, vxx, vpp, t, 1.0)
    state = gaussian_from_extremal(ExtremalSpec.from_variances(vxx, vpp), 0.3, -0.2)
    assert evolve(state, model, t, PhysConfig(7.0)) == evolve(state, model, t, PhysConfig(1.0))
    assert variance_x_closed_form(state, model, t, PhysConfig(7.0)) == variance_x_closed_form(
        state, model, t, PhysConfig(1.0)
    )


models = st.sampled_from(
    [FreeMass(m=1.7), Oscillator(m=1.5, omega=0.7), DimensionlessOscillator(omega=1.3)]
)


@given(
    models,
    st.sampled_from([1, -1]),
    st.floats(0.3, 3.0),
    st.floats(1.01, 40.0),
    # Phases ωt on both sides of π/2, where sin 2ωt and so cxp change sign.
    st.one_of(st.floats(0.05, 0.5 * math.pi - 0.05), st.floats(0.5 * math.pi + 0.05, 3.0)),
)
def test_oracle_extremal_variance_is_the_closed_form_variance(model, sign, vxx, excess, phase):
    hbar = model._hbar(0.8)
    vxx *= hbar
    vpp = excess * 0.25 * hbar * hbar / vxx
    spec = ExtremalSpec.from_variances(vxx, vpp, hbar, sign)
    state0 = gaussian_from_extremal(spec, 0.0, 0.0, hbar)
    t = phase / getattr(model, "omega", 1.0)
    config = PhysConfig(hbar)
    exact = dict(vars(evolve(state0, model, t, config)))
    exact["vxx"] = variance_x_closed_form(state0, model, t, config)
    # Stand the exact closed form in for the grid: envelope_dev is then the
    # gap between the oracle's extremal variance and the closed-form variance.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gridsim, "_propagate", lambda psi, model, t: psi)
        mp.setattr(gridsim, "moments", lambda psi: Moments(norm=1.0, **exact))
        report = verify_bounds_oracle(spec, model, [t], hbar=0.8, n=2**16)
    assert report.rows[0].envelope_dev <= 1e-12 * envelope(model, vxx, vpp, t, hbar).upper
