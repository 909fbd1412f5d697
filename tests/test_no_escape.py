"""No input escapes envelope(), verify_bounds_oracle(), contraction_time_free()
or ExtremalSpec.from_variances() called directly.

Each call returns finite numbers or raises a typed error, a ValueError
(GridError and the state errors among them) or an ArithmeticError, with
every RuntimeWarning made an error: the contraction time and the extremal
width are finite too, or their overflow is named. The CLI's own no-escape
properties live in test_cli.py; these hold the library entry points behind
it. Grids stay at n <= 1024, so every oracle run takes the serial path.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quvar import (
    DimensionlessOscillator,
    ExtremalSpec,
    FreeMass,
    Oscillator,
    contraction_time_free,
    gaussian_from_extremal,
    verify_bounds_oracle,
)
from quvar.bounds import envelope

VALUES = st.one_of(
    st.floats(min_value=0.05, max_value=20.0),
    st.sampled_from([0.0, -1.0, 1e-300, 1e300, -1e300, 1.7976931348623157e308, 5e-324,
                     math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)
SYSTEMS = st.sampled_from(["free", "osc", "osc-dimless"])
USABLE = dict(m=1.3, omega=0.7, hbar=0.8, vxx0=0.9, vpp0=1.1, mean_x=0.4, mean_p=-0.3,
              times=[0.5, 1.5], domain_sigmas=40.0, tolerance=1e-8)


def inputs(*names):
    """USABLE's values of names with up to three of them drawn from VALUES,
    so that many draws get past the argument checks to the grid."""
    value = {"times": st.lists(VALUES, min_size=1, max_size=3)}
    return st.fixed_dictionaries(
        {}, optional={name: value.get(name, VALUES) for name in names}
    ).filter(lambda d: len(d) <= 3).map(lambda d: {name: d.get(name, USABLE[name]) for name in names})


def model_of(system, m, omega):
    if system == "free":
        return FreeMass(m=m)
    if system == "osc":
        return Oscillator(m=m, omega=omega)
    return DimensionlessOscillator(omega=omega)


def outcome(call):
    """call()'s result, or None when it raised a typed error; warnings raise."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call()
        except (ValueError, ArithmeticError):
            return None


@settings(max_examples=300)
@given(system=SYSTEMS, args=inputs("m", "omega", "hbar", "vxx0", "vpp0", "times"), scalar=st.booleans())
def test_envelope_returns_finite_ordered_sides_or_a_typed_error(system, args, scalar):
    t = args["times"][0] if scalar else np.array(args["times"])
    model = lambda: model_of(system, args["m"], args["omega"])  # noqa: E731
    pair = outcome(lambda: envelope(model(), args["vxx0"], args["vpp0"], t, args["hbar"]))
    if pair is None:
        return
    lower, upper = np.asarray(pair.lower), np.asarray(pair.upper)
    assert lower.shape == upper.shape == np.shape(t)
    assert np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))
    assert np.all(lower <= upper)


def _args(**kw):
    return {**USABLE, **kw}


# 4·vxx0·vpp0 and ħ² both overflow, where inf − inf made t_M and the width NaN.
DOUBLE_OVERFLOW = _args(vxx0=1e200, vpp0=1e200, hbar=1e200)


@example(args=DOUBLE_OVERFLOW)
@example(args=_args(m=math.inf))  # m/vpp0 overflows: t_M was inf
@example(args=_args(vxx0=1e300, vpp0=1e300, hbar=1.0))  # so does the root
@settings(max_examples=300)
@given(args=inputs("m", "hbar", "vxx0", "vpp0"))
def test_contraction_time_is_a_non_negative_number_or_a_typed_error(args):
    t = outcome(lambda: contraction_time_free(args["vxx0"], args["vpp0"], args["m"], args["hbar"]))
    assert t is None or 0 <= t < math.inf, t  # NaN fails the comparison


@example(sign=1, args=DOUBLE_OVERFLOW)
# Re w = ħ/(2·vxx0) overflows to inf, where the state's vpp was inf/inf = NaN.
@example(sign=1, args=_args(vxx0=5e-324, vpp0=math.inf))
# Im w = √(4·vxx0·vpp0 − ħ²)/(2·vxx0) overflows, where the width was 5e-301-infj.
@example(sign=-1, args=_args(vxx0=1e300, vpp0=1e300, hbar=1.0))
@settings(max_examples=300)
@given(sign=st.sampled_from([1, -1]), args=inputs("hbar", "vxx0", "vpp0"))
def test_extremal_width_and_state_have_no_nan_or_a_typed_error(sign, args):
    def build():
        spec = ExtremalSpec.from_variances(args["vxx0"], args["vpp0"], args["hbar"], sign)
        return spec, gaussian_from_extremal(spec, hbar=args["hbar"])

    built = outcome(build)
    if built is None:
        return
    spec, state = built
    assert math.isfinite(spec.width.real) and math.isfinite(spec.width.imag), spec
    values = [state.vxx, state.vpp, state.vxp]
    assert not any(math.isnan(v) for v in values), (spec, state)


# The extreme means and variances probed by hand before this property existed.
@example(system="free", sign=1, n=256, as_state=False, args=_args(vxx0=1e-300, vpp0=1e300))
@example(system="osc", sign=-1, n=256, as_state=True, args=_args(mean_x=1e300, mean_p=-1e300))
@example(system="osc-dimless", sign=1, n=1024, as_state=False,
         args=_args(omega=1e300, vxx0=1e150, vpp0=1e150, times=[0.3, 1e10]))
@example(system="free", sign=1, n=1024, as_state=True,
         args=_args(mean_p=1e-300, times=[5e-324], domain_sigmas=1e300, tolerance=0.0))
@settings(max_examples=300)
@given(
    system=SYSTEMS,
    sign=st.sampled_from([1, -1]),
    n=st.sampled_from([64, 256, 1024]),
    as_state=st.booleans(),
    args=inputs("m", "omega", "hbar", "vxx0", "vpp0", "mean_x", "mean_p", "times",
                "domain_sigmas", "tolerance"),
)
def test_oracle_returns_a_finite_report_or_a_typed_error(system, sign, n, as_state, args):
    hbar = 1.0 if system == "osc-dimless" else args["hbar"]  # its ħ is 1 whatever --hbar says
    means = args["mean_x"], args["mean_p"]
    grid = dict(hbar=args["hbar"], n=n, domain_sigmas=args["domain_sigmas"],
                tolerance=args["tolerance"])

    def run():
        model = model_of(system, args["m"], args["omega"])
        spec = ExtremalSpec.from_variances(args["vxx0"], args["vpp0"], hbar, sign)
        if as_state:  # the same pure state, given by its moments
            return verify_bounds_oracle(gaussian_from_extremal(spec, *means, hbar), model,
                                        args["times"], **grid)
        return verify_bounds_oracle(spec, model, args["times"], *means, **grid)

    report = outcome(run)
    if report is None:
        return
    assert [row.t for row in report.rows] == [float(t) for t in args["times"]]
    for row in report.rows:
        assert all(math.isfinite(v) for v in (row.t, row.moment_dev, row.envelope_dev)), row
    assert math.isfinite(report.max_moment_dev) and math.isfinite(report.max_envelope_dev)
    assert report.ok == (max(report.max_moment_dev, report.max_envelope_dev) <= args["tolerance"])
