"""Two-sided envelopes on position/momentum variance under quadratic flows.

Each model's flow gives σ²(X(t)) = cxx·vxx0 + cpp·vpp0 + 2·cxp·vxp from its
x-row (see quvar.gaussian), and the Schrödinger-Robertson bound
|2·vxp| ≤ √(4·vxx0·vpp0 − ħ²) pins the cross term. One body, envelope(),
gives the state-independent envelopes of every model (thin wrappers below):

    cxx·vxx0 + cpp·vpp0 ∓ |cxp|·√(4·vxx0·vpp0 − ħ²)  ≤/≥  σ²(X(t)),

with (cxx, cpp, cxp) = (1, (t/m)², t/m) for the free mass.
The lower envelope dips below the heuristic ħt/m line (see sql_reference)
whenever the uncertainty product exceeds its minimum: contractive states
exist that track the lower envelope exactly (see quvar.extremal).

envelope() takes t as a 1-D array (a float t is the length-1 case) and
checks every t and every row first: a negative or non-finite t, or a row that
overflows to inf or NaN, raises ValueError naming the first such t. t ≥ 0
only; time reversal is out of scope (the flows in quvar.gaussian accept it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import SR_MARGIN_TOL, DimensionlessOscillator, FreeMass, Oscillator, SystemModel

__all__ = [
    "BoundPair",
    "free_mass_bounds",
    "free_mass_lower_alt_forms",
    "contraction_time_free",
    "oscillator_bounds_x",
    "oscillator_bounds_p",
    "oscillator_bounds_dimensional",
    "contraction_phase_osc",
    "sql_reference",
]


@dataclass(frozen=True)
class BoundPair:
    """Lower/upper variance envelopes at a time t (or phase ωt): floats, or arrays."""

    lower: float
    upper: float
    t: float


def sqrt_uncertainty_excess(vxx0: float, vpp0: float, hbar: float = 1.0) -> float:
    """√(4·vxx0·vpp0 − ħ²), the envelope half-width scale.

    The allowance is validate_state's at vxp = 0: a product with
    vxx0·vpp0 − ħ²/4 ≥ −SR_MARGIN_TOL·max(ħ², vxx0·vpp0), the same bits, is
    accepted and a negative radicand clamped to 0, so that exactly-saturating
    inputs built in floating point pass; a smaller product is an invalid
    uncertainty product and raises, as do a non-positive variance, a
    non-positive or NaN ħ, and 4·vxx0·vpp0 and ħ² that both overflow (their
    difference would be inf − inf = NaN).
    """
    if not vxx0 > 0 or not vpp0 > 0:
        raise ValueError(f"variances must be positive, got vxx0={vxx0}, vpp0={vpp0}")
    if not hbar > 0:
        raise ValueError(f"hbar must be > 0, got {hbar}")
    arg = 4.0 * vxx0 * vpp0 - hbar * hbar
    if math.isnan(arg):
        raise ValueError(
            f"4*vxx0*vpp0 and hbar^2 both overflow: vxx0 = {vxx0}, vpp0 = {vpp0}, hbar = {hbar}"
        )
    margin = vxx0 * vpp0 - 0.25 * (hbar * hbar)
    if margin < -SR_MARGIN_TOL * max(hbar * hbar, vxx0 * vpp0) or arg == -math.inf:
        # -inf: ħ² overflowed, and the allowance with it
        raise ValueError(
            f"uncertainty product below minimum: vxx0*vpp0 = {vxx0 * vpp0:.6g} "
            f"< hbar^2/4 = {0.25 * hbar * hbar:.6g}"
        )
    return math.sqrt(max(arg, 0.0))


def _check(ok: np.ndarray, t: np.ndarray, message: str) -> None:
    if not ok.all():  # name the first failing t
        raise ValueError(message.format(t[~ok][0]))


def _require_time(t: float | np.ndarray) -> None:
    ts = np.atleast_1d(t)
    # Rejects negative, NaN and infinite t alike.
    _check((0 <= ts) & (ts < math.inf), ts, "t must be >= 0 and finite, got {}")


def envelope(
    model: SystemModel, vxx0: float, vpp0: float, t: float | np.ndarray, hbar: float
) -> BoundPair:
    """cxx·vxx0 + cpp·vpp0 ∓ |cxp|·√(4·vxx0·vpp0 − ħ²) with the model's x-row and ħ.

    Rounding dust below the model's analytic floor (ħ²/(4·vpp0) for the free
    mass, 0 for the oscillators) is snapped up to it, but never above the
    upper side (the floor itself can land one ulp high at minimal products).
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    _require_time(ts)
    hbar = model._hbar(hbar)
    s = sqrt_uncertainty_excess(vxx0, vpp0, hbar)
    floor = model._floor(vpp0, hbar)
    # Elementwise ops in the scalar order round as Python floats do, and
    # min(max(·, floor), upper) keeps Python's tie and NaN rules. A
    # non-finite row is reported below rather than warned about.
    with np.errstate(all="ignore"):
        cxx, cpp, cxp = model._x_row(ts)
        center = cxx * vxx0 + cpp * vpp0
        half = abs(cxp) * s
        upper = center + half
        lower = center - half
        lower = np.where(floor > lower, floor, lower)
        lower = np.where(upper < lower, upper, lower)
    _check(np.isfinite(lower) & np.isfinite(upper), ts, "envelope is not finite at t = {}")
    if np.ndim(t) == 0:
        return BoundPair(lower=float(lower[0]), upper=float(upper[0]), t=t)
    return BoundPair(lower=lower, upper=upper, t=ts)


def free_mass_bounds(vxx0: float, vpp0: float, m: float, hbar: float, t: float) -> BoundPair:
    """Envelopes on σ²(X(t)) for a free mass of mass m.

    lower/upper = vxx0 + (t/m)²·vpp0 ∓ (t/m)·√(4·vxx0·vpp0 − ħ²). The lower
    envelope never drops below its analytic floor ħ²/(4·vpp0), reached at
    t = t_M/2; the returned value is snapped to that floor when rounding
    would put it underneath.
    """
    return envelope(FreeMass(m), vxx0, vpp0, t, hbar)


def contraction_time_free(vxx0: float, vpp0: float, m: float, hbar: float) -> float:
    """Longest time the optimal contractive state keeps σ²(X(t)) ≤ σ²(X(0)).

    t_M = (m/vpp0)·√(4·vxx0·vpp0 − ħ²); zero at minimum uncertainty. On the
    lower envelope σ²(X(t_M)) returns exactly to vxx0, with the global
    minimum ħ²/(4·vpp0) reached at t_M/2. A t_M that is not finite raises
    ValueError: a product 0·inf, where m/vpp0 or the square root over- or
    underflows, or an overflow of either factor or of their product.
    """
    if not m > 0:
        raise ValueError(f"m must be > 0, got {m}")
    s = sqrt_uncertainty_excess(vxx0, vpp0, hbar)
    t_m = m / vpp0 * s
    if not math.isfinite(t_m):
        raise ValueError(
            f"t_M = (m/vpp0)*sqrt(4*vxx0*vpp0 - hbar^2) is {m / vpp0} * {s} = {t_m}, not finite"
        )
    return t_m


def free_mass_lower_alt_forms(
    vxx0: float, vpp0: float, m: float, hbar: float, t: float
) -> tuple[float, float]:
    """Two algebraically equivalent rewrites of the free-mass lower envelope.

    form1 = (ħ/(2σP))² + (σP/m)²·(t − t_M/2)²   (vertex form)
    form2 = (t/m)·(2σXσP − √(4σX²σP² − ħ²)) + (t·σP/m − σX)²

    Both equal free_mass_bounds(...).lower identically; they are exposed as
    redundant evaluation paths for cross-checking.
    """
    _require_time(t)
    sx = math.sqrt(vxx0)
    sp = math.sqrt(vpp0)
    s = sqrt_uncertainty_excess(vxx0, vpp0, hbar)
    t_m = contraction_time_free(vxx0, vpp0, m, hbar)
    form1 = (hbar / (2.0 * sp)) ** 2 + (sp / m) ** 2 * (t - 0.5 * t_m) ** 2
    u = t / m
    form2 = u * (2.0 * sx * sp - s) + (u * sp - sx) ** 2
    return form1, form2


def oscillator_bounds_x(vxx0: float, vpp0: float, phase: float) -> BoundPair:
    """Envelopes on σ²(x(t)) for the dimensionless oscillator, phase = ωt.

    cos²ωt·vxx0 + sin²ωt·vpp0 ∓ ½|sin 2ωt|·√(4·vxx0·vpp0 − 1). Variances are
    in quadrature units ([x, p] = i), so the product floor is 1/4.
    """
    return envelope(DimensionlessOscillator(omega=1.0), vxx0, vpp0, phase, 1.0)


def oscillator_bounds_p(vxx0: float, vpp0: float, phase: float) -> BoundPair:
    """Envelopes on σ²(p(t)) for the dimensionless oscillator: x rotated by π/2."""
    return oscillator_bounds_x(vpp0, vxx0, phase)


def oscillator_bounds_dimensional(
    vxx0: float, vpp0: float, m: float, omega: float, hbar: float, t: float
) -> BoundPair:
    """Envelopes on σ²(X(t)) for a dimensional oscillator.

    cos²ωt·vxx0 + sin²ωt/(mω)²·vpp0 ∓ |sin 2ωt|/(2mω)·√(4·vxx0·vpp0 − ħ²).
    As ω → 0 at fixed t this converges to free_mass_bounds with O(ω²) error.
    """
    return envelope(Oscillator(m, omega), vxx0, vpp0, t, hbar)


def contraction_phase_osc(vxx0: float, vpp0: float) -> float:
    """Phase ωt_M′ ∈ (0, π) below which the optimal oscillator contractive
    state keeps σ²(x(t)) ≤ σ²(x(0)).

    ωt_M′ = atan2(√(4·vxx0·vpp0 − 1), vpp0 − vxx0). The two-argument branch is
    deliberate: it stays in (0, π) also for vpp0 < vxx0, where the principal
    arctangent would go negative. A minimal uncertainty product admits no
    contraction and is reported as a zero horizon. A 4·vxx0·vpp0 that
    overflows raises ValueError: atan2(inf, ·) is π/2 or 3π/4, not the phase.
    """
    s = sqrt_uncertainty_excess(vxx0, vpp0, 1.0)
    if s == math.inf:
        raise ValueError(f"sqrt(4*vxx0*vpp0 - 1) overflows: vxx0 = {vxx0}, vpp0 = {vpp0}")
    if s == 0.0:
        return 0.0
    return math.atan2(s, vpp0 - vxx0)


def sql_reference(m: float, hbar: float, t: float | np.ndarray) -> float | np.ndarray:
    """The heuristic ħt/m line, for plotting comparison only; t as in envelope().

    This is NOT a valid bound: contractive states beat it. It is emitted
    alongside the true envelopes so plots can show the violation.
    """
    _require_time(t)
    if not m > 0:
        raise ValueError(f"m must be > 0, got {m}")
    with np.errstate(all="ignore"):
        line = hbar * t / m
    _check(np.isfinite(np.atleast_1d(line)), np.atleast_1d(t), "sql line is not finite at t = {}")
    return line
