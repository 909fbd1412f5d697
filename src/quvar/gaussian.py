"""Gaussian states on single-mode phase space and their exact moment flows.

A state is carried by its first moments (mean_x, mean_p) and the symmetric
second central moments (vxx, vxp, vpp), where vxp is the symmetrized
covariance ½⟨ΔXΔP + ΔPΔX⟩ (the anticommutator expectation equals 2·vxp).
Quadratic Hamiltonians generate linear Heisenberg flows, so the moments
evolve exactly through 2×2 symplectic matrices:

    mean → M·mean,   V → M·V·Mᵀ.

Two flow families cover the three models:

* shear, free mass H = P²/(2m):       M = [[1, t/m], [0, 1]]
* rotation by θ = ωt at scale s:      M = [[cos θ, sin θ/s], [−s·sin θ, cos θ]]
  for the oscillator H = P²/(2m) + ½mω²X² (s = mω) and the dimensionless
  oscillator in quadratures x = √(mω/ħ)·X, p = P/√(mħω) (s = 1, ħ = 1).

Each model class is the one source of its flow, effective ħ, envelope floor,
the (m, ω) of its Hamiltonian P²/(2m) + ½mω²X² (ω = 0 for the free mass), and
x-row coefficients (cxx, cpp, cxp) = (a², b², ab) of M's first row (a, b),
which give σ²(X(t)) = cxx·vxx + cpp·vpp + 2·cxp·vxp and the envelopes. The
x-row takes t as a 1-D array (a float is the length-1 case) and returns arrays.

All operations are pure functions; values are freely shareable across
threads. Negative t is allowed everywhere here (the flows form groups).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "SR_MARGIN_TOL",
    "StateValidationError",
    "PhysConfig",
    "FreeMass",
    "Oscillator",
    "DimensionlessOscillator",
    "SystemModel",
    "GaussianState",
    "ValidationReport",
    "validate_state",
    "flow_map",
    "evolve",
    "variance_x_closed_form",
]

# Tolerance on the determinant margin vxx·vpp − vxp² − ħ²/4, in units of ħ².
# Absorbs rounding so that exactly-saturating states built in floating point
# still validate.
SR_MARGIN_TOL = 1e-12


class StateValidationError(ValueError):
    """An operation received a state that fails validation."""


@dataclass(frozen=True)
class PhysConfig:
    """Physical constants for a run. ħ is a runtime parameter, default 1."""

    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not self.hbar > 0:
            raise ValueError(f"hbar must be > 0, got {self.hbar}")


@dataclass(frozen=True)
class FreeMass:
    """Free particle of mass m, H = P²/(2m). Its flow is the shear (1, t/m)."""

    m: float

    def __post_init__(self) -> None:
        if not self.m > 0:
            raise ValueError(f"m must be > 0, got {self.m}")

    def _flow(self, t: float) -> np.ndarray:
        return np.array([[1.0, t / self.m], [0.0, 1.0]])

    def _pair(self, t: float) -> tuple | None:
        """(m, ω) of the Hamiltonian that moves the state over t, or None
        where the model leaves it as it is (the dimensionless oscillator)."""
        return self.m, 0.0

    def _x_row(self, t: float | np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        u = np.atleast_1d(t) / self.m
        return 1.0, u * u, u

    def _hbar(self, hbar: float) -> float:
        return hbar

    def _floor(self, vpp0: float, hbar: float) -> float:
        # P is conserved, so σ²(X(t))·vpp0 ≥ ħ²/4 at every t.
        return hbar * hbar / (4.0 * vpp0)


class _Rotation:
    """Oscillator flow: rotation by θ = ωt of (x, p/s), s = self._scale = mω."""

    def _phase(self, t: float | np.ndarray) -> np.ndarray:
        """ωt as a 1-D array, checked: cos(±inf) is only NaN or "math domain error"."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        with np.errstate(all="ignore"):
            th = self.omega * ts
        if not np.isfinite(th).all():
            raise ValueError(f"phase omega*t is not finite at t = {ts[~np.isfinite(th)][0]}")
        return th

    def _flow(self, t: float) -> np.ndarray:
        (th,), mw = self._phase(t), self._scale
        c, s = math.cos(th), math.sin(th)
        return np.array([[c, s / mw], [-mw * s, c]])

    def _x_row(self, t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        th, mw = self._phase(t), self._scale
        # Squares by libm pow, as Python's ** squares: numpy's a ** 2 is a*a, which rounds
        # unlike pow on ~0.09 % of doubles. float_power calls pow for an array exponent.
        two = np.full(th.shape, 2.0)
        cos2 = np.float_power(np.cos(th), two)
        sin2 = np.float_power(np.sin(th), two)
        return cos2, sin2 / mw**2, np.sin(2.0 * th) / (2.0 * mw)

    def _hbar(self, hbar: float) -> float:
        return hbar

    def _floor(self, vpp0: float, hbar: float) -> float:
        return 0.0


@dataclass(frozen=True)
class Oscillator(_Rotation):
    """Harmonic oscillator in dimensional variables, H = P²/(2m) + ½mω²X²."""

    m: float
    omega: float

    def __post_init__(self) -> None:
        if not self.m > 0:
            raise ValueError(f"m must be > 0, got {self.m}")
        if not self.omega > 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        mw = self.m * self.omega
        # The x-row divides by (mω)²: it must neither underflow nor overflow.
        if not 0 < mw * mw < math.inf:
            raise ValueError(f"m*omega must have a finite, nonzero square, got {mw}")
        object.__setattr__(self, "_scale", mw)

    def _pair(self, t: float) -> tuple | None:
        return self.m, self.omega


@dataclass(frozen=True)
class DimensionlessOscillator(_Rotation):
    """Oscillator in quadratures x = √(mω/ħ)·X, p = P/√(mħω).

    The quadratures obey [x, p] = i, so ħ = 1 is fixed internally; any
    PhysConfig.hbar passed alongside this model is ignored. ω = 0 is allowed
    and degenerates to the identity flow (the ω → 0 limit at fixed t).
    """

    omega: float
    _scale = 1.0

    def __post_init__(self) -> None:
        if self.omega < 0:
            raise ValueError(f"omega must be >= 0, got {self.omega}")

    def _pair(self, t: float) -> tuple | None:
        # i∂ψ/∂t = ½ω(−∂² + x²)ψ is an oscillator with m = 1/ω; at ωt = 0, none.
        return (1.0 / self.omega, self.omega) if self.omega and t else None

    def _hbar(self, hbar: float) -> float:
        return 1.0


SystemModel = Union[FreeMass, Oscillator, DimensionlessOscillator]


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of a single-mode Gaussian state.

    Construction does not validate; use :func:`validate_state` to check
    positivity and the Schrödinger-Robertson bound vxx·vpp − vxp² ≥ ħ²/4.
    """

    mean_x: float = 0.0
    mean_p: float = 0.0
    vxx: float = 1.0
    vpp: float = 1.0
    vxp: float = 0.0

    @property
    def cov(self) -> np.ndarray:
        """Covariance matrix [[vxx, vxp], [vxp, vpp]]."""
        return np.array([[self.vxx, self.vxp], [self.vxp, self.vpp]])

    @property
    def mean(self) -> np.ndarray:
        return np.array([self.mean_x, self.mean_p])

    @classmethod
    def from_moments(cls, mean, cov) -> "GaussianState":
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        return cls(
            mean_x=float(mean[0]),
            mean_p=float(mean[1]),
            vxx=float(cov[0, 0]),
            vpp=float(cov[1, 1]),
            vxp=float(0.5 * (cov[0, 1] + cov[1, 0])),
        )

    def to_dict(self) -> dict:
        return {
            "mean_x": self.mean_x,
            "mean_p": self.mean_p,
            "vxx": self.vxx,
            "vxp": self.vxp,
            "vpp": self.vpp,
        }


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_state. sr_margin is vxx·vpp − vxp² − ħ²/4."""

    ok: bool
    violations: tuple[str, ...]
    sr_margin: float


def validate_state(state: GaussianState, config: PhysConfig = PhysConfig()) -> ValidationReport:
    """Check finiteness, positivity and the Schrödinger-Robertson uncertainty bound.

    The state is accepted iff all five moments are finite, vxx > 0, vpp > 0
    and vxx·vpp − vxp² ≥ ħ²/4 − SR_MARGIN_TOL·max(ħ², vxx·vpp), evaluated
    without overflow (a margin that overflows is a violation). The tolerance
    scales with the variance product so that exactly-saturating states, and
    their images under the exact flows, still validate at any scale. Each
    violation message names the failing field or inequality and its value.
    """
    hb2 = config.hbar * config.hbar
    violations = []
    # A finite sum proves every moment finite; only otherwise are they named.
    if not math.isfinite(state.mean_x + state.mean_p + state.vxx + state.vpp + state.vxp):
        violations = [
            f"{k} must be finite, got {v}" for k, v in vars(state).items() if not math.isfinite(v)
        ]
    if not state.vxx > 0:
        violations.append(f"vxx > 0 violated: vxx = {state.vxx}")
    if not state.vpp > 0:
        violations.append(f"vpp > 0 violated: vpp = {state.vpp}")
    # Products, not **: float ** raises OverflowError where * gives inf.
    margin = state.vxx * state.vpp - state.vxp * state.vxp - 0.25 * hb2
    if margin < -SR_MARGIN_TOL * max(hb2, state.vxx * state.vpp):
        violations.append(
            "Schrodinger-Robertson violated: "
            f"vxx*vpp - vxp^2 - hbar^2/4 = {margin:.6g} (must be >= 0)"
        )
    elif not math.isfinite(margin) and not violations:
        violations.append(f"Schrodinger-Robertson margin overflows: {margin} (moments or hbar)")
    return ValidationReport(ok=not violations, violations=tuple(violations), sr_margin=margin)


def _require_valid(state: GaussianState, hbar: float, name: str = "") -> ValidationReport:
    """validate_state's report on a valid state; an invalid one raises
    StateValidationError with the violations, after "invalid NAME state: " if named."""
    report = validate_state(state, PhysConfig(hbar))
    if not report.ok:
        prefix = f"invalid {name} state: " if name else ""
        raise StateValidationError(prefix + "; ".join(report.violations))
    return report


def flow_map(model: SystemModel, t: float) -> np.ndarray:
    """2×2 symplectic matrix propagating (x, p) deviations for time t.

    det = 1 holds exactly up to rounding for every model; negative t gives
    the inverse flow.
    """
    return model._flow(t)


def evolve(
    state: GaussianState,
    model: SystemModel,
    t: float,
    config: PhysConfig = PhysConfig(),
) -> GaussianState:
    """Propagate a Gaussian state for time t under the model's Hamiltonian.

    mean → M·mean and V → M·V·Mᵀ with M = flow_map(model, t). The evolution
    is exact (no discretization) and preserves the Schrödinger-Robertson
    invariant vxx·vpp − vxp², since det M = 1.

    Raises StateValidationError if the input state is invalid, and a
    ValueError naming t if t or the evolved moments are not finite.
    """
    _require_valid(state, model._hbar(config.hbar))
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    M = model._flow(t)
    with np.errstate(all="ignore"):  # an overflow is named below, not warned about
        out = GaussianState.from_moments(M @ state.mean, M @ state.cov @ M.T)
    if not all(map(math.isfinite, vars(out).values())):
        raise ValueError(f"evolved moments are not finite at t = {t}: {out}")
    return out


def variance_x_closed_form(
    state: GaussianState,
    model: SystemModel,
    t: float,
    config: PhysConfig = PhysConfig(),
) -> float:
    """σ²(X(t)) by direct closed-form evaluation, cxx·vxx + cpp·vpp + 2·cxp·vxp.

    Free mass:      vxx + (t/m)²·vpp + 2(t/m)·vxp
    Oscillator:     cos²ωt·vxx + sin²ωt/(mω)²·vpp + sin 2ωt/(mω)·vxp
    Dimensionless:  the oscillator with mω = 1

    Redundant with evolve(...).vxx (agrees to ~1e−12 relative); kept as an
    independent cross-check path. Raises a ValueError naming t, as evolve
    does, if t or the variance is not finite.
    """
    _require_valid(state, model._hbar(config.hbar))
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    with np.errstate(all="ignore"):  # an overflow is named below, not warned about
        cxx, cpp, cxp = model._x_row(t)
        v = float((cxx * state.vxx + cpp * state.vpp + 2.0 * cxp * state.vxp)[0])
    if not math.isfinite(v):
        raise ValueError(f"variance is not finite at t = {t}: {v}")
    return v
