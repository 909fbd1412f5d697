"""Envelope-saturating Gaussian states and squeezed-state label maps.

The variance envelopes in quvar.bounds are reached exactly by Gaussian states
whose momentum fluctuation is proportional to the position fluctuation,
ΔP|ψ⟩ = i·w·ΔX|ψ⟩ with a complex width w, Re w > 0. In position
representation such a state is

    ψ(x′) = (Re w/(πħ))^¼ · exp(i⟨P⟩x′/ħ − w·(x′−⟨X⟩)²/(2ħ)),

so Re w sets the spatial width and Im w the chirp (position-momentum
correlation): vxx = ħ/(2 Re w), vpp = ħ|w|²/(2 Re w), vxp = −Im w · vxx.
Positive Im w makes vxp negative — a contractive state that saturates the
LOWER envelope; negative Im w saturates the upper one.

In dimensionless quadratures (ħ = 1) the same width parameter labels the
state as a displaced squeezed state: with b = μa + νa†, μ = cosh r,
ν = e^{iθ}·sinh r, the eigenstate of b corresponds to

    w = (1 + i·sin θ·sinh 2r) / (cosh 2r − cos θ·sinh 2r),

and sin θ > 0 picks the contractive branch. Under oscillator evolution the
labels rotate rigidly: α → α·e^{−iωt}, θ → θ − 2ωt (global phases dropped).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .bounds import sqrt_uncertainty_excess
from .gaussian import GaussianState

__all__ = [
    "ExtremalSpec",
    "SqueezeParams",
    "complex_width_from_variances",
    "variances_from_complex_width",
    "gaussian_from_extremal",
    "complex_width_from_squeeze",
    "squeeze_from_complex_width",
    "evolve_squeeze",
    "bogoliubov_eigenvalue",
    "state_from_squeeze",
]

TWO_PI = 2.0 * math.pi


def complex_width_from_variances(
    vxx0: float, vpp0: float, hbar: float = 1.0, sign: int = 1
) -> complex:
    """Complex width of the state saturating the envelopes at (vxx0, vpp0).

    Re w = ħ/(2·vxx0), Im w = sign·√(4·vxx0·vpp0 − ħ²)/(2·vxx0). sign=+1
    gives the contractive (lower-envelope) state, sign=−1 the expanding one.
    With ħ = 1 and quadrature-unit variances this is the dimensionless
    oscillator width; with dimensional variances it is the free-mass width.
    A width that overflows (vpp0 = inf, or 4·vxx0·vpp0 past the double
    range) raises ValueError.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    s = sqrt_uncertainty_excess(vxx0, vpp0, hbar)
    w = complex(hbar / (2.0 * vxx0), sign * s / (2.0 * vxx0))
    if not cmath.isfinite(w):
        raise ValueError(
            f"width (hbar + i*sign*sqrt(4*vxx0*vpp0 - hbar^2))/(2*vxx0) overflows: w = {w}"
        )
    return w


def variances_from_complex_width(w: complex, hbar: float = 1.0) -> tuple[float, float]:
    """(vxx, vpp) of the Gaussian state with complex width w (Re w > 0)."""
    if not w.real > 0:
        raise ValueError(f"Re(width) must be > 0, got {w}")
    if w.real == math.inf:  # vxx would be 0 and vpp inf/inf = NaN
        raise ValueError(f"Re(width) must be finite, got {w}")
    vxx = hbar / (2.0 * w.real)
    vpp = hbar * abs(w) ** 2 / (2.0 * w.real)
    return vxx, vpp


@dataclass(frozen=True)
class ExtremalSpec:
    """Width and saturation side of an envelope-saturating state.

    sign=+1 must carry Im(width) ≥ 0 (contractive), sign=−1 the mirror.
    """

    width: complex
    sign: int = 1

    def __post_init__(self) -> None:
        if not self.width.real > 0:
            raise ValueError(f"Re(width) must be > 0, got {self.width}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.sign * self.width.imag < 0:
            raise ValueError(
                f"sign {self.sign:+d} inconsistent with Im(width) = {self.width.imag}"
            )

    @classmethod
    def from_variances(
        cls, vxx0: float, vpp0: float, hbar: float = 1.0, sign: int = 1
    ) -> "ExtremalSpec":
        return cls(width=complex_width_from_variances(vxx0, vpp0, hbar, sign), sign=sign)


def gaussian_from_extremal(
    spec: ExtremalSpec, mean_x: float = 0.0, mean_p: float = 0.0, hbar: float = 1.0
) -> GaussianState:
    """Moments of the extremal state: vxp = −sign·½√(4·vxx·vpp − ħ²).

    The result saturates the Schrödinger-Robertson relation with zero margin
    (up to rounding), and its free evolution tracks the lower (sign=+1) or
    upper (sign=−1) envelope exactly.
    """
    vxx, vpp = variances_from_complex_width(spec.width, hbar)
    vxp = -spec.width.imag * vxx
    return GaussianState(mean_x=mean_x, mean_p=mean_p, vxx=vxx, vpp=vpp, vxp=vxp)


def complex_width_from_squeeze(r: float, theta: float) -> complex:
    """Width of the displaced squeezed state with squeeze magnitude r, angle θ.

    w = (1 + i·sin θ·sinh 2r)/(cosh 2r − cos θ·sinh 2r); always Re w > 0, and
    sign(Im w) = sign(sin θ). Dimensionless quadrature convention (ħ = 1).
    """
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    denom = ch - math.cos(theta) * sh
    return complex(1.0 / denom, math.sin(theta) * sh / denom)


def squeeze_from_complex_width(w: complex) -> tuple[float, float]:
    """Invert complex_width_from_squeeze: width → (r, θ).

    Uses ν/μ = (w − 1)/(w + 1), which has modulus < 1 exactly when Re w > 0;
    then r = artanh|ν/μ| and θ = arg(ν/μ), returned in [0, 2π). θ = 0 by
    convention when r = 0 (the squeeze angle is undefined there).
    """
    if not w.real > 0:
        raise ValueError(f"Re(width) must be > 0, got {w}")
    ratio = (w - 1.0) / (w + 1.0)
    mod = abs(ratio)
    if mod == 0.0:
        return 0.0, 0.0
    return math.atanh(mod), cmath.phase(ratio) % TWO_PI


@dataclass(frozen=True)
class SqueezeParams:
    """Displaced-squeezed-state labels: displacement α, squeeze (r, θ).

    θ is stored modulo 2π. beta is the eigenvalue of the transformed mode
    b = cosh r·a + e^{iθ}·sinh r·a†.
    """

    alpha: complex
    r: float
    theta: float

    def __post_init__(self) -> None:
        if self.r < 0:
            raise ValueError(f"r must be >= 0, got {self.r}")
        object.__setattr__(self, "theta", self.theta % TWO_PI)

    @property
    def beta(self) -> complex:
        return bogoliubov_eigenvalue(self.alpha, self.r, self.theta)


def bogoliubov_eigenvalue(alpha: complex, r: float, theta: float) -> complex:
    """β = cosh r·α + e^{iθ}·sinh r·α*, the b-eigenvalue of the state."""
    return math.cosh(r) * alpha + cmath.exp(1j * theta) * math.sinh(r) * alpha.conjugate()


def evolve_squeeze(sp: SqueezeParams, phase: float) -> SqueezeParams:
    """Label dynamics under oscillator evolution by phase ωt.

    α → α·e^{−iωt}, θ → θ − 2ωt (mod 2π), r unchanged. The global phase of
    the state is dropped; it affects no moment tracked here.
    """
    return SqueezeParams(
        alpha=sp.alpha * cmath.exp(-1j * phase),
        r=sp.r,
        theta=sp.theta - 2.0 * phase,
    )


def state_from_squeeze(sp: SqueezeParams) -> GaussianState:
    """Quadrature moments of the displaced squeezed state (ħ = 1).

    mean_x = √2·Re α, mean_p = √2·Im α,
    vxx = ½(cosh 2r − cos θ·sinh 2r), vpp = ½(cosh 2r + cos θ·sinh 2r),
    vxp = −½·sin θ·sinh 2r. Pure state: vxx·vpp − vxp² = 1/4 identically.
    """
    ch, sh = math.cosh(2.0 * sp.r), math.sinh(2.0 * sp.r)
    return GaussianState(
        mean_x=math.sqrt(2.0) * sp.alpha.real,
        mean_p=math.sqrt(2.0) * sp.alpha.imag,
        vxx=0.5 * (ch - math.cos(sp.theta) * sh),
        vpp=0.5 * (ch + math.cos(sp.theta) * sh),
        vxp=-0.5 * math.sin(sp.theta) * sh,
    )
