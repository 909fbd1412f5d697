"""Brute-force wavefunction oracle on a uniform spatial grid.

Everything the closed-form Gaussian engine claims is re-derivable here the
hard way: sample the wavefunction pointwise, propagate it with FFT-based
spectral methods, and compute moments by quadrature. Agreement between the
two routes is the package's core correctness argument.

Conventions (bit-exact, since vpp depends on them):

* grid points x_j = x_min + j·dx, j = 0..n−1, dx = (x_max − x_min)/n; the
  wrap point x_max is not a sample;
* momentum grid p_j = 2πħ·j/L for j ∈ [−n/2, n/2), L = x_max − x_min,
  stored in FFT order (``2π·ħ·numpy.fft.fftfreq(n, dx)``);
* position integrals use the trapezoid rule on the uniform grid, which is
  spectrally accurate for smooth decaying integrands; momentum moments are
  Parseval sums over the discrete spectral density.

Free evolution is exact up to discretization (pure momentum-space phase).
So is the oscillator (chirp–FFT–chirp, coefficients from the Hamiltonian,
never from the closed-form flow it checks), the oracle's one route; the
tests hold it against a split step of their own. Both preserve the norm to
rounding. The public propagate_* check the input's momentum resolution, run
an unchecked core and check the result's 8σ window and norm.

The oracle builds its grid's points and momenta once (the Grid keeps them,
read-only, for sampling, the cores and moments()), checks its ψ0 once, and
then costs one propagation and one moments() per time. On the free route it
transforms ψ0 once, so a time costs one phase multiply, one ifft and
moments()' two FFTs; an oscillator time costs 2 FFTs per sub-step. The
times are independent: from _FANOUT_POINTS grid points × times on, they run
in forked workers on Linux (quvar._fanout), each process running the same
code on the same inherited ψ0, so the report's bytes do not change.

The two-mode oracle checks quvar.ozawa's covariance algebra the same way.
The coupling's position block has unit determinant, so the coupled joint
wavefunction is the initial product evaluated at the inverse position map (a
point transformation, no Jacobian): sample_joint samples it on an x × y mesh,
joint_moments integrates its moments and slice_at_y conditions on a reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ._fanout import fanout
from .bounds import _check, envelope
from .extremal import ExtremalSpec, gaussian_from_extremal
from .gaussian import (
    DimensionlessOscillator,
    FreeMass,
    GaussianState,
    PhysConfig,
    SystemModel,
    _require_valid,
    evolve,
    flow_map,
    validate_state,
)
from .ozawa import TwoModeGaussian, interaction_map

# Grid points × times from which the oracle fans its times out over the
# usable CPUs (quvar._fanout). On a 2-vCPU VM, 2**18 ran 1.24-1.63x faster with
# the second vCPU free and 9-18% slower with both processes on one (2**16: 35%).
_FANOUT_POINTS = 2**18

__all__ = [
    "Grid",
    "WaveFn",
    "Moments",
    "GridError",
    "AliasingError",
    "sample_gaussian",
    "sample_extremal",
    "quadrature_norm",
    "moments",
    "propagate_free",
    "propagate_osc_exact",
    "verify_bounds_oracle",
    "OracleReport",
    "wavefn_csv",
    "sample_joint",
    "joint_moments",
    "slice_at_y",
]


class GridError(ValueError):
    """Grid cannot faithfully represent the requested wavefunction."""


class AliasingError(GridError):
    """Momentum content or spreading exceeds what the grid resolves."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [x_min, x_max) with n points, n a power of two."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self) -> None:
        if not 0 < self.x_max - self.x_min < math.inf:
            raise ValueError(f"x_max - x_min must be > 0 and finite: [{self.x_min}, {self.x_max}]")
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 2, got {self.n}")

    @classmethod
    def centered(cls, center: float, half_width: float, n: int) -> "Grid":
        return cls(x_min=center - half_width, x_max=center + half_width, n=n)

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def dx(self) -> float:
        return self.length / self.n

    def points(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    def momenta(self, hbar: float) -> np.ndarray:
        """p_j = 2πħ·j/L in FFT order."""
        return 2.0 * math.pi * hbar * np.fft.fftfreq(self.n, d=self.dx)


def _axes(grid: Grid, hbar: float) -> tuple:
    """(grid.points(), grid.momenta(ħ)), read-only, built once per grid and ħ.

    The grid object keeps the pair for the last ħ (value and type) it was
    asked for, so a run on one grid builds its axes once, and a hit returns
    the very arrays a miss would build. Grid.points() and Grid.momenta()
    still return fresh arrays.
    """
    key = type(hbar), hbar
    cached = grid.__dict__.get("_axes")  # one tuple: threads never mix two ħ
    if cached is None or cached[0] != key:
        x, p = grid.points(), grid.momenta(hbar)
        x.flags.writeable = p.flags.writeable = False
        # Not a field, so eq, hash and repr ignore it; frozen guards only setattr.
        cached = grid.__dict__["_axes"] = key, x, p
    return cached[1:]


@dataclass(frozen=True, eq=False)
class WaveFn:
    """Complex amplitudes in position representation on a Grid."""

    grid: Grid
    amps: np.ndarray
    hbar: float = 1.0


@dataclass(frozen=True)
class Moments:
    """Quadrature moments of a wavefunction; same semantics as GaussianState."""

    norm: float
    mean_x: float
    mean_p: float
    vxx: float
    vpp: float
    vxp: float


def quadrature_norm(psi: WaveFn) -> float:
    """∫|ψ|² dx by the trapezoid rule."""
    return float(np.trapezoid(np.abs(psi.amps) ** 2, dx=psi.grid.dx))


def _gaussian_amps(x: np.ndarray, width: complex, mean_x: float, mean_p: float, hbar: float):
    """(Re w/(πħ))^¼ exp(i⟨P⟩x/ħ − w(x−⟨X⟩)²/(2ħ)) at the points x."""
    dev = x - mean_x
    return (width.real / (math.pi * hbar)) ** 0.25 * np.exp(
        1j * mean_p * x / hbar - width * dev * dev / (2.0 * hbar)
    )


def sample_gaussian(
    width: complex,
    mean_x: float,
    mean_p: float,
    grid: Grid,
    hbar: float = 1.0,
) -> WaveFn:
    """Sample ψ(x) = (Re w/(πħ))^¼ exp(i⟨P⟩x/ħ − w(x−⟨X⟩)²/(2ħ)) pointwise.

    The prefactor normalizes the continuum integral exactly; the quadrature
    norm is checked against 1 and a deficit beyond 1e−8 raises GridError
    (grid too narrow or too coarse).
    """
    if not width.real > 0:
        raise ValueError(f"Re(width) must be > 0, got {width}")
    sigma_x = math.sqrt(hbar / (2.0 * width.real))
    if grid.x_min > mean_x - 8.0 * sigma_x or grid.x_max < mean_x + 8.0 * sigma_x:
        raise GridError(
            f"grid [{grid.x_min:g}, {grid.x_max:g}] does not cover "
            f"mean_x ± 8σ = {mean_x:g} ± {8.0 * sigma_x:g}"
        )
    # An unresolvable momentum support would alias silently at sampling (the
    # measured moments of the aliased state look healthy), so guard here.
    sigma_p = math.sqrt(hbar * abs(width) ** 2 / (2.0 * width.real))
    limit = math.pi * hbar / (abs(mean_p) + 6.0 * sigma_p)
    if not grid.dx < limit:
        n_min = next((2**k for k in range(1, 64) if grid.length / 2**k < limit), None)
        raise AliasingError(
            f"dx = {grid.dx:.3g} cannot represent mean_p = {mean_p:g} with "
            f"σP = {sigma_p:.3g} (need dx < πħ/(|⟨P⟩| + 6σP) = {limit:.3g}"
            + (f"; n >= {n_min} on this domain)" if n_min else ")")
        )
    amps = _gaussian_amps(_axes(grid, hbar)[0], width, mean_x, mean_p, hbar)
    psi = WaveFn(grid=grid, amps=amps, hbar=hbar)
    norm = quadrature_norm(psi)
    if abs(norm - 1.0) > 1e-8:
        raise GridError(f"sampled norm deviates from 1 by {abs(norm - 1.0):.3g}; refine the grid")
    return psi


def sample_extremal(
    spec: ExtremalSpec,
    mean_x: float,
    mean_p: float,
    grid: Grid,
    hbar: float = 1.0,
) -> WaveFn:
    """Sample the envelope-saturating state described by spec."""
    return sample_gaussian(spec.width, mean_x, mean_p, grid, hbar)


def moments(psi: WaveFn, check_norm: bool = True) -> Moments:
    """Position moments by trapezoid quadrature, momentum moments spectrally.

    vxp = Re⟨ψ|(X−⟨X⟩)(P̂−⟨P⟩)|ψ⟩ with P̂ applied through the FFT; the real
    part is automatically the symmetrized covariance. Raises GridError if
    the quadrature norm deviates from 1 by more than 1e−6.
    """
    grid, a, hbar = psi.grid, psi.amps, psi.hbar
    dx = grid.dx
    x, p = _axes(grid, hbar)
    dens = np.abs(a) ** 2
    norm = float(np.trapezoid(dens, dx=dx))
    if check_norm and abs(norm - 1.0) > 1e-6:
        raise GridError(f"norm deviates from 1 by {abs(norm - 1.0):.3g}")
    mean_x = float(np.trapezoid(x * dens, dx=dx)) / norm
    dev = x - mean_x
    vxx = float(np.trapezoid(dev * dev * dens, dx=dx)) / norm

    phi = np.fft.fft(a)
    # |φ(p_j)|² with φ the continuum transform: Σ dens_p·Δp ≈ 1 by Parseval.
    dens_p = np.abs(phi) ** 2 * dx * dx / (2.0 * math.pi * hbar)
    dp = 2.0 * math.pi * hbar / grid.length
    norm_p = float(np.sum(dens_p)) * dp
    mean_p = float(np.sum(p * dens_p)) * dp / norm_p
    vpp = float(np.sum((p - mean_p) ** 2 * dens_p)) * dp / norm_p

    p_psi = np.fft.ifft(p * phi)
    del dens, phi, dens_p  # dead: free them for the three arrays of the vxp product
    vxp = float(
        np.real(np.trapezoid(np.conj(a) * dev * (p_psi - mean_p * a), dx=dx)) / norm
    )
    return Moments(norm=norm, mean_x=mean_x, mean_p=mean_p, vxx=vxx, vpp=vpp, vxp=vxp)


def _check_input(psi: WaveFn, mw: Optional[float] = None) -> None:
    """Is ψ's momentum support resolved, and with mω given, the chirped one?"""
    mom = moments(psi)
    limit = math.pi * psi.hbar / (abs(mom.mean_p) + 6.0 * math.sqrt(mom.vpp))
    if not psi.grid.dx < limit:
        raise AliasingError(
            f"dx = {psi.grid.dx:.3g} does not resolve the momentum support "
            f"(need dx < πħ/(|⟨P⟩| + 6σP) = {limit:.3g})"
        )
    if mw is None:
        return
    # The chirp adds c·x to the momentum with |c| <= mω. Mean and spread of
    # P − cX are bounded by the conserved ⟨P⟩² + (mω⟨X⟩)² and vpp + (mω)²vxx.
    limit = math.pi * psi.hbar / (
        math.sqrt(2.0) * math.hypot(mom.mean_p, mw * mom.mean_x)
        + 6.0 * math.sqrt(2.0 * (mom.vpp + mw * mw * mom.vxx))
    )
    if not psi.grid.dx < limit:
        raise AliasingError(
            f"dx = {psi.grid.dx:.3g} does not resolve the chirped intermediate (need {limit:.3g})"
        )


def _check_result(psi: WaveFn, mom: Moments) -> None:
    sigma_x = math.sqrt(mom.vxx)
    if mom.mean_x - 8.0 * sigma_x < psi.grid.x_min or mom.mean_x + 8.0 * sigma_x > psi.grid.x_max:
        raise AliasingError(
            f"spreading exceeds domain: mean_x ± 8σ = {mom.mean_x:g} ± "
            f"{8.0 * sigma_x:g} leaves [{psi.grid.x_min:g}, {psi.grid.x_max:g}]"
        )
    if abs(mom.norm - 1.0) > 1e-6:
        raise AliasingError(
            f"quadrature norm drifted by {abs(mom.norm - 1.0):.3g}: "
            "density reached the domain boundary"
        )


def _checked(out: WaveFn) -> WaveFn:
    _check_result(out, moments(out, check_norm=False))
    return out


class _Spectrum(WaveFn):
    """ψ in momentum representation: amps = FFT(ψ.amps), in FFT order."""


def _free(spec: _Spectrum, m: float, t: float) -> WaveFn:
    """One phase multiply and one ifft. The product is φ·e into a fresh array,
    never e·φ: complex multiplication does not commute bit for bit."""
    p = _axes(spec.grid, spec.hbar)[1]
    e = np.exp(-1j * p * p * t / (2.0 * m * spec.hbar))
    return WaveFn(grid=spec.grid, amps=np.fft.ifft(spec.amps * e), hbar=spec.hbar)


def propagate_free(psi: WaveFn, m: float, t: float) -> WaveFn:
    """Free evolution: multiply exp(−i p² t/(2mħ)) in momentum space.

    Exact up to discretization and unitary (norm preserved to rounding).
    Raises AliasingError when the momentum support is unresolved or the
    final 8σ window leaves the domain.
    """
    if not m > 0:
        raise ValueError(f"m must be > 0, got {m}")
    _check_input(psi)
    return _checked(_free(_Spectrum(psi.grid, np.fft.fft(psi.amps), psi.hbar), m, t))


def _chirp_kick_chirp(psi: WaveFn, chirp: np.ndarray, kick: np.ndarray, n_steps: int) -> WaveFn:
    """(chirp · FFT⁻¹[kick · FFT(·)] · chirp)^n_steps with adjacent chirps merged."""
    full = chirp * chirp
    a = psi.amps * chirp
    for step in range(n_steps):
        a = np.fft.ifft(kick * np.fft.fft(a))
        if step < n_steps - 1:
            a = a * full
    return WaveFn(grid=psi.grid, amps=a * chirp, hbar=psi.hbar)


def _exact(psi: WaveFn, m: float, omega: float, t: float) -> WaveFn:
    theta = math.remainder(omega * t, 2.0 * math.pi)
    k = max(1, math.ceil(abs(theta) / (0.5 * math.pi)))
    theta_k = theta / k
    mw = m * omega
    x, p = _axes(psi.grid, psi.hbar)
    chirp = np.exp(-1j * math.tan(0.5 * theta_k) * mw * x * x / (2.0 * psi.hbar))
    kick = np.exp(-1j * math.sin(theta_k) * p * p / (2.0 * mw * psi.hbar))
    return _chirp_kick_chirp(psi, chirp, kick, k)


def propagate_osc_exact(psi: WaveFn, m: float, omega: float, t: float) -> WaveFn:
    """Exact oscillator evolution, H = p²/2m + ½mω²x², θ = ωt (t may be negative).

    Up to a global phase, which moments do not see, the propagator is the
    chirp e^{−i·tan(θ/2)·mωx²/(2ħ)}, then e^{−i·sin(θ)·p²/(2mωħ)} in momentum
    space, then the same chirp. The propagator is 2π-periodic in θ up to a
    global phase too, so θ is reduced into [−π, π] and split into at most two
    equal sub-steps (⌈|θ|/(π/2)⌉) to keep tan off its pole at π; each costs
    2 FFTs, whatever t. Raises AliasingError when the input, the chirped
    intermediate or the final 8σ window is not resolved by the grid.
    """
    if not (m > 0 and omega > 0):
        raise ValueError(f"m and omega must be > 0, got m={m}, omega={omega}")
    _check_input(psi, m * omega)
    return _checked(_exact(psi, m, omega, t))


def _route(model: SystemModel, t: float):
    """(core, args): _propagate runs core(src, *args), src being ψ, or ψ's
    _Spectrum for _free; core None copies ψ."""
    if isinstance(model, FreeMass):
        return _free, (model.m, t)
    if isinstance(model, DimensionlessOscillator):
        if model.omega == 0.0 or t == 0.0:
            return None, ()
        # i∂ψ/∂t = ½ω(−∂² + x²)ψ is an oscillator with m_eff = 1/ω, ω_eff = ω.
        return _exact, (1.0 / model.omega, model.omega, t)
    return _exact, (model.m, model.omega, t)


def _propagate(src: WaveFn, model: SystemModel, t: float) -> WaveFn:
    """Unchecked: the oracle runs the input checks once and the result check per time."""
    core, args = _route(model, t)
    if core is None:
        return WaveFn(grid=src.grid, amps=src.amps.copy(), hbar=src.hbar)
    return core(src, *args)


def _spec_from_state(state: GaussianState, hbar: float) -> ExtremalSpec:
    report = validate_state(state, PhysConfig(hbar))
    if not report.ok:
        raise ValueError("; ".join(report.violations))
    if abs(report.sr_margin) > 1e-9 * max(hbar * hbar, state.vxx * state.vpp):
        raise ValueError(
            "grid oracle requires a pure Gaussian state (Schrodinger-Robertson "
            f"saturated); margin = {report.sr_margin:.3g}"
        )
    width = complex(hbar / (2.0 * state.vxx), -state.vxp / state.vxx)
    return ExtremalSpec(width=width, sign=1 if state.vxp <= 0 else -1)


@dataclass(frozen=True)
class OracleRow:
    t: float
    moment_dev: float
    envelope_dev: float


@dataclass(frozen=True)
class OracleReport:
    """Max deviation between grid-oracle moments and the closed-form engine."""

    rows: tuple[OracleRow, ...]
    max_moment_dev: float
    max_envelope_dev: float
    tolerance: float
    ok: bool

    def render(self) -> str:
        lines = ["t,moment_dev,envelope_dev"]
        for row in self.rows:
            lines.append(f"{row.t:.17g},{row.moment_dev:.17g},{row.envelope_dev:.17g}")
        status = "OK" if self.ok else "FAIL"
        lines.append(
            f"max moment deviation {self.max_moment_dev:.3g}, "
            f"max envelope deviation {self.max_envelope_dev:.3g}, "
            f"tolerance {self.tolerance:.3g}: {status}"
        )
        return "\n".join(lines)


def verify_bounds_oracle(
    target: Union[ExtremalSpec, GaussianState],
    model: SystemModel,
    times,
    mean_x: float = 0.0,
    mean_p: float = 0.0,
    hbar: float = 1.0,
    n: int = 2**14,
    domain_sigmas: float = 40.0,
    tolerance: float = 1e-8,
) -> OracleReport:
    """Propagate a sampled state on the grid and compare against closed forms.

    For every requested time the oracle moments are held against (a) the
    symplectic evolution of quvar.gaussian and (b) the envelope value of
    quvar.bounds the pure state must saturate. Any pure Gaussian works as a
    target: passing a GaussianState requires a saturated SR margin (a mixed
    covariance has no single wavefunction). The arguments, the initial state
    and (by one envelope and one x-row call) every t and phase ωt are checked
    before any flow map, sampling or FFT. Then the grid's points and momenta
    are built once, ψ0 is checked once, and each time costs one exact
    propagation and one moments(). The free route transforms ψ0 once and
    drops its amplitudes, so its propagation is one phase multiply and one
    ifft. When n·len(times) reaches _FANOUT_POINTS, the times fan out over
    the usable CPUs (quvar._fanout: time i in process i mod k, the caller
    being process 0; Linux only). The workers are forked after ψ0 is
    checked, return (t, moment_dev, envelope_dev) as floats, and are reaped
    before this returns; the rows and any error, raised at its time with its
    serial type and message, are those of the serial loop.
    """
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be >= 0 and finite, got {tolerance}")
    if not 0 < domain_sigmas < math.inf:
        raise ValueError(f"domain_sigmas must be > 0 and finite, got {domain_sigmas}")
    hbar = model._hbar(hbar)
    if isinstance(target, GaussianState):
        spec = _spec_from_state(target, hbar)
        mean_x, mean_p = target.mean_x, target.mean_p
    else:
        spec = target
    state0 = gaussian_from_extremal(spec, mean_x, mean_p, hbar)
    config = PhysConfig(hbar)
    _require_valid(state0, model, config)

    times = [float(t) for t in times]
    if not times:
        raise ValueError("times must be a non-empty sequence")
    ts = np.array([0.0, *times])  # row 0 is t = 0
    pair = envelope(model, state0.vxx, state0.vpp, ts, hbar)
    # The saturating state rides the lower side while sign·cxp ≥ 0.
    sides = spec.sign * model._x_row(ts[1:])[2] >= 0
    refs = np.where(sides, pair.lower[1:], pair.upper[1:]).tolist()
    # The domain must hold the state at every requested time: the drifting
    # mean ± domain_sigmas envelope σ. An overflow is reported, not warned about.
    with np.errstate(all="ignore"):
        m_t = np.array([(flow_map(model, t) @ state0.mean)[0] for t in ts.tolist()])
        half = domain_sigmas * np.sqrt(pair.upper)
        _check(np.isfinite(m_t), ts, "mean position is not finite at t = {}")
        x_min, x_max = float(np.min(m_t - half)), float(np.max(m_t + half))
        if not x_max > x_min:  # the half-width vanished next to the mean
            raise ValueError(f"domain_sigmas = {domain_sigmas} gives no domain: [{x_min}, {x_max}]")
        grid = Grid(x_min, x_max, n)
    src = sample_extremal(spec, mean_x, mean_p, grid, hbar)  # ψ0
    # Every time starts from ψ0: check it once, as the first propagator run would.
    routes = [_route(model, t) for t in times]
    core, args = next((r for r in routes if r[0] is not None), (None, ()))
    if core is not None:
        _check_input(src, args[0] * args[1] if core is _exact else None)
    if core is _free:  # transform ψ0 once, and let its amplitudes go
        src = _Spectrum(grid, np.fft.fft(src.amps), hbar)

    def row(item):  # (t, moment_dev, envelope_dev) as floats, which cross a worker's pipe
        t, env = item
        psi_t = _propagate(src, model, t)
        got = moments(psi_t)
        _check_result(psi_t, got)
        want = evolve(state0, model, t, config)
        return t, max(abs(getattr(got, f) - v) for f, v in vars(want).items()), abs(got.vxx - env)

    rows = [OracleRow(*r) for r in fanout(row, [*zip(times, refs)], n * len(times) >= _FANOUT_POINTS)]

    max_m = max(r.moment_dev for r in rows)
    max_e = max(r.envelope_dev for r in rows)
    return OracleReport(
        rows=tuple(rows),
        max_moment_dev=max_m,
        max_envelope_dev=max_e,
        tolerance=tolerance,
        ok=max_m <= tolerance and max_e <= tolerance,
    )


def wavefn_csv(psi: WaveFn) -> str:
    """|ψ|² dump as CSV text with columns x, re, im, abs2."""
    lines = ["x,re,im,abs2"]
    x = psi.grid.points()
    for xi, ai in zip(x, psi.amps):
        lines.append(
            f"{xi:.17g},{ai.real:.17g},{ai.imag:.17g},{(ai.real**2 + ai.imag**2):.17g}"
        )
    return "\n".join(lines) + "\n"


def sample_joint(
    system_width: complex,
    system_mean: tuple[float, float],
    meter_width: complex,
    ktau: float,
    grid_x: Grid,
    grid_y: Grid,
    hbar: float = 1.0,
    meter_mean: tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """Joint wavefunction Ψ_τ(x, y) on the (grid_x × grid_y) mesh.

    Ψ_τ(x, y) = ψ(A⁻¹(x, y)·ê_x) · χ(A⁻¹(x, y)·ê_y) with A the position
    block of interaction_map at the given dose. At kτ = π/(3√3) this reduces
    to ψ(y)·χ(y − x). amps[i, j] corresponds to (x_i, y_j).
    """
    inv = interaction_map(1.0, -ktau)[::2, ::2]  # A⁻¹: position block (x, y) at −kτ
    x = grid_x.points()[:, None]
    y = grid_y.points()[None, :]
    psi = _gaussian_amps(inv[0, 0] * x + inv[0, 1] * y, system_width, *system_mean, hbar)
    chi = _gaussian_amps(inv[1, 0] * x + inv[1, 1] * y, meter_width, *meter_mean, hbar)
    return psi * chi


def joint_moments(
    amps: np.ndarray, grid_x: Grid, grid_y: Grid, hbar: float = 1.0
) -> tuple[TwoModeGaussian, float]:
    """Mean 4-vector and 4×4 covariance of a two-mode wavefunction.

    With A = (x, p_x, y, p_y), positions applied pointwise and momenta
    spectrally along their axes, the mean is Re⟨ψ|A_i ψ⟩/⟨ψ|ψ⟩ and the
    covariance is the real part of the Gram matrix
    ⟨(A_i − ⟨A_i⟩)ψ | (A_j − ⟨A_j⟩)ψ⟩/⟨ψ|ψ⟩, all by 2-D trapezoid quadrature.
    The real part is the symmetrized covariance, and Re(f*·g) = Re(g*·f)
    pointwise makes the matrix exactly symmetric. Returns (moments,
    quadrature norm).
    """
    dx, dy = grid_x.dx, grid_y.dx

    def inner(f: np.ndarray, g: np.ndarray) -> float:
        """Re⟨f|g⟩ = Re ∬ f*·g dx dy by the trapezoid rule along each axis."""
        return float(np.trapezoid(np.trapezoid(np.real(np.conj(f) * g), dx=dy, axis=1), dx=dx))

    px = grid_x.momenta(hbar)[:, None]
    py = grid_y.momenta(hbar)[None, :]
    applied = (
        grid_x.points()[:, None] * amps,
        np.fft.ifft(px * np.fft.fft(amps, axis=0), axis=0),
        grid_y.points()[None, :] * amps,
        np.fft.ifft(py * np.fft.fft(amps, axis=1), axis=1),
    )
    norm = inner(amps, amps)
    mean = np.array([inner(amps, a) for a in applied]) / norm
    devs = [a - m * amps for a, m in zip(applied, mean)]
    cov = np.array([[inner(f, g) for g in devs] for f in devs]) / norm
    return TwoModeGaussian(mean=mean, cov=cov), norm


def slice_at_y(
    amps: np.ndarray, grid_x: Grid, grid_y: Grid, y_index: int, hbar: float = 1.0
) -> tuple[WaveFn, float]:
    """Conditional system wavefunction at the grid row y = y_j, normalized.

    Returns the sliced WaveFn and the exact grid value y_j it was cut at
    (pass that value to read_meter when comparing posteriors).
    """
    column = amps[:, y_index]
    norm = float(np.trapezoid(np.abs(column) ** 2, dx=grid_x.dx))
    if norm <= 0.0:
        raise ValueError(f"slice at y index {y_index} has zero norm")
    psi = WaveFn(grid=grid_x, amps=column / math.sqrt(norm), hbar=hbar)
    return psi, float(grid_y.points()[y_index])
