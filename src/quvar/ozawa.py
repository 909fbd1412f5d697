"""Bilinear system-meter coupling, readout, collapse, and repeated schedules.

The interaction Hamiltonian (Ozawa's back-action-evading coupling)

    H = k·[2x p_y − 2p_x y + (x p_x + p_x x − y p_y − p_y y)/2]

generates a linear Heisenberg flow in (x, p_x, y, p_y) whose position block
decouples from the momentum block. At the special dose k·τ = π/(3√3) the
position block becomes x → x − y, y → x: the meter coordinate lands exactly
on the pre-measurement system position, so the meter marginal carries the
system position statistics with no added resolution noise, and conditioning
on a sharp meter reading y′ leaves the system in the state the meter was
prepared in (recentered at y′).

A note on the collapse covariance: the posterior wavefunction is the meter
wavefunction reflected through y′, χ(y′ − x′). The reflection flips the
orientation of both position and momentum, so the symmetrized covariance —
vxp sign included — is carried over UNCHANGED from the meter preparation.
This is asserted at runtime and cross-checked against a two-mode grid oracle
in the test suite.

Free Hamiltonians are treated as exactly zero while the coupling is on; the
regime checker quantifies when that idealization is defensible. Between
measurements the system evolves freely, and scheduling the gaps at the
contraction horizon of the meter state keeps the pre-measurement position
variance from ever exceeding the meter's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .bounds import contraction_phase_osc, contraction_time_free
from .gaussian import (
    DimensionlessOscillator,
    FreeMass,
    GaussianState,
    Oscillator,
    PhysConfig,
    SystemModel,
    evolve,
    validate_state,
)
from .gridsim import Grid, WaveFn

__all__ = [
    "TRANSFER_KTAU",
    "SYMPLECTIC_FORM_4",
    "interaction_generator",
    "interaction_map",
    "symplectic_defect",
    "TwoModeGaussian",
    "couple",
    "meter_marginal",
    "system_marginal",
    "read_meter",
    "ConfigError",
    "RegimeError",
    "OzawaConfig",
    "check_regime",
    "StepRecord",
    "ProtocolTrace",
    "run_protocol",
    "sample_joint",
    "joint_moments",
    "slice_at_y",
]

# Coupling dose at which the position block is exactly x → x − y, y → x.
TRANSFER_KTAU = math.pi / (3.0 * math.sqrt(3.0))

# Symplectic form in (x, p_x, y, p_y) ordering.
SYMPLECTIC_FORM_4 = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)

def interaction_generator(k: float) -> np.ndarray:
    """Linear Heisenberg flow generator in (x, p_x, y, p_y) ordering.

    d(x, y)/dt = k·[[1, −2], [2, −1]]·(x, y) and
    d(p_x, p_y)/dt = k·[[−1, −2], [2, 1]]·(p_x, p_y); the blocks decouple.
    Each block squares to −3k²·I, so the flow closes on cos/sin of √3·k·t.
    """
    return np.array(
        [
            [k, 0.0, -2.0 * k, 0.0],
            [0.0, -k, 0.0, -2.0 * k],
            [2.0 * k, 0.0, -k, 0.0],
            [0.0, 2.0 * k, 0.0, k],
        ]
    )


def interaction_map(k: float, tau: float) -> np.ndarray:
    """exp(generator·τ), evaluated analytically.

    The unit-coupling generator G = interaction_generator(1.0) squares to
    −3·I (block by block), so exp(kτ·G) = cos(√3 kτ)·I + sin(√3 kτ)/√3 · G.
    At kτ = π/(3√3) the position block is [[1, −1], [1, 0]] and the momentum
    block is its inverse transpose [[0, −1], [1, 1]].
    """
    gen1 = interaction_generator(1.0)
    s = math.sqrt(3.0) * k * tau
    # np.diag, not cos·eye: its off-diagonal zeros stay +0.0 when cos < 0.
    return math.sin(s) / math.sqrt(3.0) * gen1 + np.diag([math.cos(s)] * 4)


def symplectic_defect(M: np.ndarray) -> float:
    """max|M·Ω·Mᵀ − Ω| with Ω the (x, p_x, y, p_y) symplectic form."""
    return float(np.max(np.abs(M @ SYMPLECTIC_FORM_4 @ M.T - SYMPLECTIC_FORM_4)))


@dataclass(frozen=True, eq=False)
class TwoModeGaussian:
    """Mean 4-vector and 4×4 covariance in (x, p_x, y, p_y) ordering."""

    mean: np.ndarray
    cov: np.ndarray


def couple(
    system: GaussianState,
    meter: GaussianState,
    k: float,
    tau: float,
    config: PhysConfig = PhysConfig(),
) -> TwoModeGaussian:
    """Joint state after coupling an uncorrelated system-meter product.

    The joint mean and covariance (block diagonal initially) are pushed
    through interaction_map(k, τ). At kτ = π/(3√3) the resulting meter
    marginal variance equals the prior system position variance.
    """
    for name, state in (("system", system), ("meter", meter)):
        _require_valid(name, state, config)
    return _couple(system, meter, _meter_block(meter), interaction_map(k, tau))


def _require_valid(name: str, state: GaussianState, config: PhysConfig) -> None:
    report = validate_state(state, config)
    if not report.ok:
        raise ValueError(f"invalid {name} state: " + "; ".join(report.violations))


def _meter_block(meter: GaussianState) -> np.ndarray:
    """Joint 4×4 covariance with only the meter block filled in."""
    cov = np.zeros((4, 4))
    cov[2:, 2:] = meter.cov
    return cov


def _couple(
    system: GaussianState, meter: GaussianState, meter_block: np.ndarray, M: np.ndarray
) -> TwoModeGaussian:
    """couple() without validation, for a precomputed meter block and map."""
    mean = np.array([system.mean_x, system.mean_p, meter.mean_x, meter.mean_p])
    cov = meter_block.copy()
    cov[:2, :2] = system.cov
    mean = M @ mean
    cov = M @ cov @ M.T
    cov = 0.5 * (cov + cov.T)
    return TwoModeGaussian(mean=mean, cov=cov)


def meter_marginal(joint: TwoModeGaussian) -> GaussianState:
    """(y, p_y) marginal by block extraction."""
    return GaussianState(
        mean_x=float(joint.mean[2]),
        mean_p=float(joint.mean[3]),
        vxx=float(joint.cov[2, 2]),
        vpp=float(joint.cov[3, 3]),
        vxp=float(joint.cov[2, 3]),
    )


def system_marginal(joint: TwoModeGaussian) -> GaussianState:
    """(x, p_x) marginal by block extraction."""
    return GaussianState(
        mean_x=float(joint.mean[0]),
        mean_p=float(joint.mean[1]),
        vxx=float(joint.cov[0, 0]),
        vpp=float(joint.cov[1, 1]),
        vxp=float(joint.cov[0, 1]),
    )


def read_meter(joint: TwoModeGaussian, y_reading: float) -> GaussianState:
    """Posterior system state after observing the meter position exactly.

    Gaussian conditioning on y = y_reading: the posterior (x, p_x)
    covariance is the Schur complement removing the y row/column (p_y is
    marginalized out), and the mean shifts along the cross covariance. The
    posterior covariance does not depend on the reading. The conditional
    state's overall phase is dropped; no tracked moment depends on it.
    """
    if not math.isfinite(y_reading):
        raise ValueError(f"y_reading must be finite, got {y_reading}")
    vyy = joint.cov[2, 2]
    if vyy <= 0:
        raise ValueError(f"cannot condition: meter position variance {vyy} is not positive")
    cross = joint.cov[[0, 1], 2]
    post_cov = joint.cov[:2, :2] - np.outer(cross, cross) / vyy
    post_mean = joint.mean[:2] + cross * (y_reading - joint.mean[2]) / vyy
    return GaussianState(
        mean_x=float(post_mean[0]),
        mean_p=float(post_mean[1]),
        vxx=float(post_cov[0, 0]),
        vpp=float(post_cov[1, 1]),
        vxp=float(0.5 * (post_cov[0, 1] + post_cov[1, 0])),
    )


class ConfigError(ValueError):
    """A protocol configuration field is missing or violates a constraint."""

    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


class RegimeError(RuntimeError):
    """Strict mode: regime warnings promoted to an error."""


@dataclass(frozen=True)
class OzawaConfig:
    """Parameters of a repeated-measurement run.

    T = None selects the automatic schedule T − τ = contraction horizon of
    the meter preparation (t_M for a free mass, t_M′/ω for oscillators).
    mode = "mean" replaces sampling with the deterministic marginal-mean
    reading; with mode = "sample" readings are drawn from the meter marginal
    using the seed.
    """

    k: float
    tau: float
    N: int
    Omega: float
    delta_tau: float
    system: SystemModel
    meter_variances: tuple[float, float]
    initial_system: GaussianState
    seed: int = 0
    hbar: float = 1.0
    T: Optional[float] = None
    mode: str = "sample"

    def __post_init__(self) -> None:
        if not isinstance(self.system, (FreeMass, Oscillator, DimensionlessOscillator)):
            raise ConfigError("system", f"unknown system model {self.system!r}")
        for name, value in self._numeric_fields():
            if not math.isfinite(value):
                raise ConfigError(name, f"must be finite, got {value}")
        if not self.hbar > 0:
            raise ConfigError("hbar", f"must be > 0, got {self.hbar}")
        if isinstance(self.system, DimensionlessOscillator) and self.hbar != 1.0:
            raise ConfigError("hbar", "must be 1 for a dimensionless oscillator system")
        if not self.k > 0:
            raise ConfigError("k", f"must be > 0, got {self.k}")
        if not self.tau > 0:
            raise ConfigError("tau", f"must be > 0, got {self.tau}")
        if not (isinstance(self.N, int) and self.N >= 1):
            raise ConfigError("N", f"must be an integer >= 1, got {self.N!r}")
        if self.Omega < 0:
            raise ConfigError("Omega", f"must be >= 0, got {self.Omega}")
        if self.delta_tau < 0:
            raise ConfigError("delta_tau", f"must be >= 0, got {self.delta_tau}")
        vyy0, vpp_y0 = self.meter_variances
        if not vyy0 > 0 or not vpp_y0 > 0:
            raise ConfigError(
                "meter_variances", f"must be positive, got ({vyy0}, {vpp_y0})"
            )
        hb = self._hbar_eff()
        if vyy0 * vpp_y0 < 0.25 * hb * hb * (1.0 - 1e-12):
            raise ConfigError(
                "meter_variances",
                f"uncertainty product {vyy0 * vpp_y0:.6g} below hbar^2/4 = {0.25 * hb * hb:.6g}",
            )
        if self.T is not None and not self.T > self.tau:
            raise ConfigError("T", f"must exceed tau = {self.tau}, got {self.T}")
        if self.mode not in ("sample", "mean"):
            raise ConfigError("mode", f"must be 'sample' or 'mean', got {self.mode!r}")
        report = validate_state(self.initial_system, PhysConfig(hb))
        if not report.ok:
            raise ConfigError("initial_system", "; ".join(report.violations))

    def _numeric_fields(self) -> Iterator[tuple[str, float]]:
        """(name, value) of every float field, nested ones as "parent.child"."""
        for name in ("k", "tau", "Omega", "delta_tau", "hbar"):
            yield name, getattr(self, name)
        if self.T is not None:
            yield "T", self.T
        yield from zip(("meter_variances.vyy0", "meter_variances.vpp_y0"), self.meter_variances)
        for name, value in vars(self.system).items():
            yield f"system.{name}", value
        for name, value in self.initial_system.to_dict().items():
            yield f"initial_system.{name}", value

    def _hbar_eff(self) -> float:
        return 1.0 if isinstance(self.system, DimensionlessOscillator) else self.hbar

    def meter_state(self) -> GaussianState:
        """Contractive meter preparation: ⟨y⟩ = ⟨p_y⟩ = 0 and
        vxp = −½√(4·vyy0·vpp_y0 − ħ²) (lower-envelope side)."""
        vyy0, vpp_y0 = self.meter_variances
        hb = self._hbar_eff()
        vxp = -0.5 * math.sqrt(max(4.0 * vyy0 * vpp_y0 - hb * hb, 0.0))
        return GaussianState(mean_x=0.0, mean_p=0.0, vxx=vyy0, vpp=vpp_y0, vxp=vxp)

    def contraction_horizon(self) -> float:
        """Time the collapsed system stays at or below the meter's vxx."""
        vyy0, vpp_y0 = self.meter_variances
        if isinstance(self.system, FreeMass):
            return contraction_time_free(vyy0, vpp_y0, self.system.m, self.hbar)
        if isinstance(self.system, Oscillator):
            scale = self.system.m * self.system.omega
            v_x = vyy0 * scale / self.hbar
            v_p = vpp_y0 / (scale * self.hbar)
            return contraction_phase_osc(v_x, v_p) / self.system.omega
        if self.system.omega == 0.0:
            raise ConfigError("system", "auto schedule undefined for omega = 0")
        return contraction_phase_osc(vyy0, vpp_y0) / self.system.omega

    def period(self) -> float:
        """Measurement period T; auto mode sets T − τ to the horizon."""
        if self.T is not None:
            return self.T
        horizon = self.contraction_horizon()
        if horizon <= 0.0:
            raise ConfigError(
                "meter_variances",
                "zero contraction horizon (minimal-uncertainty meter); give T explicitly",
            )
        return self.tau + horizon

    @classmethod
    def from_dict(cls, raw: dict) -> "OzawaConfig":
        """Build and validate from the JSON config schema (see schemas/)."""
        if not isinstance(raw, dict):
            raise ConfigError("config", f"expected a JSON object, got {type(raw).__name__}")
        version = raw.get("version", 1)
        if version != 1:
            raise ConfigError("version", f"unsupported config version {version!r}")

        def need(name, kind, node=raw, where=""):
            label = f"{where}{name}"
            if name not in node:
                raise ConfigError(label, "missing required field")
            value = node[name]
            if kind is float:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ConfigError(label, f"expected a number, got {value!r}")
                return float(value)
            if kind is int:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ConfigError(label, f"expected an integer, got {value!r}")
                return value
            if kind is dict:
                if not isinstance(value, dict):
                    raise ConfigError(label, f"expected an object, got {value!r}")
                return value
            raise AssertionError(kind)

        sys_node = need("system", dict)
        variant = sys_node.get("variant")
        if variant == "free_mass":
            system: SystemModel = FreeMass(m=need("m", float, sys_node, "system."))
        elif variant == "oscillator":
            system = Oscillator(
                m=need("m", float, sys_node, "system."),
                omega=need("omega", float, sys_node, "system."),
            )
        elif variant == "dimensionless_oscillator":
            system = DimensionlessOscillator(omega=need("omega", float, sys_node, "system."))
        else:
            raise ConfigError(
                "system.variant",
                f"must be one of free_mass | oscillator | dimensionless_oscillator, got {variant!r}",
            )

        meter_node = need("meter_variances", dict)
        meter = (
            need("vyy0", float, meter_node, "meter_variances."),
            need("vpp_y0", float, meter_node, "meter_variances."),
        )
        init_node = need("initial_system", dict)
        try:
            initial = GaussianState.from_dict(init_node)
        except KeyError as exc:
            raise ConfigError(f"initial_system.{exc.args[0]}", "missing required field") from exc

        t_raw = raw.get("T", "auto")
        if t_raw == "auto" or t_raw is None:
            T = None
        elif isinstance(t_raw, (int, float)) and not isinstance(t_raw, bool):
            T = float(t_raw)
        else:
            raise ConfigError("T", f"expected a number or 'auto', got {t_raw!r}")

        mode = raw.get("mode", "sample")
        if not isinstance(mode, str):
            raise ConfigError("mode", f"expected a string, got {mode!r}")

        try:
            return cls(
                k=need("k", float),
                tau=need("tau", float),
                N=need("N", int),
                Omega=need("Omega", float),
                delta_tau=need("delta_tau", float),
                system=system,
                meter_variances=meter,
                initial_system=initial,
                seed=need("seed", int),
                hbar=float(raw.get("hbar", 1.0)),
                T=T,
                mode=mode,
            )
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError("config", str(exc)) from exc


def check_regime(config: OzawaConfig) -> list[str]:
    """Advisory warnings where the zero-free-Hamiltonian idealization frays.

    The conditions δτ ≪ 1/k and k·τ = π/(3√3) and τ·max(Ω, ω_eff) ≪ 1 are
    checked with "≪" read as a factor of ten (threshold 0.1); the timing dose
    itself is held to 1e−9 relative. For a free mass the effective system
    rate is ω_eff = σP/(m·σX) of the initial state.
    """
    warnings = []
    dose = config.k * config.tau
    rel = abs(dose - TRANSFER_KTAU) / TRANSFER_KTAU
    if rel > 1e-9:
        warnings.append(
            f"interaction timing: k*tau = {dose:.12g} deviates from pi/(3*sqrt(3)) "
            f"by {rel:.3g} relative; position transfer is no longer exact"
        )
    jitter = config.delta_tau * config.k
    if jitter > 0.1:
        warnings.append(
            f"timing jitter: delta_tau*k = {jitter:.3g} exceeds 0.1; "
            "the dose condition cannot be held"
        )
    if isinstance(config.system, FreeMass):
        s = config.initial_system
        omega_eff = math.sqrt(s.vpp) / (config.system.m * math.sqrt(s.vxx))
    else:
        omega_eff = config.system.omega
    drift = config.tau * max(config.Omega, omega_eff)
    if drift > 0.1:
        warnings.append(
            f"free Hamiltonian non-negligible during measurement: "
            f"tau*max(Omega, omega_eff) = {drift:.3g} exceeds 0.1"
        )
    return warnings


@dataclass(frozen=True)
class StepRecord:
    """One measurement: state before coupling, reading, state after collapse."""

    index: int
    time: float
    y_reading: float
    pre: GaussianState
    post: GaussianState
    meter: GaussianState


@dataclass(frozen=True)
class ProtocolTrace:
    """Per-measurement records of a protocol run."""

    steps: tuple[StepRecord, ...]

    def csv_lines(self) -> Iterator[str]:
        """The trace CSV one newline-terminated line at a time: the header,
        then one row per measurement with floats at 17 significant digits."""
        yield "i,t,y_reading,vxx_pre,vxp_pre,vpp_pre,vxx_post,vxp_post,vpp_post,vyy_meter\n"
        for s in self.steps:
            pre, post = s.pre, s.post
            yield (
                f"{s.index},{s.time:.17g},{s.y_reading:.17g},"
                f"{pre.vxx:.17g},{pre.vxp:.17g},{pre.vpp:.17g},"
                f"{post.vxx:.17g},{post.vxp:.17g},{post.vpp:.17g},{s.meter.vxx:.17g}\n"
            )

    def to_csv(self) -> str:
        return "".join(self.csv_lines())


def run_protocol(config: OzawaConfig, strict: bool = False) -> ProtocolTrace:
    """Execute N couple → read → collapse → free-evolution rounds.

    Each round uses a freshly prepared contractive meter, draws the reading
    from the meter marginal (or takes its mean in deterministic mode),
    conditions the system on it, and lets the system evolve freely for
    T − τ. Runs are deterministic given the config, seed included. With the
    automatic schedule the pre-measurement position variance at rounds 2..N
    equals the meter preparation variance exactly (up to rounding).

    Regime violations are warnings unless strict, which raises RegimeError.
    The meter-variance transfer identity is asserted at every step whenever
    the timing dose is exact.

    The coupling map and the meter preparation are built and validated once
    per run; each round validates its pre-measurement system state. The
    result is bit-identical to chaining couple → meter_marginal → read_meter
    → evolve by hand with rng.normal draws. ProtocolTrace.csv_lines() streams
    the trace as CSV row by row, which is how `quvar ozawa` writes it.
    """
    warnings = check_regime(config)
    if strict and warnings:
        raise RegimeError("; ".join(warnings))
    pconf = PhysConfig(config._hbar_eff())
    period = config.period()
    wait = period - config.tau
    timing_exact = abs(config.k * config.tau - TRANSFER_KTAU) <= 1e-9 * TRANSFER_KTAU
    # Loop invariants: the coupling map, the validated meter preparation in
    # its covariance block, and (sample mode) the whole normal stream. One
    # batched standard_normal draw gives the same doubles as N successive
    # rng.normal(mean, sd) calls, since those compute mean + sd·z as well.
    M = interaction_map(config.k, config.tau)
    meter = config.meter_state()
    _require_valid("meter", meter, pconf)
    meter_block = _meter_block(meter)
    rng = np.random.default_rng(config.seed)  # validates the seed in mean mode too
    if config.mode == "sample":
        normals = rng.standard_normal(config.N).tolist()
    system = config.initial_system
    records = []
    for i in range(1, config.N + 1):
        _require_valid("system", system, pconf)
        joint = _couple(system, meter, meter_block, M)
        marginal = meter_marginal(joint)
        if config.mode == "mean":
            reading = marginal.mean_x
        else:
            reading = marginal.mean_x + math.sqrt(marginal.vxx) * normals[i - 1]
        post = read_meter(joint, reading)
        if timing_exact:
            transfer_err = abs(marginal.vxx - system.vxx)
            if transfer_err > 1e-10 * max(1.0, abs(system.vxx)):
                raise RuntimeError(
                    f"variance transfer violated at step {i}: "
                    f"|vyy_meter - vxx_pre| = {transfer_err:.3g}"
                )
        records.append(
            StepRecord(
                index=i,
                time=(i - 1) * period,
                y_reading=reading,
                pre=system,
                post=post,
                meter=marginal,
            )
        )
        system = evolve(post, config.system, wait, pconf)
    return ProtocolTrace(steps=tuple(records))


# ---------------------------------------------------------------------------
# Two-mode grid oracle. The coupling's position block maps positions to
# positions with unit determinant, so the joint wavefunction after time τ is
# the initial product evaluated at the inverse position map (a point
# transformation; no Jacobian factor). Moments computed from that sampled
# surface by quadrature are the independent check on the covariance algebra.
# ---------------------------------------------------------------------------


def _gauss_1d(xi: np.ndarray, width: complex, mean_x: float, mean_p: float, hbar: float):
    dev = xi - mean_x
    return (width.real / (math.pi * hbar)) ** 0.25 * np.exp(
        1j * mean_p * xi / hbar - width * dev * dev / (2.0 * hbar)
    )


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
    x0 = inv[0, 0] * x + inv[0, 1] * y
    y0 = inv[1, 0] * x + inv[1, 1] * y
    return _gauss_1d(x0, system_width, system_mean[0], system_mean[1], hbar) * _gauss_1d(
        y0, meter_width, meter_mean[0], meter_mean[1], hbar
    )


def _integrate_2d(f: np.ndarray, dx: float, dy: float) -> float:
    return float(np.trapezoid(np.trapezoid(f, dx=dy, axis=1), dx=dx))


def joint_moments(
    amps: np.ndarray, grid_x: Grid, grid_y: Grid, hbar: float = 1.0
) -> tuple[TwoModeGaussian, float]:
    """Mean 4-vector and 4×4 covariance of a two-mode wavefunction.

    Position moments by 2D trapezoid quadrature; momentum operators applied
    spectrally along their axes; mixed covariances as real parts of operator
    products (symmetrized automatically). Returns (moments, quadrature norm).
    """
    dx, dy = grid_x.dx, grid_y.dx
    x = grid_x.points()[:, None]
    y = grid_y.points()[None, :]
    dens = np.abs(amps) ** 2
    norm = _integrate_2d(dens, dx, dy)

    mx = _integrate_2d(x * dens, dx, dy) / norm
    my = _integrate_2d(y * dens, dx, dy) / norm
    dev_x = x - mx
    dev_y = y - my

    px = grid_x.momenta(hbar)[:, None]
    py = grid_y.momenta(hbar)[None, :]
    px_amps = np.fft.ifft(px * np.fft.fft(amps, axis=0), axis=0)
    py_amps = np.fft.ifft(py * np.fft.fft(amps, axis=1), axis=1)
    conj = np.conj(amps)
    mpx = _integrate_2d(np.real(conj * px_amps), dx, dy) / norm
    mpy = _integrate_2d(np.real(conj * py_amps), dx, dy) / norm
    dpx_amps = px_amps - mpx * amps
    dpy_amps = py_amps - mpy * amps

    cov = np.zeros((4, 4))
    cov[0, 0] = _integrate_2d(dev_x**2 * dens, dx, dy) / norm
    cov[2, 2] = _integrate_2d(dev_y**2 * dens, dx, dy) / norm
    cov[0, 2] = _integrate_2d(dev_x * dev_y * dens, dx, dy) / norm
    cov[1, 1] = _integrate_2d(np.abs(dpx_amps) ** 2, dx, dy) / norm
    cov[3, 3] = _integrate_2d(np.abs(dpy_amps) ** 2, dx, dy) / norm
    cov[1, 3] = _integrate_2d(np.real(np.conj(dpx_amps) * dpy_amps), dx, dy) / norm
    cov[0, 1] = _integrate_2d(np.real(conj * dev_x * dpx_amps), dx, dy) / norm
    cov[0, 3] = _integrate_2d(np.real(conj * dev_x * dpy_amps), dx, dy) / norm
    cov[1, 2] = _integrate_2d(np.real(conj * dev_y * dpx_amps), dx, dy) / norm
    cov[2, 3] = _integrate_2d(np.real(conj * dev_y * dpy_amps), dx, dy) / norm
    cov = cov + np.triu(cov, 1).T

    mean = np.array([mx, mpx, my, mpy])
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
