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
This is asserted at runtime and cross-checked in the test suite against the
two-mode wavefunction oracle (quvar.sample_joint, joint_moments,
slice_at_y). The oracle imports this module, never the other way round.

Free Hamiltonians are treated as exactly zero while the coupling is on; the
regime checker quantifies when that idealization is defensible. Between
measurements the system evolves freely, and scheduling the gaps at the
contraction horizon of the meter state keeps the pre-measurement position
variance from ever exceeding the meter's.
"""

from __future__ import annotations

import contextlib
import math
import struct
from dataclasses import asdict, dataclass, fields
from typing import Iterator, Optional

import numpy as np

from .bounds import contraction_phase_osc, contraction_time_free, sqrt_uncertainty_excess
from .gaussian import (
    DimensionlessOscillator,
    FreeMass,
    GaussianState,
    Oscillator,
    PhysConfig,
    SystemModel,
    validate_state,
)

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
    M = interaction_map(k, tau)
    mean = M @ np.array([system.mean_x, system.mean_p, meter.mean_x, meter.mean_p])
    return TwoModeGaussian(mean=mean, cov=_joint_cov(system, meter, M))


def _joint_cov(system: GaussianState, meter: GaussianState, M: np.ndarray) -> np.ndarray:
    """M·(system ⊕ meter)·Mᵀ, symmetrized: the covariance of the coupled product."""
    cov = np.zeros((4, 4))
    cov[:2, :2] = system.cov
    cov[2:, 2:] = meter.cov
    cov = M @ cov @ M.T
    return 0.5 * (cov + cov.T)


def _require_valid(name: str, state: GaussianState, config: PhysConfig) -> None:
    report = validate_state(state, config)
    if not report.ok:
        raise ValueError(f"invalid {name} state: " + "; ".join(report.violations))


def _marginal(joint: TwoModeGaussian, i: int) -> GaussianState:
    """The (mean_x, mean_p, vxx, vpp, vxp) of the mode at rows i, i + 1."""
    j, m, c = i + 1, joint.mean, joint.cov
    return GaussianState(float(m[i]), float(m[j]), float(c[i, i]), float(c[j, j]), float(c[i, j]))


def meter_marginal(joint: TwoModeGaussian) -> GaussianState:
    """(y, p_y) marginal by block extraction."""
    return _marginal(joint, 2)


def system_marginal(joint: TwoModeGaussian) -> GaussianState:
    """(x, p_x) marginal by block extraction."""
    return _marginal(joint, 0)


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
    return GaussianState.from_moments(post_mean, post_cov)


class ConfigError(ValueError):
    """A protocol configuration field is missing or violates a constraint."""

    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


class RegimeError(RuntimeError):
    """Strict mode: regime warnings promoted to an error."""


_MODELS = {"free_mass": FreeMass, "oscillator": Oscillator,
           "dimensionless_oscillator": DimensionlessOscillator}


def _model(system: dict) -> SystemModel:
    """The model a schema-checked system object names."""
    model = _MODELS[system["variant"]]
    try:  # the model's own rule: a finite, nonzero (mω)²
        return model(**{f.name: float(system[f.name]) for f in fields(model)})
    except ValueError as exc:
        raise ConfigError("system", str(exc)) from exc


# Each field as the run holds it, from its JSON value (3.0 is an integer; "auto" is None).
_FIELDS = dict(k=float, tau=float, N=int, Omega=float, delta_tau=float, seed=int, hbar=float,
               T=lambda t: None if t in (None, "auto") else float(t), system=_model,
               meter_variances=lambda m: (float(m["vyy0"]), float(m["vpp_y0"])),
               initial_system=lambda s: GaussianState(
                   *(float(s[f.name]) for f in fields(GaussianState))))


def _check(raw: dict) -> None:
    """Check a config's JSON object against ozawa_config.schema.json. The
    checker is imported on first use: commands that build no config never
    compile it."""
    from ._schema import check, config_schema

    check(raw, config_schema())


@dataclass(frozen=True)
class OzawaConfig:
    """Parameters of a repeated-measurement run.

    T = None (or "auto") selects the automatic schedule T − τ = contraction
    horizon of the meter preparation (t_M for a free mass, t_M′/ω for
    oscillators). mode = "mean" replaces sampling with the deterministic
    marginal-mean reading; with mode = "sample" readings are drawn from the
    meter marginal using the seed. system, meter_variances (or any pair) and
    initial_system may be given as their JSON objects. Construction checks
    to_dict() against the schema (per-field rules), then the cross-field rules.
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
        raw = self.to_dict()
        _check(raw)
        for name, held in _FIELDS.items():
            object.__setattr__(self, name, held(raw[name]))
        if self.system._hbar(self.hbar) != self.hbar:
            raise ConfigError("hbar", "must be 1 for a dimensionless oscillator system")
        try:
            meter = self.meter_state()
        except ValueError as exc:
            raise ConfigError("meter_variances", str(exc)) from exc
        if not math.isfinite(meter.vxp):  # 4·vyy0·vpp_y0 (or ħ²) overflowed, for any T
            raise ConfigError(
                "meter_variances", f"sqrt(4*vyy0*vpp_y0 - hbar^2) overflows: vxp = {meter.vxp}"
            )
        if self.T is not None:
            wait = self.T - self.tau
            if not wait > 0:
                raise ConfigError("T", f"must exceed tau = {self.tau}, got {self.T}")
            try:  # an overflowing phase ωt raises; the collapse leaves the meter's covariance
                M = self.system._flow(wait)
                with np.errstate(all="ignore"):
                    if not np.isfinite(M @ meter.cov @ M.T).all():
                        raise ValueError(f"meter covariance overflows over T - tau = {wait}")
            except ValueError as exc:
                raise ConfigError("T", str(exc)) from exc
        report = validate_state(self.initial_system, PhysConfig(self.hbar))
        if not report.ok:
            raise ConfigError("initial_system", "; ".join(report.violations))

    def to_dict(self) -> dict:
        """The JSON object from_dict reads. A field of any other kind is written
        as it is, for the schema check to name."""
        meter, init, names = self.meter_variances, self.initial_system, ("vyy0", "vpp_y0")
        variant = next((v for v, cls in _MODELS.items() if cls in type(self.system).__mro__), None)
        with contextlib.suppress(TypeError, ValueError):  # any (vyy0, vpp_y0) pair
            meter = meter if isinstance(meter, dict) else dict(zip(names, meter, strict=True))
        return {
            "version": 1,
            **vars(self),
            "system": {"variant": variant, **asdict(self.system)} if variant else self.system,
            "meter_variances": meter,
            "initial_system": init.to_dict() if isinstance(init, GaussianState) else init,
        }

    def meter_state(self) -> GaussianState:
        """Contractive meter preparation: ⟨y⟩ = ⟨p_y⟩ = 0 and
        vxp = −½√(4·vyy0·vpp_y0 − ħ²) (lower-envelope side)."""
        vyy0, vpp_y0 = self.meter_variances
        vxp = -0.5 * sqrt_uncertainty_excess(vyy0, vpp_y0, self.hbar)
        return GaussianState(mean_x=0.0, mean_p=0.0, vxx=vyy0, vpp=vpp_y0, vxp=vxp)

    def contraction_horizon(self) -> float:
        """Time the collapsed system stays at or below the meter's vxx."""
        vyy0, vpp_y0 = self.meter_variances
        if isinstance(self.system, FreeMass):
            return contraction_time_free(vyy0, vpp_y0, self.system.m, self.hbar)
        if self.system.omega == 0.0:
            raise ConfigError("system", "auto schedule undefined for omega = 0")
        # Rotation: the horizon is a phase of the quadratures x = √(s/ħ)·X.
        scale = self.system._scale
        v_x = vyy0 * scale / self.hbar
        v_p = vpp_y0 / (scale * self.hbar)
        return contraction_phase_osc(v_x, v_p) / self.system.omega

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
        """Build from a JSON config. The schema ozawa_config.schema.json in this
        package holds the per-field rules; the constructor adds the cross-field ones."""
        _check(raw)
        # Absent optional fields keep the defaults: hbar 1.0, T "auto" (None), mode "sample".
        return cls(**{name: raw[name] for name in (*_FIELDS, "mode") if name in raw})


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
        then one row per measurement with floats at 17 significant digits.
        The seven covariance cells are formatted again only when their bits
        differ from the previous row's (a bits compare keeps -0 apart from 0)."""
        yield "i,t,y_reading,vxx_pre,vxp_pre,vpp_pre,vxx_post,vxp_post,vpp_post,vyy_meter\n"
        last = None
        for s in self.steps:
            pre, post = s.pre, s.post
            cov = pre.vxx, pre.vxp, pre.vpp, post.vxx, post.vxp, post.vpp, s.meter.vxx
            bits = struct.pack("7d", *cov)
            if bits != last:
                last, cells = bits, "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % cov
            yield f"{s.index},{s.time:.17g},{s.y_reading:.17g},{cells}\n"

    def to_csv(self) -> str:
        return "".join(self.csv_lines())


def _covariance_step(cov: tuple, meter: GaussianState, M: np.ndarray, F: np.ndarray,
                     pconf: PhysConfig) -> tuple:
    """The reading-independent half of a round for the pre-measurement
    covariance (vxx, vpp, vxp): couple's, read_meter's and evolve's covariance
    arithmetic, with the run's coupling map M and free flow F. It runs inside
    run_protocol's np.errstate, so an overflow is named rather than warned
    about. No covariance operation reads a mean, so these are the round's own
    covariances bit for bit. Returns the cross terms c02, c12, the meter
    marginal's (vyy, vpp, vyp), the posterior's (vxx, vpp, vxp), the next
    pre-measurement one and ok, flat: ok is False unless the posterior
    covariance validates (with any finite means) and the next one is finite."""
    c = _joint_cov(GaussianState(0.0, 0.0, *cov), meter, M).tolist()
    c02, c12, vyy = c[0][2], c[1][2], c[2][2]
    if vyy <= 0:
        raise ValueError(f"cannot condition: meter position variance {vyy} is not positive")
    # read_meter's Schur complement and from_moments' symmetrization, elementwise.
    xp = c[0][1] - c02 * c12 / vyy
    post = c[0][0] - c02 * c02 / vyy, c[1][1] - c12 * c12 / vyy, 0.5 * (xp + xp)
    q = GaussianState(0.0, 0.0, *post)
    n = (F @ q.cov @ F.T).tolist()
    n = n[0][0], n[1][1], 0.5 * (n[0][1] + n[1][0])
    ok = validate_state(q, pconf).ok and all(map(math.isfinite, n))
    return c02, c12, vyy, c[3][3], c[2][3], *post, *n, ok


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

    The coupling map, the free flow over T − τ and the meter preparation are
    built and validated once per run. The covariance recursion does not
    depend on the readings (a Kalman/Riccati map), so each round splits in
    two: the covariance step runs once per distinct pre-measurement
    covariance, keyed by its exact bits (−0.0 is not 0.0), and only the means
    are computed every round. At the transfer dose the recursion settles at
    once, so a run visits a handful of covariances. The state checks split
    the same way: the covariance half of the pre-measurement and posterior
    checks runs with the covariance step, and a round that reuses a step
    checks only that its means (and its reading) are finite. Any failure
    runs the full check at the same point of the round, so every error keeps
    its message and its round. A posterior covariance that the free flow
    overflows is named at the end of its round: ValueError "round i: …". A
    mean that it overflows fails the next round's system check, or after
    the last round ValueError "round N: posterior mean overflows …". The
    loop runs under one np.errstate, so no numpy warning escapes.
    The result is bit-identical to chaining couple → meter_marginal →
    read_meter → evolve by hand with rng.normal draws.
    ProtocolTrace.csv_lines() streams the trace as CSV row by row, which is
    how `quvar ozawa` writes it.
    """
    warnings = check_regime(config)
    if strict and warnings:
        raise RegimeError("; ".join(warnings))
    pconf = PhysConfig(config.hbar)
    period = config.period()
    wait = period - config.tau
    timing_exact = abs(config.k * config.tau - TRANSFER_KTAU) <= 1e-9 * TRANSFER_KTAU
    # Loop invariants: the coupling map and the free flow for the means, the
    # validated meter preparation, and (sample mode) the whole normal stream.
    # One batched standard_normal draw gives the same doubles as N successive
    # rng.normal(mean, sd) calls, since those compute mean + sd·z as well.
    M = interaction_map(config.k, config.tau)
    F = config.system._flow(wait)
    meter = config.meter_state()
    _require_valid("meter", meter, pconf)
    rng = np.random.default_rng(config.seed)  # validates the seed in mean mode too
    if config.mode == "sample":
        normals = rng.standard_normal(config.N).tolist()
    steps = {}  # exact bits of a pre-measurement covariance -> its covariance step
    system = config.initial_system
    records = []
    # One np.errstate for the whole loop: an overflowing mean or covariance is
    # named by the checks below, never warned about.
    with np.errstate(all="ignore"):
        for i in range(1, config.N + 1):
            cov = system.vxx, system.vpp, system.vxp
            key = struct.pack("3d", *cov)  # unlike ==, the bits tell -0.0 from 0.0
            step = steps.get(key)
            # A stored covariance has passed this check: only the means can fail it.
            if step is None or not math.isfinite(system.mean_x + system.mean_p):
                _require_valid("system", system, pconf)
                step = steps[key] = step or _covariance_step(cov, meter, M, F, pconf)
            c02, c12, vyy, vpp_y, vyp, pxx, ppp, pxp, nxx, npp, nxp, ok = step
            # The mean step: couple's, read_meter's and evolve's mean arithmetic.
            mean = (
                M @ np.array([system.mean_x, system.mean_p, meter.mean_x, meter.mean_p])
            ).tolist()
            marginal = GaussianState(mean[2], mean[3], vyy, vpp_y, vyp)
            reading = mean[2]
            if config.mode == "sample":
                reading += math.sqrt(vyy) * normals[i - 1]
            if not math.isfinite(reading):
                raise ValueError(f"y_reading must be finite, got {reading}")
            shift = reading - mean[2]
            post = GaussianState(
                mean[0] + c02 * shift / vyy, mean[1] + c12 * shift / vyy, pxx, ppp, pxp
            )
            if timing_exact:
                transfer_err = abs(vyy - system.vxx)
                if transfer_err > 1e-10 * max(1.0, abs(system.vxx)):
                    raise RuntimeError(
                        f"variance transfer violated at step {i}: "
                        f"|vyy_meter - vxx_pre| = {transfer_err:.3g}"
                    )
            records.append(StepRecord(i, (i - 1) * period, reading, system, post, marginal))
            if not (ok and math.isfinite(post.mean_x + post.mean_p)):
                _require_valid("posterior", post, pconf)
                if not ok:  # a valid posterior: the next covariance overflowed
                    raise ValueError(
                        f"round {i}: posterior covariance overflows over T - tau = {wait}"
                    )
            mean = (F @ np.array([post.mean_x, post.mean_p])).tolist()
            system = GaussianState(mean[0], mean[1], nxx, npp, nxp)
    # A round's evolved mean is checked by the next round; the last round's here.
    if not (math.isfinite(system.mean_x) and math.isfinite(system.mean_p)):
        raise ValueError(f"round {config.N}: posterior mean overflows over T - tau = {wait}")
    return ProtocolTrace(steps=tuple(records))
