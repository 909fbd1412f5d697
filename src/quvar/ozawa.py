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
from typing import Optional

import numpy as np

from ._trace import ROW, ProtocolTrace, StepRecord
from .bounds import contraction_phase_osc, contraction_time_free, sqrt_uncertainty_excess
from .gaussian import (
    DimensionlessOscillator,
    FreeMass,
    GaussianState,
    Oscillator,
    PhysConfig,
    SystemModel,
    _require_valid,
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
    "OzawaConfig",
    "check_regime",
    "StepRecord",
    "ProtocolTrace",
    "run_protocol",
]

# Coupling dose at which the position block is exactly x → x − y, y → x.
TRANSFER_KTAU = math.pi / (3.0 * math.sqrt(3.0))
# The relative dose error up to which the timing counts as exact: check_regime
# warns beyond it, and run_protocol asserts the transfer identity within it.
_DOSE_TOLERANCE = 1e-9

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
    block is its inverse transpose [[0, −1], [1, 1]]. A dose √3·k·τ that is
    not finite raises ValueError.
    """
    gen1 = interaction_generator(1.0)
    s = math.sqrt(3.0) * k * tau
    if not math.isfinite(s):
        raise ValueError(f"coupling dose is not finite: sqrt(3)*k*tau = {s}, k = {k}, tau = {tau}")
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
        _require_valid(state, config.hbar, name)
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


_MODELS = {"free_mass": FreeMass, "oscillator": Oscillator,
           "dimensionless_oscillator": DimensionlessOscillator}


def _model(system: dict) -> SystemModel:
    """The model a schema-checked system object names."""
    model = _MODELS[system["variant"]]
    try:  # the model's own rule: a finite, nonzero (mω)²
        return model(**{f.name: float(system[f.name]) for f in fields(model)})
    except ValueError as exc:
        raise ConfigError("system", str(exc)) from exc


def _meter_error(exc: ValueError) -> ConfigError:
    """exc, raised in a bounds function's terms vxx0 and vpp0, named in the meter's fields."""
    msg = str(exc).replace("vxx0", "vyy0").replace("vpp0", "vpp_y0")
    return ConfigError("meter_variances", msg)


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
    from ._schema import SCHEMA, check

    check(raw, SCHEMA)


@dataclass(frozen=True)
class OzawaConfig:
    """Parameters of a repeated-measurement run.

    T = None (or "auto") selects the automatic schedule T − τ = contraction
    horizon of the meter preparation (t_M for a free mass, t_M′/ω for
    oscillators). mode = "mean" replaces sampling with the deterministic
    marginal-mean reading; with mode = "sample" readings are drawn from the
    meter marginal using the seed. system, meter_variances (or any pair) and
    initial_system may be given as their JSON objects. Construction checks
    to_dict() against the schema (per-field rules), then the cross-field rules,
    the schedule's (period()) among them: a config that builds can run.
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
        try:  # the coupling map's own check of the dose k·τ
            interaction_map(self.k, self.tau)
        except ValueError as exc:
            raise ConfigError("tau", str(exc)) from exc
        try:
            meter = self.meter_state()
        except ValueError as exc:
            raise _meter_error(exc) from exc
        if not math.isfinite(meter.vxp):  # 4·vyy0·vpp_y0 overflowed, for any T
            raise ConfigError(
                "meter_variances", f"sqrt(4*vyy0*vpp_y0 - hbar^2) overflows: vxp = {meter.vxp}"
            )
        # The schedule's one check, for an explicit and an auto T alike; the
        # run reads the period it returns.
        object.__setattr__(self, "_period", self.period())
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
            **{f.name: getattr(self, f.name) for f in fields(self)},
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
        # The (m, ω) of the model's flow over a unit time; None where it has none.
        pair = self.system._pair(1.0)
        if pair is None:
            raise ConfigError("system", "auto schedule undefined for omega = 0")
        m, omega = pair
        if not omega:
            try:
                return contraction_time_free(vyy0, vpp_y0, m, self.hbar)
            except ValueError as exc:  # t_M overflows
                raise _meter_error(exc) from exc
        # Rotation: the horizon is a phase of the quadratures x = √(s/ħ)·X. The
        # rescale may over- or underflow, so the message quotes the rescaled values.
        scale = self.system._scale
        try:
            v_x = vyy0 * scale / self.hbar
            v_p = vpp_y0 / (scale * self.hbar)
            phase = contraction_phase_osc(v_x, v_p)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError("meter_variances", f"in quadrature units, {exc}") from exc
        return phase / omega

    def period(self) -> float:
        """Measurement period T: the given T, or in auto mode τ + the horizon.

        This is the one check of the schedule. The constructor runs it and
        keeps the period for run_protocol, so a built config can run. For
        either T the wait T − τ must be positive, and the free flow over it
        must be finite (a phase ω(T − τ) that overflows is not) and keep the
        meter covariance finite: the collapse leaves the meter's covariance.
        A failure raises ConfigError naming T, or the meter (a zero or
        non-finite horizon) or the system (ω = 0) where auto mode cannot set
        the horizon.
        """
        T = self.T
        if T is None:
            horizon = self.contraction_horizon()
            if horizon <= 0.0:
                raise ConfigError(
                    "meter_variances",
                    "zero contraction horizon (minimal-uncertainty meter); give T explicitly",
                )
            T = self.tau + horizon
        wait = T - self.tau
        if not wait > 0:
            raise ConfigError("T", f"must exceed tau = {self.tau}, got {T}")
        try:
            M = self.system._flow(wait)
            with np.errstate(all="ignore"):
                if not np.isfinite(M @ self.meter_state().cov @ M.T).all():
                    raise ValueError(f"meter covariance overflows over T - tau = {wait}")
        except ValueError as exc:
            raise ConfigError("T", str(exc)) from exc
        return T

    @classmethod
    def from_dict(cls, raw: dict) -> "OzawaConfig":
        """Build from a JSON config. The schema ozawa_config.schema.json in this
        package holds the per-field rules; the constructor adds the cross-field ones."""
        _check(raw)
        # Absent optional fields keep the defaults: hbar 1.0, T "auto" (None), mode "sample".
        return cls(**{name: raw[name] for name in (*_FIELDS, "mode") if name in raw})


def _dose_error(config: OzawaConfig) -> float:
    """|k·τ − π/(3√3)| relative to π/(3√3)."""
    return abs(config.k * config.tau - TRANSFER_KTAU) / TRANSFER_KTAU


def check_regime(config: OzawaConfig) -> list[str]:
    """Advisory warnings where the zero-free-Hamiltonian idealization frays.

    The conditions δτ ≪ 1/k and k·τ = π/(3√3) and τ·max(Ω, ω_eff) ≪ 1 are
    checked with "≪" read as a factor of ten (threshold 0.1); the timing dose
    itself is held to 1e−9 relative, the one tolerance within which
    run_protocol asserts the transfer identity. ω_eff is the ω of the model's
    (m, ω); at ω = 0 (a free mass) it is σP/(m·σX) of the initial state.
    """
    warnings = []
    dose, rel = config.k * config.tau, _dose_error(config)
    if rel > _DOSE_TOLERANCE:
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
    # ω of the model's (m, ω), or σP/(m·σX) at ω = 0; no flow (no pair) has rate 0.
    m, omega = config.system._pair(1.0) or (math.inf, 0.0)
    s = config.initial_system
    omega_eff = omega or math.sqrt(s.vpp) / (m * math.sqrt(s.vxx))
    drift = config.tau * max(config.Omega, omega_eff)
    if drift > 0.1:
        warnings.append(
            f"free Hamiltonian non-negligible during measurement: "
            f"tau*max(Omega, omega_eff) = {drift:.3g} exceeds 0.1"
        )
    return warnings


def _covariance_step(cov: tuple, meter: GaussianState, M: np.ndarray, F: np.ndarray,
                     pconf: PhysConfig) -> tuple:
    """The reading-independent half of a round for the pre-measurement
    covariance cov = (vxx, vpp, vxp): couple's, read_meter's and evolve's
    covariance arithmetic, with the run's coupling map M and free flow F. It
    runs inside run_protocol's np.errstate, so an overflow is named rather
    than warned about. No covariance operation reads a mean, so these are
    the round's own covariances bit for bit. Returns (cov, the posterior's,
    the meter marginal's, c02, c12, the next pre-measurement covariance,
    ok, √vyy, transfer_err), each covariance (vxx, vpp, vxp) and c02, c12
    the cross terms: ok is False unless the posterior covariance validates
    (with any finite means) and the next one is finite; transfer_err is
    |vyy − vxx| where it breaks the transfer identity's tolerance, else
    None. The tolerance is 1e−10·max(1, |vxx|) plus the map's own
    first-order term |M[2,0]² − 1|·|vxx|, which is 0 at the transfer dose
    and about 1.21·ε·|vxx| at a relative dose error ε."""
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
    err, vxx = abs(vyy - cov[0]), abs(cov[0])
    err = err if err > 1e-10 * max(1.0, vxx) + abs(M[2, 0] ** 2 - 1.0) * vxx else None
    return cov, post, (vyy, c[3][3], c[2][3]), c02, c12, n, ok, math.sqrt(vyy), err


def run_protocol(config: OzawaConfig) -> ProtocolTrace:
    """Execute N couple → read → collapse → free-evolution rounds.

    Each round uses a freshly prepared contractive meter, draws the reading
    from the meter marginal (or takes its mean in deterministic mode),
    conditions the system on it, and lets the system evolve freely for
    T − τ. Runs are deterministic given the config, seed included. With the
    automatic schedule the pre-measurement position variance at rounds 2..N
    equals the meter preparation variance exactly (up to rounding).

    The run does not check the regime: callers report check_regime's
    warnings, as `quvar ozawa` does (its --strict then exits 1). The
    meter-variance transfer identity is asserted at every step whenever
    the timing dose is exact, by the tolerance check_regime holds it to
    (1e−9 relative): a run that check_regime does not warn about asserts it.

    The coupling map, the free flow over T − τ and the meter preparation are
    built once per run. The constructor has checked the schedule and kept
    its period, and the meter is valid by construction, so the run raises no
    ConfigError. The covariance recursion does not depend on the readings (a
    Kalman/Riccati map), so each round splits in two: the covariance step
    runs once per distinct pre-measurement covariance, keyed by its exact
    bits (−0.0 is not 0.0), and only the means are computed every round. At the transfer dose
    the recursion settles at once, so a run visits a handful of covariances.
    The state checks split the same way: the covariance half of the
    pre-measurement and posterior checks runs with the covariance step, and a
    round that reuses a step checks only that its means (and its reading) are
    finite. Any failure runs the full check at the same point of the round, so
    every error keeps its message and its round. A ValueError raised in
    round i reads "round i: " and then its message. A posterior covariance
    that the free flow overflows is named at the end of its round. A mean
    that it overflows fails the next round's system check, or after the
    last round ValueError "round N: posterior mean overflows …". The loop
    runs under one np.errstate, so no numpy warning escapes.
    Each round appends one 64-byte record, laid out as ProtocolTrace
    documents, to a bytearray. The mean step's BLAS
    dgemv writes into four vectors made once per run, as
    M @ np.array([...]) would, so the bits agree.
    The result is bit-identical to chaining couple → meter_marginal →
    read_meter → evolve by hand with rng.normal draws.
    ProtocolTrace.csv_lines() streams the trace as CSV row by row, which is
    how `quvar ozawa` writes it.
    """
    pconf = PhysConfig(config.hbar)
    period = config._period
    wait = period - config.tau
    timing_exact = _dose_error(config) <= _DOSE_TOLERANCE
    # Loop invariants: the coupling map and the free flow for the means, the
    # meter preparation, and (sample mode) the whole normal stream.
    # One batched standard_normal draw gives the same doubles as N successive
    # rng.normal(mean, sd) calls, since those compute mean + sd·z as well. It
    # stays an array, read with .item(): 8 bytes a draw, not a float object.
    M = interaction_map(config.k, config.tau)
    F = config.system._flow(wait)
    meter = config.meter_state()
    sample = config.mode == "sample"
    if sample:
        normals = np.random.default_rng(config.seed).standard_normal(config.N)
    steps = {}  # exact bits of a covariance -> (*its covariance step, its index)
    init = config.initial_system
    mx, mp, cov = init.mean_x, init.mean_p, (init.vxx, init.vpp, init.vxp)
    rows, pack = bytearray(), ROW.pack
    v4, w4 = np.array([0.0, 0.0, meter.mean_x, meter.mean_p]), np.empty(4)
    v2, w2 = np.empty(2), np.empty(2)
    # One np.errstate for the whole loop: an overflowing mean or covariance is
    # named by the checks below, never warned about.
    try:
        with np.errstate(all="ignore"):
            for i in range(1, config.N + 1):
                key = struct.pack("3d", *cov)  # unlike ==, the bits tell -0.0 from 0.0
                step = steps.get(key)
                # A stored covariance has passed this check: only the means can fail it.
                if step is None or not math.isfinite(mx + mp):
                    _require_valid(GaussianState(mx, mp, *cov), config.hbar, "system")
                    step = steps[key] = step or (
                        *_covariance_step(cov, meter, M, F, pconf), len(steps))
                _, post, (vyy, _, _), c02, c12, nxt, ok, sd, transfer_err, j = step
                # The mean step: couple's, read_meter's and evolve's mean arithmetic.
                v4[0], v4[1] = mx, mp
                mean = M.dot(v4, out=w4).tolist()
                reading = mean[2]
                if sample:
                    reading += sd * normals.item(i - 1)
                if not math.isfinite(reading):
                    raise ValueError(f"y_reading must be finite, got {reading}")
                shift = reading - mean[2]
                qx, qp = mean[0] + c02 * shift / vyy, mean[1] + c12 * shift / vyy
                if timing_exact and transfer_err is not None:
                    raise RuntimeError(
                        f"variance transfer violated at step {i}: "
                        f"|vyy_meter - vxx_pre| = {transfer_err:.3g}"
                    )
                rows += pack(reading, mx, mp, qx, qp, mean[2], mean[3], j)
                if not (ok and math.isfinite(qx + qp)):
                    _require_valid(GaussianState(qx, qp, *post), config.hbar, "posterior")
                    if not ok:  # a valid posterior: the next covariance overflowed
                        raise ValueError(f"posterior covariance overflows over T - tau = {wait}")
                v2[0], v2[1] = qx, qp
                mx, mp = F.dot(v2, out=w2).tolist()
                cov = nxt
    except ValueError as exc:
        raise type(exc)(f"round {i}: {exc}") from exc
    # A round's evolved mean is checked by the next round; the last round's here.
    if not (math.isfinite(mx) and math.isfinite(mp)):
        raise ValueError(f"round {config.N}: posterior mean overflows over T - tau = {wait}")
    return ProtocolTrace(rows, list(steps.values()), period)
