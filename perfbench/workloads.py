"""Seeded inputs, CLI invocations and output checks of the quvar benchmark.

Each workload is a fixed batch of ``quvar`` invocations. The seed draws the
physical inputs inside the ranges documented in ``_draw_*`` below; it never
changes the quantities that set the amount of work (table rows, grid size,
number of oracle times, protocol rounds).

Every check here builds its reference from the benchmark's own formulas and
never calls the program's code, so a wrong answer from ``quvar`` cannot be
confirmed by the same wrong code.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Coupling dose k·τ at which the meter position equals the pre-measurement
# system position exactly (Ozawa's back-action-evading transfer).
TRANSFER_KTAU = math.pi / (3.0 * math.sqrt(3.0))

ORACLE_TOLERANCE = 1e-8
# Relative tolerance of the envelope-table reference, on the scale of the
# largest term a²·vxx0 + b²·vpp0 + |ab|·s that enters the envelope: the
# program and the reference round the same formula in different orders.
ENVELOPE_RTOL = 1e-12
# Relative tolerance of the protocol identities, which hold up to the
# rounding of cos/sin at the exact dose.
PROTOCOL_RTOL = 1e-9
OSC_PHASE = 0.39

WORKLOADS = ("envelope_table", "oracle_free", "oracle_osc", "protocol")


@dataclass(frozen=True)
class Size:
    """Quantities that set the amount of work; the seed never changes them."""

    steps: int  # envelope_table: rows per bounds table are steps + 1
    free_n: int  # oracle_free: grid points
    free_times: int  # oracle_free: number of oracle times
    osc_n: int  # oracle_osc: grid points
    rounds: int  # protocol: measurement rounds per config
    probes: int  # setup_s: `--help` probes per run


SIZES = {
    "full": Size(steps=100_000, free_n=2**16, free_times=64, osc_n=2**12, rounds=10_000, probes=5),
    "small": Size(steps=2_000, free_n=2**12, free_times=8, osc_n=2**10, rounds=200, probes=1),
}


@dataclass
class Invocation:
    """One CLI call: its argv, a check of its stdout, and generated config files."""

    argv: list[str]
    check: Callable[[bytes], list[str]]
    files: dict[str, dict] = field(default_factory=dict)  # relative path -> JSON object


def _f(x: float) -> str:
    return repr(float(x))


def _opts(**kw) -> list[str]:
    return [f"--{k.replace('_', '-')}={v}" for k, v in kw.items()]


def _draw_variances(rng: random.Random, hbar: float) -> tuple[float, float]:
    """vxx0 ∈ [0.5, 2]·ħ and vxx0·vpp0 ∈ [1.25, 4]·ħ²/4 (Robertson bound with margin)."""
    vxx0 = rng.uniform(0.5, 2.0) * hbar
    vpp0 = rng.uniform(1.25, 4.0) * 0.25 * hbar * hbar / vxx0
    return vxx0, vpp0


# ---------------------------------------------------------------------------
# envelope_table: `quvar bounds` for each --system, `quvar extremal` for each
# variant. Ranges: ħ, m, ω ∈ [0.5, 2]; t_max ∈ [1, 5]; means ∈ [-1, 1].
# ---------------------------------------------------------------------------


def _flow_row(system: str, t: np.ndarray, m: float, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """First row (a, b) of the phase-space flow matrix: x(t) = a·x0 + b·p0."""
    if system == "free":
        return np.ones_like(t), t / m
    if system == "osc":
        return np.cos(omega * t), np.sin(omega * t) / (m * omega)
    return np.cos(omega * t), np.sin(omega * t)  # osc-dimless: ħ = m_eff·ω = 1


def _parse_csv(stdout: bytes, header: str, ncols: int) -> tuple[np.ndarray | None, list[str]]:
    lines = stdout.decode().splitlines()
    if not lines or lines[0] != header:
        return None, [f"header {lines[:1]!r} != {header!r}"]
    try:
        rows = [[float(c) if c else math.nan for c in line.split(",")] for line in lines[1:]]
        table = np.array(rows, dtype=float).reshape(len(rows), ncols)
    except ValueError as exc:
        return None, [f"unparsable row: {exc}"]
    return table, []


def _check_bounds(system, steps, t_max, vxx0, vpp0, m, omega, hbar):
    def check(stdout: bytes) -> list[str]:
        table, problems = _parse_csv(stdout, "t,lower,upper,sql_line", 4)
        if table is None:
            return problems
        if len(table) != steps + 1:
            return [f"{len(table)} rows, expected {steps + 1}"]
        t = np.arange(steps + 1) * t_max / steps
        a, b = _flow_row(system, t, m, omega)
        s = math.sqrt(4.0 * vxx0 * vpp0 - hbar * hbar)
        center = a * a * vxx0 + b * b * vpp0
        half = np.abs(a * b) * s
        lower, upper = center - half, center + half
        if system == "free":
            # The program snaps rounding dust below the analytic floor ħ²/(4·vpp0).
            lower = np.minimum(np.maximum(lower, hbar * hbar / (4.0 * vpp0)), upper)
        else:
            lower = np.maximum(lower, 0.0)
        atol = ENVELOPE_RTOL * (center + half)
        if not np.array_equal(table[:, 0], t):
            problems.append("t column differs from j*t_max/steps")
        if np.any(table[:, 1] > table[:, 2]):
            problems.append(f"lower > upper on {int(np.sum(table[:, 1] > table[:, 2]))} rows")
        for name, col, ref in (("lower", 1, lower), ("upper", 2, upper)):
            err = np.abs(table[:, col] - ref)
            if not np.all(err <= atol):
                j = int(np.argmax(err - atol))
                problems.append(f"{name} off by {err[j]:.3g} at t={t[j]!r} (tol {atol[j]:.3g})")
        sql = table[:, 3]
        if system == "free":
            if not np.allclose(sql, hbar * t / m, rtol=1e-15, atol=0.0):
                problems.append("sql_line differs from hbar*t/m")
        elif not np.all(np.isnan(sql)):
            problems.append("sql_line must be empty for oscillators")
        return problems

    return check


def _check_extremal(system, sign, vxx0, vpp0, m, hbar, mean_x, mean_p):
    def check(stdout: bytes) -> list[str]:
        try:
            rec = json.loads(stdout)
            state = rec["state"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unparsable record: {exc}"]
        s = math.sqrt(4.0 * vxx0 * vpp0 - hbar * hbar)
        want = {"mean_x": mean_x, "mean_p": mean_p, "vxx": vxx0, "vpp": vpp0, "vxp": -0.5 * sign * s}
        problems = [
            f"state.{k} = {state.get(k)!r}, expected {v!r}"
            for k, v in want.items()
            if not math.isclose(state.get(k, math.nan), v, rel_tol=1e-12, abs_tol=1e-12 * hbar)
        ]
        if system == "free":
            key, ref = "t_contract", m / vpp0 * s
        else:
            key, ref = "phase_contract", math.atan2(s, vpp0 - vxx0)
        if not math.isclose(rec.get(key, math.nan), ref, rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"{key} = {rec.get(key)!r}, expected {ref!r}")
        return problems

    return check


def envelope_table(rng: random.Random, size: Size) -> list[Invocation]:
    calls = []
    for system in ("free", "osc", "osc-dimless"):
        hbar = 1.0 if system == "osc-dimless" else rng.uniform(0.5, 2.0)
        vxx0, vpp0 = _draw_variances(rng, hbar)
        m = rng.uniform(0.5, 2.0)
        omega = rng.uniform(0.5, 2.0)
        t_max = rng.uniform(1.0, 5.0)
        argv = ["bounds", *_opts(system=system)]
        if system != "osc-dimless":
            argv += _opts(m=_f(m), hbar=_f(hbar))
        if system != "free":
            argv += _opts(omega=_f(omega))
        argv += _opts(vxx0=_f(vxx0), vpp0=_f(vpp0), t_max=_f(t_max), steps=size.steps)
        calls.append(Invocation(argv, _check_bounds(system, size.steps, t_max, vxx0, vpp0, m, omega, hbar)))
    for system in ("free", "osc-dimless"):
        hbar = 1.0 if system == "osc-dimless" else rng.uniform(0.5, 2.0)
        vxx0, vpp0 = _draw_variances(rng, hbar)
        m = rng.uniform(0.5, 2.0)
        sign = rng.choice((1, -1))
        mean_x, mean_p = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        argv = ["extremal", *_opts(system=system, sign="+" if sign > 0 else "-")]
        if system == "free":
            argv += _opts(m=_f(m), hbar=_f(hbar))
        argv += _opts(vxx0=_f(vxx0), vpp0=_f(vpp0), mean_x=_f(mean_x), mean_p=_f(mean_p))
        calls.append(Invocation(argv, _check_extremal(system, sign, vxx0, vpp0, m, hbar, mean_x, mean_p)))
    return calls


# ---------------------------------------------------------------------------
# Oracles. The tolerance is passed explicitly so a change of the CLI default
# cannot change the verdict the benchmark asks for.
# ---------------------------------------------------------------------------


def _check_oracle(n_times: int):
    def check(stdout: bytes) -> list[str]:
        lines = stdout.decode().splitlines()
        if len(lines) != n_times + 2 or lines[0] != "t,moment_dev,envelope_dev":
            return [f"{len(lines)} lines, expected header + {n_times} rows + status"]
        if not lines[-1].endswith(": OK"):
            return [f"status line {lines[-1]!r}"]
        try:
            devs = [float(v) for line in lines[1:-1] for v in line.split(",")[1:]]
        except ValueError as exc:
            return [f"unparsable row: {exc}"]
        worst = max(devs)
        if not worst <= ORACLE_TOLERANCE:
            return [f"deviation {worst!r} exceeds tolerance {ORACLE_TOLERANCE!r}"]
        return []

    return check


def max_moment_dev(stdout: bytes) -> float:
    """Largest moment_dev column value of an oracle report (0 if none parses)."""
    worst = 0.0
    for line in stdout.decode().splitlines()[1:-1]:
        cells = line.split(",")
        if len(cells) == 3:
            worst = max(worst, float(cells[1]))
    return worst


def oracle_free(rng: random.Random, size: Size) -> list[Invocation]:
    """ħ, m ∈ [0.5, 2]; t_max ∈ [1, 3]; means ∈ [-1, 1]; contractive or expanding."""
    hbar = rng.uniform(0.5, 2.0)
    vxx0, vpp0 = _draw_variances(rng, hbar)
    argv = [
        "oracle",
        *_opts(system="free", m=_f(rng.uniform(0.5, 2.0)), hbar=_f(hbar), vxx0=_f(vxx0), vpp0=_f(vpp0)),
        *_opts(sign=rng.choice("+-"), mean_x=_f(rng.uniform(-1.0, 1.0)), mean_p=_f(rng.uniform(-1.0, 1.0))),
        *_opts(t_max=_f(rng.uniform(1.0, 3.0)), steps=size.free_times - 1, n=size.free_n),
        *_opts(tolerance=_f(ORACLE_TOLERANCE)),
    ]
    return [Invocation(argv, _check_oracle(size.free_times))]


def oracle_osc(rng: random.Random, size: Size) -> list[Invocation]:
    """One time at phase ωt = 0.39 on the default adaptive split step.

    ω ∈ [0.5, 2]; vxx0 ∈ [0.5, 2]; means ∈ [-1, 1]. Over these ranges the
    refinement stops at 8192 steps (after 4096 + 8192 computed), so the seed
    does not change the work.
    """
    omega = rng.uniform(0.5, 2.0)
    vxx0, vpp0 = _draw_variances(rng, 1.0)
    argv = [
        "oracle",
        *_opts(system="osc-dimless", omega=_f(omega), vxx0=_f(vxx0), vpp0=_f(vpp0)),
        *_opts(sign=rng.choice("+-"), mean_x=_f(rng.uniform(-1.0, 1.0)), mean_p=_f(rng.uniform(-1.0, 1.0))),
        *_opts(times=_f(OSC_PHASE / omega), n=size.osc_n, tolerance=_f(ORACLE_TOLERANCE)),
    ]
    return [Invocation(argv, _check_oracle(1))]


# ---------------------------------------------------------------------------
# protocol: `quvar ozawa` on a free mass in sample mode and an oscillator in
# mean mode, both at the exact dose with the automatic schedule. Ranges keep
# every regime condition (δτ·k, τ·max(Ω, ω_eff) ≤ 0.1) satisfied, so the run
# emits no warnings.
# ---------------------------------------------------------------------------

PROTOCOL_HEADER = "i,t,y_reading,vxx_pre,vxp_pre,vpp_pre,vxx_post,vxp_post,vpp_post,vyy_meter"


def _check_protocol(rounds: int, vyy0: float):
    def check(stdout: bytes) -> list[str]:
        table, problems = _parse_csv(stdout, PROTOCOL_HEADER, 10)
        if table is None:
            return problems
        if len(table) != rounds:
            return [f"{len(table)} rows, expected {rounds}"]
        if not np.all(np.isfinite(table)):
            return ["non-finite value in trace"]
        if not np.array_equal(table[:, 0], np.arange(1, rounds + 1)):
            problems.append("round index is not 1..N")
        vxx_pre, vyy_meter = table[:, 3], table[:, 9]
        if not np.allclose(vyy_meter, vxx_pre, rtol=PROTOCOL_RTOL, atol=0.0):
            problems.append("transfer identity vyy_meter == vxx_pre violated")
        if not np.allclose(vxx_pre[1:], vyy0, rtol=PROTOCOL_RTOL, atol=0.0):
            problems.append("vxx_pre != meter vyy0 at rounds 2..N under the auto schedule")
        return problems

    return check


def _protocol_config(rng: random.Random, rounds: int, system: dict, hbar: float, mode: str) -> dict:
    tau = rng.uniform(0.5e-3, 1.5e-3)
    k = TRANSFER_KTAU / tau
    vyy0, vpp_y0 = _draw_variances(rng, hbar)
    vxx, vpp = _draw_variances(rng, hbar)
    vxp = rng.uniform(-1.0, 1.0) * math.sqrt(vxx * vpp - 0.25 * hbar * hbar)
    return {
        "version": 1,
        "hbar": hbar,
        "k": k,
        "tau": tau,
        "T": "auto",
        "N": rounds,
        "Omega": rng.uniform(1.0, 10.0),
        "delta_tau": rng.uniform(0.0, 0.05) / k,
        "system": system,
        "meter_variances": {"vyy0": vyy0, "vpp_y0": vpp_y0},
        "initial_system": {
            "mean_x": rng.uniform(-1.0, 1.0),
            "mean_p": rng.uniform(-1.0, 1.0),
            "vxx": vxx,
            "vxp": vxp,
            "vpp": vpp,
        },
        "seed": rng.randrange(2**31),
        "mode": mode,
    }


def protocol(rng: random.Random, size: Size) -> list[Invocation]:
    """ħ, m, ω ∈ [0.5, 2]; τ ∈ [0.5, 1.5]·10⁻³; Ω ∈ [1, 10]; δτ·k ∈ [0, 0.05]."""
    calls = []
    for name, variant, mode in (("free", "free_mass", "sample"), ("osc", "oscillator", "mean")):
        hbar = rng.uniform(0.5, 2.0)
        system = {"variant": variant, "m": rng.uniform(0.5, 2.0)}
        if variant == "oscillator":
            system["omega"] = rng.uniform(0.5, 2.0)
        config = _protocol_config(rng, size.rounds, system, hbar, mode)
        path = f"protocol_{name}.json"
        check = _check_protocol(size.rounds, config["meter_variances"]["vyy0"])
        calls.append(Invocation(["ozawa", f"--config={path}"], check, {path: config}))
    return calls


GENERATORS = {
    "envelope_table": envelope_table,
    "oracle_free": oracle_free,
    "oracle_osc": oracle_osc,
    "protocol": protocol,
}


def generate(workload: str, seed: int, size: Size) -> list[Invocation]:
    """The workload's invocations for this seed; the same seed gives the same inputs."""
    rng = random.Random(f"quvar-bench/{workload}/{seed}")
    return GENERATORS[workload](rng, size)
