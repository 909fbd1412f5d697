"""The symmetric split-step oscillator propagator, the tests' reference.

The package propagates oscillators exactly (``propagate_osc_exact``:
chirp, FFT phase, chirp). The split step below reaches the same state by a
different route, second order in the step, so the tests hold the exact
propagator against it. It reuses the package's chirp–FFT–chirp loop and
its input and result checks, and nothing of the closed-form engine.
"""

import numpy as np

from quvar.gridsim import WaveFn, _axes, _check_input, _checked, _chirp_kick_chirp


def propagate_osc(psi: WaveFn, m: float, omega: float, t: float, n_steps: int) -> WaveFn:
    """Oscillator evolution by symmetric split step, V = ½mω²x².

    (e^{−iV dt/2ħ} e^{−iT dt/ħ} e^{−iV dt/2ħ})^n_steps with dt = t/n_steps;
    second-order accurate in dt, exactly unitary per step. ω = 0 reduces to
    the free propagator (the potential phase is identically 1).
    """
    if not m > 0:
        raise ValueError(f"m must be > 0, got {m}")
    if omega < 0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    _check_input(psi)
    dt = t / n_steps
    x, p = _axes(psi.grid, psi.hbar)
    half_v = np.exp(-1j * m * omega * omega * x * x * dt / (4.0 * psi.hbar))
    kinetic = np.exp(-1j * p * p * dt / (2.0 * m * psi.hbar))
    return _checked(_chirp_kick_chirp(psi, half_v, kinetic, n_steps))
