"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math

import numpy as np
from scipy.linalg import expm

from quvar import (
    TRANSFER_KTAU,
    DimensionlessOscillator,
    ExtremalSpec,
    FreeMass,
    GaussianState,
    Grid,
    OzawaConfig,
    complex_width_from_squeeze,
    contraction_phase_osc,
    contraction_time_free,
    couple,
    evolve,
    evolve_squeeze,
    free_mass_bounds,
    free_mass_lower_alt_forms,
    gaussian_from_extremal,
    interaction_generator,
    interaction_map,
    joint_moments,
    meter_marginal,
    moments,
    oscillator_bounds_dimensional,
    oscillator_bounds_x,
    propagate_free,
    read_meter,
    run_protocol,
    sample_extremal,
    sample_joint,
    slice_at_y,
    sql_reference,
    squeeze_from_complex_width,
    state_from_squeeze,
    symplectic_defect,
)
from quvar.bounds import sqrt_uncertainty_excess
from quvar.extremal import SqueezeParams
from split_step import propagate_osc

SQRT3 = math.sqrt(3.0)


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num:02d} {status}: {desc}{suffix}")
    assert ok, f"criterion {num:02d} failed: {desc}{suffix}"


def _random_valid_state(rng):
    vxx = rng.uniform(0.05, 20.0)
    vpp = rng.uniform(0.25 / vxx, 20.0 / vxx + 0.25 / vxx)
    vxp = rng.uniform(-1.0, 1.0) * math.sqrt(max(vxx * vpp - 0.25, 0.0))
    return GaussianState(
        mean_x=rng.uniform(-3, 3), mean_p=rng.uniform(-3, 3), vxx=vxx, vpp=vpp, vxp=vxp
    )


def test_criterion_01_gaussian_spreading_reproduction():
    spec = ExtremalSpec.from_variances(0.25, 1.0, 1.0, 1)
    grid = Grid.centered(0.0, 85.0, 2**14)
    psi = sample_extremal(spec, 0.0, 0.0, grid, 1.0)
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        got = moments(propagate_free(psi, 1.0, t)).vxx
        want = (1.0 + 4.0 * t * t) / 4.0
        worst = max(worst, abs(got - want) / want)
    _report(
        1,
        "grid oracle reproduces sigma^2(X(t)) = (1+4t^2)/4 at t in {0.5,1,2} (rel 1e-9)",
        worst <= 1e-9,
        f"max rel dev {worst:.3g}",
    )


def test_criterion_02_envelope_sandwich():
    rng = np.random.default_rng(20250808)
    models = (FreeMass(m=1.3), DimensionlessOscillator(omega=0.9))
    violations = 0
    checks = 0
    for _ in range(1000):
        s = _random_valid_state(rng)
        for t in rng.uniform(0.0, 5.0, size=20):
            t = float(t)
            for model in models:
                got = evolve(s, model, t).vxx
                if isinstance(model, FreeMass):
                    b = free_mass_bounds(s.vxx, s.vpp, model.m, 1.0, t)
                else:
                    b = oscillator_bounds_x(s.vxx, s.vpp, model.omega * t)
                checks += 1
                if not (b.lower - 1e-10 <= got <= b.upper + 1e-10):
                    violations += 1
    _report(
        2,
        "1000 states x 20 times x 2 models: evolved vxx inside envelopes (slack 1e-10)",
        violations == 0,
        f"{checks} checks, {violations} violations",
    )


def test_criterion_03_saturation():
    worst = 0.0
    # free mass: sign=+1 tracks lower, sign=-1 upper
    vxx, vpp, m = 1.0, 1.0, 1.0
    t_m = contraction_time_free(vxx, vpp, m, 1.0)
    for sign, side in ((1, "lower"), (-1, "upper")):
        state = gaussian_from_extremal(ExtremalSpec.from_variances(vxx, vpp, 1.0, sign))
        for t in np.linspace(0.0, 3.0 * t_m, 50):
            got = evolve(state, FreeMass(m=m), float(t)).vxx
            want = getattr(free_mass_bounds(vxx, vpp, m, 1.0, float(t)), side)
            worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    # oscillator: signed branch equations for x and p variances
    vxx, vpp = 0.8, 1.7
    s_exc = sqrt_uncertainty_excess(vxx, vpp, 1.0)
    model = DimensionlessOscillator(omega=1.0)
    for sign in (1, -1):
        state = gaussian_from_extremal(ExtremalSpec.from_variances(vxx, vpp, 1.0, sign))
        for phase in np.linspace(0.0, 2.0 * math.pi, 50):
            phase = float(phase)
            out = evolve(state, model, phase)
            c2, s2 = math.cos(phase) ** 2, math.sin(phase) ** 2
            want_x = c2 * vxx + s2 * vpp - sign * 0.5 * math.sin(2 * phase) * s_exc
            want_p = s2 * vxx + c2 * vpp + sign * 0.5 * math.sin(2 * phase) * s_exc
            worst = max(worst, abs(out.vxx - want_x) / max(abs(want_x), 1e-300))
            worst = max(worst, abs(out.vpp - want_p) / max(abs(want_p), 1e-300))
    _report(
        3,
        "extremal states saturate free-mass envelopes and signed oscillator branches (rel 1e-9)",
        worst <= 1e-9,
        f"max rel dev {worst:.3g}",
    )


def test_criterion_04_alternative_form_identity():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(500):
        vxx = rng.uniform(0.05, 20.0)
        vpp = rng.uniform(0.25 / vxx, 50.0)
        m = rng.uniform(0.1, 10.0)
        hbar = rng.uniform(0.5, 2.0)
        if vxx * vpp < 0.25 * hbar**2:
            continue
        t = rng.uniform(0.0, 10.0)
        lower = free_mass_bounds(vxx, vpp, m, hbar, t).lower
        f1, f2 = free_mass_lower_alt_forms(vxx, vpp, m, hbar, t)
        worst = max(worst, abs(f1 - lower) / lower, abs(f2 - lower) / lower)
    _report(
        4,
        "both alternative lower-bound forms equal the envelope (rel 1e-10, randomized)",
        worst <= 1e-10,
        f"max rel dev {worst:.3g}",
    )


def test_criterion_05_contractivity_horizons():
    ok = True
    details = []
    for vxx, vpp in ((1.0, 1.0), (1.0, 2.0), (0.5, 3.0)):
        state = gaussian_from_extremal(ExtremalSpec.from_variances(vxx, vpp, 1.0, 1))
        t_m = contraction_time_free(vxx, vpp, 1.0, 1.0)
        inside = all(
            evolve(state, FreeMass(m=1.0), float(t)).vxx <= vxx * (1.0 + 1e-12)
            for t in np.linspace(0.0, t_m, 50)
        )
        beyond = evolve(state, FreeMass(m=1.0), t_m * (1.0 + 1e-3)).vxx > vxx
        ok = ok and inside and beyond
        details.append(f"free({vxx},{vpp}): inside={inside} beyond={beyond}")
    for vxx, vpp in ((1.0, 1.0), (1.0, 2.0), (2.0, 0.4)):
        state = gaussian_from_extremal(ExtremalSpec.from_variances(vxx, vpp, 1.0, 1))
        horizon = contraction_phase_osc(vxx, vpp)
        model = DimensionlessOscillator(omega=1.0)
        inside = all(
            evolve(state, model, float(p)).vxx <= vxx * (1.0 + 1e-12)
            for p in np.linspace(0.0, horizon, 50)
        )
        beyond = evolve(state, model, horizon * (1.0 + 1e-3)).vxx > vxx
        ok = ok and inside and beyond
        details.append(f"osc({vxx},{vpp}): inside={inside} beyond={beyond}")
    _report(
        5,
        "sigma^2(x(t)) <= sigma^2(x(0)) up to t_M (free) / phase horizon (osc), exceeded just past",
        ok,
        "; ".join(d for d in details if "False" in d) or "all horizons verified",
    )


def test_criterion_06_free_mass_limit_of_oscillator_bounds():
    omegas = np.array([1e-2, 1e-3, 1e-4])
    free = free_mass_bounds(1.0, 1.0, 1.0, 1.0, 1.0)
    slopes = []
    for side in ("lower", "upper"):
        errs = [
            abs(
                getattr(oscillator_bounds_dimensional(1.0, 1.0, 1.0, w, 1.0, 1.0), side)
                - getattr(free, side)
            )
            for w in omegas
        ]
        slopes.append(float(np.polyfit(np.log(omegas), np.log(errs), 1)[0]))
    ok = all(abs(s - 2.0) <= 0.1 for s in slopes)
    _report(
        6,
        "oscillator bounds converge to free-mass bounds with log-log slope 2 +/- 0.1",
        ok,
        f"slopes {slopes[0]:.4f} (lower), {slopes[1]:.4f} (upper)",
    )


def test_criterion_07_sql_violation_exhibit():
    vxx = vpp = 50.0  # 4*vxx*vpp/hbar^2 = 1e4
    m = hbar = 1.0
    sx, sp = math.sqrt(vxx), math.sqrt(vpp)
    t = m * sx * sp / vpp
    state = gaussian_from_extremal(ExtremalSpec.from_variances(vxx, vpp, hbar, 1))
    achieved = evolve(state, FreeMass(m=m), t).vxx
    sql = sql_reference(m, hbar, t)
    asymptote = t * hbar**2 / (4.0 * m * sx * sp)
    below = achieved < 0.01 * sql
    matches = abs(achieved - asymptote) / asymptote <= 0.10
    _report(
        7,
        "at 4(sigma_x sigma_p)^2 = 1e4 the achieved variance beats hbar*t/m by >100x "
        "and matches t*hbar^2/(4 m sigma_x sigma_p) within 10%",
        below and matches,
        f"achieved {achieved:.6g}, sql {sql:.3g}, asymptote {asymptote:.6g}",
    )


def test_criterion_08_squeeze_bijection_and_label_evolution():
    rng = np.random.default_rng(8)
    worst_rt = 0.0
    for _ in range(1000):
        w = complex(rng.uniform(1e-3, 10.0), rng.uniform(-10.0, 10.0))
        r, theta = squeeze_from_complex_width(w)
        back = complex_width_from_squeeze(r, theta)
        worst_rt = max(worst_rt, abs(back - w) / max(abs(w), 1.0))
    worst_mom = 0.0
    model = DimensionlessOscillator(omega=1.0)
    for _ in range(200):
        sp = SqueezeParams(
            alpha=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            r=rng.uniform(0.0, 2.0),
            theta=rng.uniform(0.0, 2.0 * math.pi),
        )
        phase = rng.uniform(0.0, 10.0)
        via_labels = state_from_squeeze(evolve_squeeze(sp, phase))
        via_moments = evolve(state_from_squeeze(sp), model, phase)
        for field in ("mean_x", "mean_p", "vxx", "vpp", "vxp"):
            worst_mom = max(
                worst_mom, abs(getattr(via_labels, field) - getattr(via_moments, field))
            )
    _report(
        8,
        "width/squeeze bijection roundtrips (1e-12) and label evolution matches moments (1e-10)",
        worst_rt <= 1e-12 and worst_mom <= 1e-10,
        f"roundtrip {worst_rt:.3g}, label-vs-moments {worst_mom:.3g}",
    )


def test_criterion_09_interaction_map():
    M = interaction_map(1.0, TRANSFER_KTAU)
    pos_dev = float(np.max(np.abs(M[np.ix_([0, 2], [0, 2])] - np.array([[1.0, -1.0], [1.0, 0.0]]))))
    oracle = expm(interaction_generator(1.0) * TRANSFER_KTAU)
    mom_dev = float(np.max(np.abs(M[np.ix_([1, 3], [1, 3])] - oracle[np.ix_([1, 3], [1, 3])])))
    rng = np.random.default_rng(9)
    sympl = max(
        symplectic_defect(interaction_map(rng.uniform(0.1, 5.0), rng.uniform(0.0, 3.0)))
        for _ in range(50)
    )
    ok = pos_dev <= 1e-12 and mom_dev <= 1e-12 and sympl <= 1e-12
    _report(
        9,
        "transfer-dose position block is [[1,-1],[1,0]]; momentum block matches expm; symplectic",
        ok,
        f"pos {pos_dev:.3g}, mom {mom_dev:.3g}, symplectic {sympl:.3g}",
    )


def test_criterion_10_variance_transfer_and_collapse():
    rng = np.random.default_rng(10)
    worst_transfer = 0.0
    worst_collapse = 0.0
    for _ in range(50):
        v1 = rng.uniform(0.3, 3.0)
        system = gaussian_from_extremal(
            ExtremalSpec.from_variances(v1, rng.uniform(0.25 / v1, 3.0), 1.0, 1),
            mean_x=rng.uniform(-2, 2),
            mean_p=rng.uniform(-2, 2),
        )
        v2 = rng.uniform(0.3, 3.0)
        meter = gaussian_from_extremal(
            ExtremalSpec.from_variances(v2, rng.uniform(0.25 / v2, 3.0), 1.0, 1)
        )
        joint = couple(system, meter, 1.0, TRANSFER_KTAU)
        worst_transfer = max(worst_transfer, abs(meter_marginal(joint).vxx - system.vxx))
        post = read_meter(joint, rng.normal())
        worst_collapse = max(
            worst_collapse,
            abs(post.vxx - meter.vxx),
            abs(post.vpp - meter.vpp),
            abs(post.vxp - meter.vxp),
        )
    # 2D oracle confirmation at 512^2
    sys_spec = ExtremalSpec.from_variances(1.0, 1.0, 1.0, 1)
    met_spec = ExtremalSpec.from_variances(0.8, 0.9, 1.0, 1)
    system = gaussian_from_extremal(sys_spec, 0.3, 0.2)
    joint = couple(system, gaussian_from_extremal(met_spec), 1.0, TRANSFER_KTAU)
    gx = Grid.centered(0.3, 14.0, 512)
    gy = Grid.centered(0.3, 14.0, 512)
    amps = sample_joint(sys_spec.width, (0.3, 0.2), met_spec.width, TRANSFER_KTAU, gx, gy)
    got2d, _ = joint_moments(amps, gx, gy)
    oracle_joint_dev = float(np.max(np.abs(got2d.cov - joint.cov)))
    psi_c, y_val = slice_at_y(amps, gx, gy, 300)
    slice_m = moments(psi_c)
    want_post = read_meter(joint, y_val)
    oracle_slice_dev = max(
        abs(slice_m.vxx - want_post.vxx),
        abs(slice_m.vpp - want_post.vpp),
        abs(slice_m.vxp - want_post.vxp),
        abs(slice_m.mean_x - want_post.mean_x),
    )
    ok = (
        worst_transfer <= 1e-10
        and worst_collapse <= 1e-10
        and oracle_joint_dev <= 1e-6
        and oracle_slice_dev <= 1e-6
    )
    _report(
        10,
        "meter marginal carries prior system vxx (1e-10); collapse reproduces the meter "
        "preparation covariance (1e-10); both confirmed by the 512^2 grid oracle (1e-6)",
        ok,
        f"transfer {worst_transfer:.3g}, collapse {worst_collapse:.3g}, "
        f"2D joint {oracle_joint_dev:.3g}, 2D slice {oracle_slice_dev:.3g}",
    )


def test_criterion_11_chained_protocol():
    meter_vyy0 = 1.0
    init = gaussian_from_extremal(
        ExtremalSpec.from_variances(1.0, 1.0, 1.0, 1), mean_x=0.5
    )
    tau = 0.001
    config = OzawaConfig(
        k=TRANSFER_KTAU / tau,
        tau=tau,
        N=5,
        Omega=10.0,
        delta_tau=1e-5,
        system=FreeMass(m=1.0),
        meter_variances=(meter_vyy0, 1.0),
        initial_system=init,
        seed=20250808,
        mode="mean",
    )
    trace = run_protocol(config)
    chained_ok = all(step.pre.vxx <= meter_vyy0 + 1e-9 for step in trace.steps)
    reproducible = run_protocol(config).to_csv() == trace.to_csv()
    sampled = OzawaConfig(
        k=config.k,
        tau=config.tau,
        N=5,
        Omega=10.0,
        delta_tau=1e-5,
        system=FreeMass(m=1.0),
        meter_variances=(meter_vyy0, 1.0),
        initial_system=init,
        seed=7,
        mode="sample",
    )
    reproducible = reproducible and (
        run_protocol(sampled).to_csv() == run_protocol(sampled).to_csv()
    )
    _report(
        11,
        "N=5 schedule with T-tau=t_M keeps pre-measurement vxx <= meter variance; "
        "traces are byte-reproducible",
        chained_ok and reproducible,
        f"max pre vxx {max(s.pre.vxx for s in trace.steps):.12g}",
    )


def test_criterion_12_oracle_convergence():
    # Split-step path: doubling n_steps cuts the moment error by >= 4x.
    spec = ExtremalSpec.from_variances(1.0, 1.0, 1.0, 1)
    psi = sample_extremal(spec, 0.0, 0.0, Grid.centered(0.0, 25.0, 2**12), 1.0)
    exact = evolve(gaussian_from_extremal(spec), DimensionlessOscillator(omega=1.0), 1.0)

    def split_dev(n_steps):
        got = moments(propagate_osc(psi, 1.0, 1.0, 1.0, n_steps))
        return max(
            abs(got.vxx - exact.vxx), abs(got.vpp - exact.vpp), abs(got.vxp - exact.vxp)
        )

    d8, d16 = split_dev(8), split_dev(16)
    ratio = d8 / d16

    # Spectral path: the criterion-1 comparison is already at its floor at
    # both resolutions (far below the 1e-9 criterion-1 tolerance).
    spreading = ExtremalSpec.from_variances(0.25, 1.0, 1.0, 1)
    floor_devs = []
    for n in (2**13, 2**14):
        psi_s = sample_extremal(spreading, 0.0, 0.0, Grid.centered(0.0, 85.0, n), 1.0)
        worst = 0.0
        for t in (0.5, 1.0, 2.0):
            got = moments(propagate_free(psi_s, 1.0, t)).vxx
            want = (1.0 + 4.0 * t * t) / 4.0
            worst = max(worst, abs(got - want) / want)
        floor_devs.append(worst)
    ok = ratio >= 4.0 and all(d < 1e-9 for d in floor_devs)
    _report(
        12,
        "split-step error drops >= 4x on doubling n_steps; spectral path stays at floor",
        ok,
        f"ratio {ratio:.4f}, spectral floors {floor_devs[0]:.3g}, {floor_devs[1]:.3g}",
    )
