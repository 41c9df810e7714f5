"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
verdict lines.
"""

import numpy as np
from click.testing import CliRunner

from qrotor.cli import cli
from qrotor.fivelevel import FiveLevelModel, evolve_populations, oscillation_frequency, tuned_model
from qrotor.optics import ring_minima
from qrotor.raman import (
    QuadraticShift,
    calibrate_quadratic_scale,
    evolve_rwa,
    fit_lineshape,
    lineshape_from_rabi,
    lineshape_peak,
    peak_fwhm,
    transition_probability,
)
from qrotor.sensor import (
    SensorConfig,
    budget_frequency,
    budget_rabi_fluctuation,
    budget_shot_noise,
    transition_frequency,
)
from qrotor.spectrum import SpectrumLimits, assemble_spectrum, rotational_constant, solve_axial, solve_radial
from qrotor.units import HBAR, K_B, LI6

from test_fivelevel import build_cfg
from qrotor.raman import effective_coupling


def _verdict(num: int, name: str, checks):
    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{label}{'' if passed else ' <-- FAIL'}" for label, passed, in
                       [(c[0], c[1]) for c in checks])
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {name} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


def _within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


def test_criterion_1_ring_geometry(fig_beam, li6):
    geo = ring_minima(fig_beam, li6, [0])[0]
    checks = [(f"r_l = {geo.r_l * 1e6:.4f} um (15.81 +/- 0.01)",
               abs(geo.r_l - 15.81e-6) <= 0.01e-6)]
    _verdict(1, "ring radius", checks)


def test_criterion_2_trap_scales(fig_beam, li6):
    geo = ring_minima(fig_beam, li6, [0])[0]
    c_rl = rotational_constant(geo.r_l, li6)
    omega_r = geo.omega_r
    checks = [
        (f"C(r_l)/kB = {c_rl / K_B * 1e9:.4f} nK", _within(c_rl / K_B, 0.1613e-9, 5e-3)),
        (f"hw_r/kB = {HBAR * omega_r / K_B * 1e6:.4f} uK",
         _within(HBAR * omega_r / K_B, 0.4776e-6, 5e-3)),
        (f"hw_z/kB = {HBAR * geo.omega_z / K_B * 1e6:.3f} uK",
         _within(HBAR * geo.omega_z / K_B, 22.36e-6, 5e-3)),
    ]
    ax = solve_axial(fig_beam, li6, 0, 1)
    gap_z = ax.energies[1] - ax.energies[0]
    rad = solve_radial(fig_beam, li6, 0, 0, 1)
    gap_r = rad.energies[1] - rad.energies[0]
    checks += [
        (f"axial gap vs harmonic {gap_z / (HBAR * geo.omega_z) - 1:+.2e}",
         _within(gap_z, HBAR * geo.omega_z, 5e-2)),
        (f"radial gap vs harmonic {gap_r / (HBAR * omega_r) - 1:+.2e}",
         _within(gap_r, HBAR * omega_r, 5e-2)),
    ]
    # harmonic oracle: the same machinery on the pure quadratic profiles
    exact = HBAR * geo.omega_z * (np.arange(2) + 0.5)
    oracle_ax = np.max(np.abs(ax.energies / exact - 1.0))
    harm = solve_radial(fig_beam, li6, 0, 0, 1, radial_profile="harmonic")
    oracle_rad = abs((harm.energies[1] - harm.energies[0]) / (HBAR * omega_r) - 1.0)
    checks += [
        (f"axial harmonic oracle {oracle_ax:.1e}", oracle_ax < 1e-6),
        (f"radial harmonic oracle {oracle_rad:.1e}", oracle_rad < 1e-6),
    ]
    _verdict(2, "trap energy scales", checks)


def test_criterion_3_inequality_chain(fig_beam, li6):
    spec = assemble_spectrum(fig_beam, li6, SpectrumLimits(1, 1, 1))
    eps_z, eps_r, eps_ell = spec.gaps
    checks = [
        (f"eps_z/eps_r = {eps_z / eps_r:.1f} >= 10", eps_z >= 10 * eps_r),
        (f"eps_r/eps_ell = {eps_r / eps_ell:.0f} >= 10", eps_r >= 10 * eps_ell),
        ("inequalities_ok", spec.inequalities_ok),
    ]
    _verdict(3, "scale-hierarchy inequalities", checks)


def test_criterion_4_single_rotor_lineshape():
    om = 3.142
    tau = np.pi / om
    peak = float(transition_probability(0.0, om, tau))
    fwhm = peak_fwhm(om, tau)
    checks = [
        (f"P0(0) = {peak:.15f}", abs(peak - 1.0) < 1e-12),
        (f"FWHM = {fwhm / om:.5f} Omega_R (1.597 +/- 0.001)",
         abs(fwhm / om - 1.597) <= 1e-3),
    ]
    _verdict(4, "single-rotor peak", checks)


def test_criterion_5_dynamics_oracle():
    om = 3.142
    worst = 0.0
    for delta in np.linspace(-5 * om, 5 * om, 10):
        for tau in np.linspace(0.013, 2.7, 10):
            worst = max(worst, abs(
                evolve_rwa(delta, om, tau) - transition_probability(delta, om, tau)
            ))
    checks = [(f"max |expm - closed form| = {worst:.1e} (<= 1e-10)", worst <= 1e-10)]
    _verdict(5, "matrix-exponential dynamics oracle", checks)


def test_criterion_6_ensemble_fit_regression():
    om = 3.142
    tau = np.pi / om
    cal = calibrate_quadratic_scale(om, tau, 80, -0.5374 * om)
    model = QuadraticShift(cal.scale_s)
    d_max, p_max = lineshape_peak(om, tau, 80, model)
    grid = np.linspace(-8 * om, 8 * om, 1601)
    fit = fit_lineshape(lineshape_from_rabi(om, tau, 80, model, grid))
    checks = [
        (f"calibration delta_max/Om = {d_max / om:.4f} (target -0.5374, "
         f"on_target={cal.on_target})", True),  # calibration is closest-approach
        (f"P_max = {p_max:.4f} (0.6989 +/- 0.005)", abs(p_max - 0.6989) <= 0.005),
        (f"A = {fit.amplitude_A:.4f} (0.6799 +/- 0.005)",
         abs(fit.amplitude_A - 0.6799) <= 0.005),
        (f"delta_0/Om = {fit.delta_0 / om:.4f} (-0.640 +/- 0.01)",
         abs(fit.delta_0 / om + 0.640) <= 0.01),
        (f"Omega_eff/Om = {fit.Omega_R_eff / om:.4f} (1.4865 +/- 0.01)",
         abs(fit.Omega_R_eff / om - 1.4865) <= 0.01),
    ]
    _verdict(6, "broadened-lineshape regression", checks)


def test_criterion_7_rotation_algebra():
    omega_0, L = 21.13, 25
    rng = np.random.default_rng(42)
    ok_closed = True
    for m in range(-3, 4):
        for zeta in (-1, 1):
            omega = float(rng.uniform(-3, 3))
            first = transition_frequency(m, zeta, L, omega_0, omega)
            closed = 4 * L * (L + m) * omega_0 + 2 * zeta * L * omega
            if abs(first - closed) > 1e-12 * abs(closed):
                ok_closed = False
    ok_split = True
    for m in range(-3, 4):
        omega = float(rng.uniform(-1, 1))
        scale = abs(transition_frequency(m, 1, L, omega_0, omega))
        split = (transition_frequency(m, 1, L, omega_0, omega)
                 - transition_frequency(m, -1, L, omega_0, omega))
        if abs(split - 4 * L * omega) > 1e-11 * scale:
            ok_split = False
    ok_period = True
    for m in range(-5, 6):
        for m_w in range(-5, 6):
            omega = float(rng.uniform(-5 * omega_0, 5 * omega_0))
            lhs = transition_frequency(m + m_w, 1, L, omega_0, omega - 2 * m_w * omega_0)
            rhs = transition_frequency(m, 1, L, omega_0, omega)
            if abs(lhs - rhs) > 1e-12 * max(abs(lhs), abs(rhs)):
                ok_period = False
    checks = [
        ("closed form == first principles (1e-12 rel)", ok_closed),
        ("splitting == 4 L Omega (round-off exact)", ok_split),
        ("periodicity on {-5..5}^2, random Omega", ok_period),
    ]
    _verdict(7, "rotation algebra", checks)


def test_criterion_8_budget_regression():
    # frequency channel: the quoted uncertainty is the pump + Stokes sum
    cfg_main = SensorConfig(
        kick_oam_L=25, ring_count_N=161, omega_0=21.13, Omega_R=3.142,
        freq_uncertainty_pump=1.43e-9, freq_uncertainty_stokes=1.43e-9,
        photon_count_pump=1e29, photon_count_stokes=1e29, Delta_hf=1.26e8,
    )
    d_omega = budget_frequency(cfg_main)
    # fluctuation channels: each drive uncertainty taken as 2.86e-9
    cfg_sm = SensorConfig(
        kick_oam_L=25, ring_count_N=161, omega_0=21.13, Omega_R=3.142,
        freq_uncertainty_pump=2.86e-9, freq_uncertainty_stokes=2.86e-9,
        photon_count_pump=1e29, photon_count_stokes=1e29, Delta_hf=1.26e8,
    )
    dphi_w, deps_w, dom_w = budget_rabi_fluctuation(cfg_sm)
    dphi_i, deps_i, dom_i = budget_shot_noise(cfg_sm)
    checks = [
        (f"dOmega = {d_omega:.3e} (2.25e-12)", _within(d_omega, 2.25e-12, 1e-2)),
        (f"dphi_w/phi = {dphi_w / np.pi:.3e} (3.21e-17)",
         _within(dphi_w / np.pi, 3.21e-17, 1e-2)),
        (f"deps_w/hbar = {deps_w / HBAR:.3e} (1.267e-15)",
         _within(deps_w / HBAR, 1.267e-15, 1e-2)),
        (f"dOmega_w = {dom_w:.3e} (9.985e-19)", _within(dom_w, 9.985e-19, 1e-2)),
        (f"dphi_I = {dphi_i:.3e} (1.987e-14)", _within(dphi_i, 1.987e-14, 1e-2)),
        (f"deps_I/hbar = {deps_i / HBAR:.3e} (7.949e-14)",
         _within(deps_i / HBAR, 7.949e-14, 1e-2)),
        (f"dOmega_I = {dom_i:.3e} (6.265e-17)", _within(dom_i, 6.265e-17, 1e-2)),
    ]
    _verdict(8, "uncertainty budget", checks)


def test_criterion_9_five_level_vs_effective():
    cfg = build_cfg(1.0, 300.0, 300.0, 0.025, 0.02)
    omega_r = effective_coupling(cfg, LI6).Omega_R
    model = tuned_model(FiveLevelModel(cfg, LI6, omega_2L0=1.0))
    n_periods = int(np.ceil(2.2 * np.pi / omega_r / (2 * np.pi / model.drive_frequency)))
    times, pops = evolve_populations(model, n_periods, 512)
    om_fit, _ = oscillation_frequency(times, pops[:, 1], omega_r)
    rel = om_fit / omega_r - 1.0
    checks = [
        (f"ladder frequency vs 2 sqrt(2) V / hbar: {rel:+.3%} (|.| <= 5%), "
         f"ratios 300/300", abs(rel) <= 0.05),
    ]
    _verdict(9, "five-level oscillation frequency", checks)


def test_criterion_10_cli_determinism(tmp_path, config_dir):
    runner = CliRunner()

    def run(cmd, cfg_name, out_name, extra=()):
        out = tmp_path / out_name
        res = runner.invoke(cli, [cmd, "--config", str(config_dir / cfg_name),
                                  "--out", str(out), *extra])
        assert res.exit_code == 0, res.output
        blob = out.read_bytes()
        side = out.with_name(out.name + ".fit.json")
        if side.exists():
            blob += side.read_bytes()
        return blob

    checks = []
    b1 = run("budget", "budget.json", "b1.json")
    b2 = run("budget", "budget.json", "b2.json")
    checks.append(("budget reruns identical", b1 == b2))

    r1 = run("rotation-scan", "fig5_rotation_scan.json", "r1.csv")
    r2 = run("rotation-scan", "fig5_rotation_scan.json", "r2.csv")
    checks.append(("rotation-scan reruns identical", r1 == r2))

    t1 = run("tilt", "tilt.json", "t1.json")
    t2 = run("tilt", "tilt.json", "t2.json")
    checks.append(("tilt reruns identical", t1 == t2))

    s1 = run("spectrum", "fig2_spectrum.json", "s1.csv", ("--parallel", "1"))
    s2 = run("spectrum", "fig2_spectrum.json", "s2.csv", ("--parallel", "4"))
    checks.append(("spectrum identical across worker counts", s1 == s2))

    l1 = run("lineshape", "fig4_lineshape.json", "l1.csv", ("--parallel", "1"))
    l2 = run("lineshape", "fig4_lineshape.json", "l2.csv", ("--parallel", "4"))
    checks.append(("lineshape identical across worker counts", l1 == l2))

    _verdict(10, "CLI determinism", checks)
