"""Independent oracles the benchmark checks program outputs against.

Closed forms from the paper's model, written out here once with the CODATA
2018 values, so a check never reuses the code it checks.
"""

from __future__ import annotations

import math

HBAR = 1.054_571_817e-34
K_B = 1.380_649e-23
MU_B = 9.274_010_0783e-24
C_LIGHT = 299_792_458.0
LI6_MASS = 6.015_122_8874 * 1.660_539_066_60e-27
LI6_G = 2.0 / 3.0
LI6_DEGENERACY = 2          # 2 F + 1 with F = 1/2


def rabi_p0(delta, omega_r: float, tau: float):
    """Generalised Rabi transfer probability (numpy arrays or floats)."""
    import numpy as np

    g2 = omega_r**2 + np.asarray(delta, dtype=float) ** 2
    return omega_r**2 / g2 * np.sin(0.5 * tau * np.sqrt(g2)) ** 2


def beam_width(beam: dict, z: float) -> float:
    if beam.get("collimated"):
        return beam["waist_w0"]
    z_div = beam.get("z_eff") or math.pi * beam["waist_w0"] ** 2 / beam["wavelength"]
    return beam["waist_w0"] * math.sqrt(1.0 + (z / z_div) ** 2)


def ring_z(beam: dict, j: int) -> float:
    """Antinode j of the standing wave, with the default phase z0 = lambda/4."""
    return (j + 0.5) * beam["wavelength"] / 2.0


def ring_radius(beam: dict, j: int) -> float:
    return beam_width(beam, ring_z(beam, j)) * math.sqrt(abs(beam["oam_l"]) / 2.0)


def rotor_constant(radius: float) -> float:
    """C(r) = hbar^2 / (2 M r^2) for 6Li, in joules."""
    return HBAR**2 / (2.0 * LI6_MASS * radius**2)


def trap_quanta(beam: dict, j: int) -> tuple[float, float]:
    """Harmonic (hbar omega_z, hbar omega_r) at ring j, in joules."""
    k = 2.0 * math.pi / beam["wavelength"]
    e_rec = (HBAR * k) ** 2 / (2.0 * LI6_MASS)
    depth = beam["trap_depth_recoils"] * e_rec
    ww = beam_width(beam, ring_z(beam, j)) / beam["waist_w0"]
    omega_z = 2.0 / ww * math.sqrt(e_rec * depth) / HBAR
    r_l = ring_radius(beam, j)
    curvature = 4.0 * abs(beam["oam_l"]) * depth / (ww**2 * r_l**2)
    return HBAR * omega_z, HBAR * math.sqrt(curvature / LI6_MASS)


def physical_shifts(beam: dict, kick_L: int, j_max: int):
    """Ring-radius resonance shifts 4 L^2 (omega0(r_0) - omega0(r_j))."""
    import numpy as np

    w0_rot = HBAR / (2.0 * LI6_MASS * ring_radius(beam, 0) ** 2)
    return np.array([4.0 * kick_L**2 * (w0_rot - HBAR / (2.0 * LI6_MASS * ring_radius(beam, j) ** 2))
                     for j in range(-j_max, j_max + 1)])


def line_frequency(m: int, zeta: int, L: int, omega_0: float, omega: float) -> float:
    """Rotation-sensor line 4 L (L + m) omega_0 + 2 zeta L Omega."""
    return 4.0 * L * (L + m) * omega_0 + 2.0 * zeta * L * omega


def sensor_budget(s: dict) -> dict:
    """The three uncertainty channels of the rotation-sensor budget."""
    L, n = s["kick_oam_L"], s["ring_count_N"]
    dp, ds, dhf, om_r = (s["freq_uncertainty_pump"], s["freq_uncertainty_stokes"],
                         s["Delta_hf"], s["Omega_R"])
    phase_rabi = math.pi * math.hypot(dp / dhf, ds / dhf)
    energy_rabi = 4.0 * HBAR * om_r * phase_rabi
    phase_shot = math.pi * (s["photon_count_pump"] ** -0.5 + s["photon_count_stokes"] ** -0.5)
    energy_shot = 4.0 * HBAR * om_r * phase_shot / math.pi
    per_rate = 4.0 * L * HBAR * math.sqrt(n)
    return {
        "dOmega_freq": (dp + ds) / (4.0 * L * math.sqrt(n)),
        "dOmega_rabi": energy_rabi / per_rate,
        "dOmega_shot": energy_shot / per_rate,
        "phase_rabi": phase_rabi,
        "energy_rabi_J": energy_rabi,
        "energy_rabi_over_hbar": energy_rabi / HBAR,
        "phase_shot": phase_shot,
        "energy_shot_J": energy_shot,
        "energy_shot_over_hbar": energy_shot / HBAR,
    }


def tilt(g, a, omega) -> tuple[float, float]:
    """(tilt angle between g and g - a, rotation rate along -(g - a)/|g - a|)."""
    ge = [gi - ai for gi, ai in zip(g, a)]
    cross = (g[1] * ge[2] - g[2] * ge[1], g[2] * ge[0] - g[0] * ge[2],
             g[0] * ge[1] - g[1] * ge[0])
    theta = math.atan2(math.sqrt(sum(c * c for c in cross)), sum(x * y for x, y in zip(g, ge)))
    norm = math.sqrt(sum(x * x for x in ge))
    return theta, -sum(o * x for o, x in zip(omega, ge)) / norm


def ladder_rabi_frequency(raman: dict) -> float:
    """Omega_R = 2 sqrt(2) V / hbar of the factorised coupling chain (6Li)."""
    L = raman["kick_oam_L"]
    v_b = LI6_G**2 * MU_B**2 * raman["B_p0"] * raman["B_s0"] / (3.0 * HBAR * raman["Delta_hf"])
    peak = math.exp(L * math.log(L) - L - math.lgamma(L + 1))
    v_e = (4.0 * raman["polarizability_at_omega_e"] / math.pi * peak
           * raman["kick_power_P_e"] / (raman["kick_waist_w_e"] ** 2 * C_LIGHT))
    v = v_e * v_b / (HBAR * raman["Delta_hf"])
    return 2.0 * math.sqrt(2.0) * v / HBAR
