"""Physical constants, atomic species data, and the photon-recoil energy.

All quantities are SI: energies in joules, frequencies in rad/s, lengths in
metres.  An energy in k_B x kelvin is E / K_B, an angular frequency E / HBAR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError

# CODATA 2018, pinned as literals so outputs are reproducible across
# library versions.
HBAR = 1.054_571_817e-34        # J s
K_B = 1.380_649e-23             # J/K
MU_B = 9.274_010_0783e-24       # J/T
C_LIGHT = 299_792_458.0         # m/s
ATOMIC_MASS = 1.660_539_066_60e-27  # kg


@dataclass(frozen=True)
class AtomSpecies:
    """Ground-state data for a trapped alkali atom.

    Parameters
    ----------
    mass : float
        Atomic mass in kg.
    g_factor : float
        Hyperfine g-factor magnitude |g_F| of the ground manifold.
    hyperfine_splitting : float
        Ground-state hyperfine splitting as an angular frequency (rad/s).
    F_ground : float
        Hyperfine quantum number of the lower ground manifold
        (half-integer: 0.5, 1.0, 1.5, ...).
    """

    mass: float
    g_factor: float
    hyperfine_splitting: float
    F_ground: float

    def __post_init__(self):
        if self.mass <= 0:
            raise InvalidInputError("mass must be positive")
        if self.hyperfine_splitting <= 0:
            raise InvalidInputError("hyperfine_splitting must be positive")
        if self.F_ground < 0 or round(2 * self.F_ground) != 2 * self.F_ground:
            raise InvalidInputError("F_ground must be a non-negative half-integer")


# 6Li ground state: F = 1/2, |g_F| = 2/3, omega_hf ~ 1.43e9 rad/s.
LI6 = AtomSpecies(
    mass=6.015_122_8874 * ATOMIC_MASS,
    g_factor=2.0 / 3.0,
    hyperfine_splitting=1.43e9,
    F_ground=0.5,
)

SPECIES = {"6Li": LI6}


def recoil_energy(species: AtomSpecies, wavelength: float) -> float:
    """Photon-recoil energy hbar^2 k^2 / (2 M) for light of the given wavelength.

    This is the natural unit of the trap depth; for 6Li at 671 nm it equals
    k_B x 3.536 uK.
    """
    if wavelength <= 0:
        raise InvalidInputError("wavelength must be positive")
    k = 2.0 * np.pi / wavelength
    return (HBAR * k) ** 2 / (2.0 * species.mass)
