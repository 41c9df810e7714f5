from pathlib import Path

import pytest

from qrotor.optics import BeamConfig
from qrotor.units import LI6, recoil_energy

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"

WAVELENGTH = 671e-9
WAIST = 10e-6
TRAP_L = 5


@pytest.fixture(scope="session")
def li6():
    return LI6


@pytest.fixture(scope="session")
def e0_recoil():
    return recoil_energy(LI6, WAVELENGTH)


@pytest.fixture(scope="session")
def fig_beam(e0_recoil):
    """Reference trap: 6Li, 671 nm, w0 = 10 um, l = 5, depth 10 recoils."""
    return BeamConfig(
        wavelength=WAVELENGTH,
        waist_w0=WAIST,
        oam_l=TRAP_L,
        phase_z0=WAVELENGTH / 4.0,
        trap_depth_V0=10.0 * e0_recoil,
    )


@pytest.fixture(scope="session")
def config_dir():
    return CONFIG_DIR
