import pytest
from hypothesis import given, strategies as st

from qrotor.exceptions import InvalidInputError
from qrotor.units import (
    ATOMIC_MASS,
    K_B,
    LI6,
    AtomSpecies,
    recoil_energy,
)


def test_recoil_li6_671nm_reference_value():
    e0 = recoil_energy(LI6, 671e-9)
    assert e0 / K_B == pytest.approx(3.536e-6, rel=5e-3, abs=0)
    # trap depth convention: 10 recoils is kB x 35.36 uK
    assert 10 * e0 / K_B == pytest.approx(35.36e-6, rel=5e-3, abs=0)


def test_recoil_long_wavelength_limit():
    e_671nm = recoil_energy(LI6, 671e-9)
    assert recoil_energy(LI6, 1.0) < 1e-11 * e_671nm


def test_recoil_doubling_wavelength_quarters_energy():
    e1 = recoil_energy(LI6, 671e-9)
    e2 = recoil_energy(LI6, 2 * 671e-9)
    assert e2 == pytest.approx(e1 / 4.0, rel=1e-12, abs=0)


@given(
    lam=st.floats(min_value=1e-7, max_value=1e-5),
    scale=st.floats(min_value=1.01, max_value=10.0),
)
def test_recoil_scaling_in_wavelength(lam, scale):
    e1 = recoil_energy(LI6, lam)
    e2 = recoil_energy(LI6, lam * scale)
    assert e2 < e1
    assert e2 * scale**2 == pytest.approx(e1, rel=1e-9, abs=0)


@given(
    mass_amu=st.floats(min_value=1.0, max_value=200.0),
    scale=st.floats(min_value=1.01, max_value=10.0),
)
def test_recoil_scaling_in_mass(mass_amu, scale):
    light = AtomSpecies(mass=mass_amu * ATOMIC_MASS, g_factor=1.0,
                        hyperfine_splitting=1e9, F_ground=0.5)
    heavy = AtomSpecies(mass=mass_amu * scale * ATOMIC_MASS, g_factor=1.0,
                        hyperfine_splitting=1e9, F_ground=0.5)
    e1 = recoil_energy(light, 671e-9)
    e2 = recoil_energy(heavy, 671e-9)
    assert e2 < e1
    assert e2 * scale == pytest.approx(e1, rel=1e-9, abs=0)


def test_recoil_rejects_bad_wavelength():
    with pytest.raises(InvalidInputError):
        recoil_energy(LI6, 0.0)
    with pytest.raises(InvalidInputError):
        recoil_energy(LI6, -1e-9)


def test_species_validation():
    with pytest.raises(InvalidInputError):
        AtomSpecies(mass=-1.0, g_factor=1.0, hyperfine_splitting=1e9, F_ground=0.5)
    with pytest.raises(InvalidInputError):
        AtomSpecies(mass=1e-26, g_factor=1.0, hyperfine_splitting=0.0, F_ground=0.5)
    with pytest.raises(InvalidInputError):
        AtomSpecies(mass=1e-26, g_factor=1.0, hyperfine_splitting=1e9, F_ground=0.3)

