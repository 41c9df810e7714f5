"""Quantum-rotor atoms in Laguerre-Gaussian ring traps.

Library layers: trap optics and ring geometry (``optics``), bound-state
spectra (``spectrum``), Raman couplings and lineshapes (``raman``), the
five-level ladder and its adiabatic elimination (``fivelevel``), and the
rotation-sensor observables and uncertainty budget (``sensor``).  The CLI in
``cli`` drives all of them from JSON configurations.
"""

from .exceptions import (
    ConfigError,
    ConvergenceError,
    FitError,
    InvalidInputError,
    QRotorError,
    ValidityError,
)
from .optics import BeamConfig, TrapGeometry, lg_mode_amplitude, optical_potential, ring_minima
from .raman import (
    CouplingResult,
    FitResult,
    Lineshape,
    RamanConfig,
    effective_coupling,
    ensemble_lineshape,
    evolve_rwa,
    fit_lineshape,
    rwa_hamiltonian,
    transition_probability,
)
from .sensor import SensorBudget, SensorConfig, TiltGeometry, sensor_budget, tilt_compensation
from .spectrum import (
    EnergyLevel,
    QuantumNumbers,
    RotorSpectrum,
    SpectrumLimits,
    assemble_spectrum,
    rotational_constant,
    solve_axial,
    solve_radial,
)
from .units import LI6, AtomSpecies, recoil_energy

__version__ = "0.1.0"
