"""Quantum-rotor atoms in Laguerre-Gaussian ring traps.

Library layers: trap optics and ring geometry (``optics``), bound-state
spectra (``spectrum``), Raman couplings and lineshapes (``raman``), the
five-level ladder whose oscillation checks the effective Rabi frequency
(``fivelevel``), and the rotation-sensor observables and uncertainty budget
(``sensor``).  The CLI in ``cli`` drives all of them from JSON
configurations; the README's "Library API" lists the names that only the
acceptance criteria call.
"""

from .exceptions import (
    ConfigError,
    ConvergenceError,
    InvalidInputError,
    QRotorError,
)
from .optics import BeamConfig, TrapGeometry, optical_potential, ring_minima
from .raman import (
    CouplingResult,
    FitResult,
    Lineshape,
    RamanConfig,
    effective_coupling,
    fit_lineshape,
    transition_probability,
)
from .sensor import SensorBudget, SensorConfig, TiltGeometry, sensor_budget, tilt_compensation
from .spectrum import (
    RotorSpectrum,
    SpectrumLimits,
    assemble_spectrum,
    rotational_constant,
    solve_axial,
    solve_radial,
)
from .units import LI6, AtomSpecies, recoil_energy

__version__ = "0.1.0"
