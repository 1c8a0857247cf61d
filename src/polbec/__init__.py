"""polbec: cavity-polariton dispersion and 2D Bose-gas condensation thresholds.

A unit-safe numerical toolkit: dimension-checked quantities over a
CGS-Gaussian base, the strong-coupling test, the two-branch polariton
mode problem with Hopfield composition and well geometry, the 2D gas
threshold ladder (degeneracy / Kosterlitz-Thouless / trapped
condensation), and gradient-lens trap design.  A deterministic CLI
(`polbec`) emits CSV/JSON for external plotting.
"""

__version__ = "0.1.0"

import importlib

from .units import (
    Dimension,
    DimensionError,
    Quantity,
    constant,
    convert,
    qty,
)
from .coupling import (
    CavityParams,
    CouplingParams,
    CouplingRegime,
    MediumParams,
    StrongCouplingCheck,
    cooperative_frequency,
    coupling_from_geometry,
    is_strong_coupling,
    make_coupling,
    resonant_cavity_length,
    resonant_coupling,
)
from .thermo import (
    CondensationReport,
    GasState,
    PolaritonMasses,
    TrapSpec,
    chemical_potential,
    condensate_fraction,
    condensation_report,
    degeneracy_temperature,
    effective_masses,
    group_velocity,
    kt_temperature,
    thermal_wavelength,
    transverse_energy,
    trapped_bec_temperature,
    trapped_bec_temperature_from_N,
    trapped_number,
)
from .trap import (
    LensProfile,
    TrapDesign,
    design_trap,
    lens_for_omega,
    omega_for_lens,
)

# dispersion is the only module that needs numpy; the scalar commands never
# touch it, so its names are resolved on first access (PEP 562).
_DISPERSION_NAMES = (
    "BranchPoint", "DispersionCurve", "GridSpec", "ModeProblem", "NoWellError",
    "ParaxialBoundWarning", "WellGeometry", "diagonalize_mode",
    "photon_energy_freespace", "photon_energy_paraxial",
    "sample_dispersion", "well_geometry",
)

__all__ = [
    "__version__",
    # units
    "Dimension", "DimensionError", "Quantity", "constant", "convert", "qty",
    # coupling
    "CavityParams", "CouplingParams", "CouplingRegime", "MediumParams",
    "StrongCouplingCheck", "cooperative_frequency", "coupling_from_geometry",
    "is_strong_coupling", "make_coupling", "resonant_cavity_length",
    "resonant_coupling",
    # dispersion (loaded on first use, see __getattr__)
    *_DISPERSION_NAMES,
    # thermo
    "CondensationReport", "GasState", "PolaritonMasses", "TrapSpec",
    "chemical_potential", "condensate_fraction", "condensation_report",
    "degeneracy_temperature", "effective_masses", "group_velocity",
    "kt_temperature", "thermal_wavelength", "transverse_energy",
    "trapped_bec_temperature", "trapped_bec_temperature_from_N",
    "trapped_number",
    # trap
    "LensProfile", "TrapDesign", "design_trap", "lens_for_omega",
    "omega_for_lens",
]


def __getattr__(name: str):
    if name == "dispersion" or name in _DISPERSION_NAMES:
        dispersion = importlib.import_module(".dispersion", __name__)
        return dispersion if name == "dispersion" else getattr(dispersion, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
