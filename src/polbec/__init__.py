"""polbec: cavity-polariton dispersion and 2D Bose-gas condensation thresholds.

A unit-safe numerical toolkit: dimension-checked quantities over a
CGS-Gaussian base, the strong-coupling test, the two-branch polariton
mode problem with Hopfield composition and well geometry, the 2D gas
threshold ladder (degeneracy / Kosterlitz-Thouless / trapped
condensation), and gradient-lens trap design.  A deterministic CLI
(`polbec`) emits CSV/JSON for external plotting.
"""

__version__ = "0.1.0"

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
from .dispersion import (
    BranchPoint,
    DispersionCurve,
    GridSpec,
    ModeProblem,
    NoWellError,
    ParaxialBoundWarning,
    WellGeometry,
    diagonalize_mode,
    photon_energy_freespace,
    photon_energy_paraxial,
    sample_dispersion,
    well_geometry,
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

__all__ = [
    "__version__",
    # units
    "Dimension", "DimensionError", "Quantity", "constant", "convert", "qty",
    # coupling
    "CavityParams", "CouplingParams", "CouplingRegime", "MediumParams",
    "StrongCouplingCheck", "cooperative_frequency", "coupling_from_geometry",
    "is_strong_coupling", "make_coupling", "resonant_cavity_length",
    "resonant_coupling",
    # dispersion
    "BranchPoint", "DispersionCurve", "GridSpec", "ModeProblem", "NoWellError",
    "ParaxialBoundWarning", "WellGeometry", "diagonalize_mode",
    "photon_energy_freespace", "photon_energy_paraxial",
    "sample_dispersion", "well_geometry",
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
