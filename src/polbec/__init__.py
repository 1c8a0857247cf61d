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

# Every public name, by the submodule that defines it; each submodule's
# __all__ is its entry here (units adds its named dimensions and UNITS).
# Nothing is imported here: a name, or the submodule itself, is resolved on
# first access (PEP 562), so `import polbec.cli` loads the float cores and
# the config parser only, and only dispersion needs numpy.
_SUBMODULE_NAMES = {
    "units": ("Dimension", "DimensionError", "Quantity", "constant", "convert", "qty"),
    "coupling": (
        "CavityParams", "CouplingParams", "CouplingRegime", "MediumParams",
        "StrongCouplingCheck", "cooperative_frequency", "coupling_from_geometry",
        "is_strong_coupling", "make_coupling", "resonant_cavity_length",
        "resonant_coupling",
    ),
    "dispersion": (
        "BranchPoint", "DispersionCurve", "GridSpec", "ModeProblem", "NoWellError",
        "ParaxialBoundWarning", "WellGeometry", "diagonalize_mode",
        "photon_energy_freespace", "photon_energy_paraxial",
        "sample_dispersion", "well_geometry",
    ),
    "thermo": (
        "CondensationReport", "GasState", "PolaritonMasses", "TrapSpec",
        "chemical_potential", "condensate_fraction", "condensation_report",
        "degeneracy_temperature", "effective_masses", "group_velocity",
        "kt_temperature", "thermal_wavelength", "transverse_energy",
        "trapped_bec_temperature", "trapped_bec_temperature_from_N",
        "trapped_number",
    ),
    "trap": ("LensProfile", "TrapDesign", "design_trap", "lens_for_omega", "omega_for_lens"),
}
_SUBMODULE_OF = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = ["__version__", *_SUBMODULE_OF]


def __getattr__(name: str):
    if name in _SUBMODULE_NAMES:
        return importlib.import_module(f".{name}", __name__)
    if name in _SUBMODULE_OF:
        return getattr(importlib.import_module(f".{_SUBMODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
