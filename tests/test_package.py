"""The package's public names, each resolved from its submodule on first
access, each core name exported from one module only, and no module
importing a name it never uses."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polbec

# every public name but __version__, by the submodule that defines it
DEFINED_IN = {
    "units": ["Dimension", "DimensionError", "Quantity", "constant", "convert", "qty"],
    "coupling": [
        "CavityParams", "CouplingParams", "CouplingRegime", "MediumParams",
        "StrongCouplingCheck", "cooperative_frequency", "coupling_from_geometry",
        "is_strong_coupling", "make_coupling", "resonant_cavity_length",
        "resonant_coupling",
    ],
    "dispersion": [
        "BranchPoint", "DispersionCurve", "GridSpec", "ModeProblem", "NoWellError",
        "ParaxialBoundWarning", "WellGeometry", "diagonalize_mode",
        "photon_energy_freespace", "photon_energy_paraxial",
        "sample_dispersion", "well_geometry",
    ],
    "thermo": [
        "CondensationReport", "GasState", "PolaritonMasses", "TrapSpec",
        "chemical_potential", "condensate_fraction", "condensation_report",
        "degeneracy_temperature", "effective_masses", "group_velocity",
        "kt_temperature", "thermal_wavelength", "transverse_energy",
        "trapped_bec_temperature", "trapped_bec_temperature_from_N",
        "trapped_number",
    ],
    "trap": ["LensProfile", "TrapDesign", "design_trap", "lens_for_omega", "omega_for_lens"],
}

PUBLIC = ["__version__", *DEFINED_IN["units"], *DEFINED_IN["coupling"],
          *DEFINED_IN["dispersion"], *DEFINED_IN["thermo"], *DEFINED_IN["trap"]]


def test_all_is_pinned():
    assert polbec.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_every_name_resolves(name):
    # each name is the very object its defining submodule holds
    value = getattr(polbec, name)
    if name == "__version__":
        assert isinstance(value, str)
        return
    (module,) = [module for module, names in DEFINED_IN.items() if name in names]
    assert value is getattr(importlib.import_module(f"polbec.{module}"), name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from polbec import *", namespace)
    assert {name: namespace[name] for name in PUBLIC} == {
        name: getattr(polbec, name) for name in PUBLIC
    }


def test_dispersion_is_the_submodule():
    assert polbec.dispersion is sys.modules["polbec.dispersion"]


def test_dispersion_attribute_loads_it_in_a_fresh_interpreter():
    # the module loads on first access; numpy only once a curve is sampled
    env = dict(os.environ, PYTHONPATH=str(Path(polbec.__file__).resolve().parents[1]))
    probe = (
        "import sys, polbec\n"
        "before = 'polbec.dispersion' in sys.modules\n"
        "module = polbec.dispersion\n"
        "print(before, module is sys.modules['polbec.dispersion'], 'numpy' in sys.modules)\n"
        "coupling = polbec.resonant_coupling(polbec.qty(2.104, 'eV'), polbec.qty(1, 'meV'))\n"
        "module.sample_dispersion(coupling, polbec.qty(2.104, 'eV'))\n"
        "print('numpy' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.split() == ["False", "True", "False", "True"]


def test_bare_import_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=str(Path(polbec.__file__).resolve().parents[1]))
    probe = "import sys, polbec\nprint(sorted(m for m in sys.modules if m.startswith('polbec.')))\n"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


PACKAGE = Path(polbec.__file__).parent
MODULE_PATHS = sorted(PACKAGE.glob("*.py"))
# the modules of cgs float cores: core, and apart from it the cores that
# one command alone runs (the branches, the strong-coupling test, the trap)
CORE_MODULES = ("core", "branches", "regime", "lens")
# the modules that polbec.cli imports only when one of their commands runs
COMMAND_MODULES = ("curves", "masses", "regime", "lens")
SUBMODULES = [path.stem for path in MODULE_PATHS
              if path.stem not in ("__init__", "__main__", *CORE_MODULES)]


@pytest.mark.parametrize("module", SUBMODULES)
def test_each_core_name_has_one_home(module):
    # a submodule lists a name of a core module in __all__ only when
    # polbec.__all__ maps that name to it
    core_names = {name for core in CORE_MODULES
                  for name in importlib.import_module(f"polbec.{core}").__all__}
    exported = set(importlib.import_module(f"polbec.{module}").__all__)
    assert exported & core_names == set(DEFINED_IN.get(module, ())) & core_names


# the names units exports beside its entry in polbec._SUBMODULE_NAMES
UNITS_OWN = ["DIMENSIONLESS", "LENGTH", "MASS", "TIME", "TEMPERATURE", "ENERGY", "FREQUENCY",
             "VELOCITY", "WAVENUMBER", "VOLUME_DENSITY", "AREA_DENSITY", "DIPOLE_MOMENT",
             "CURVATURE", "UNITS"]


@pytest.mark.parametrize("module", list(DEFINED_IN))
def test_submodule_all_is_its_table_entry(module):
    own = UNITS_OWN if module == "units" else []
    exported = importlib.import_module(f"polbec.{module}").__all__
    assert exported == [*polbec._SUBMODULE_NAMES[module], *own]
    assert sorted(exported) == sorted([*DEFINED_IN[module], *own])


def test_unknown_attribute_names_it():
    with pytest.raises(AttributeError, match="no attribute 'banana'"):
        polbec.banana


def _runtime_all(path: Path) -> tuple:
    """The module's __all__ as it is once imported, or () without one."""
    if path.stem == "__main__":  # importing it runs the CLI, and it has no __all__
        return ()
    module = "polbec" if path.stem == "__init__" else f"polbec.{path.stem}"
    return getattr(importlib.import_module(module), "__all__", ())


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but neither uses nor lists in its __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_runtime_all(path))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULE_PATHS, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _tree(stem: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))


def _taken_from(tree: ast.Module, modules) -> list[tuple[str, str]]:
    """(module, name) for each name that a module imports from one of
    modules, at module level or inside a function."""
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in modules
            for alias in node.names]


def _unreached_by_cli() -> list[str]:
    """The top-level functions and classes of the core modules that nothing
    polbec.cli takes from a core, command or numtext module reaches,
    following the names each definition refers to within those modules and
    the names each takes from another."""
    followed = tuple(dict.fromkeys((*CORE_MODULES, *COMMAND_MODULES, "numtext")))
    trees = {stem: _tree(stem) for stem in ("cli", *followed)}
    defined, imported = {}, {}  # (module, name) -> its definition, or the module it comes from
    for stem in followed:
        for node in trees[stem].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[stem, node.name] = node
        imported.update({(stem, name): module
                         for module, name in _taken_from(trees[stem], followed)})
    todo = _taken_from(trees["cli"], followed)
    reached = set()
    while todo:
        stem, name = todo.pop()
        stem = imported.get((stem, name), stem)
        if (stem, name) in reached or (stem, name) not in defined:
            continue
        reached.add((stem, name))
        todo += [(stem, node.id) for node in ast.walk(defined[stem, name])
                 if isinstance(node, ast.Name)]
    return sorted(f"{stem}.{name}" for stem, name in defined.keys() - reached
                  if stem in CORE_MODULES)


def test_core_modules_hold_only_what_the_cli_reaches():
    # a Quantity operation that no command runs computes on its own, so that
    # every start of the CLI compiles no core it cannot run
    assert _unreached_by_cli() == []


def _unreached_in(stem: str, entries) -> list[str]:
    """The top-level functions, classes and constants of polbec.<stem> that
    entries do not reach, following the names each definition refers to
    within the module; __all__ is read by import, not by name."""
    tree = _tree(stem)
    defined = {}  # name -> the statement that defines it
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((target.id, node) for target in targets if isinstance(target, ast.Name))
    reached, todo = set(), list(entries)
    while todo:
        name = todo.pop()
        if name in reached or name not in defined:
            continue
        reached.add(name)
        todo += [node.id for node in ast.walk(defined[name]) if isinstance(node, ast.Name)]
    return sorted(defined.keys() - reached - {"__all__"})


def test_cli_holds_only_what_main_reaches():
    # a table builder, key list or constant that no command runs is dead code;
    # the command modules call cli's helpers as cli.<name>
    used = [node.attr for stem in COMMAND_MODULES for node in ast.walk(_tree(stem))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "cli"]
    assert _unreached_in("cli", ["main", *used]) == []


@pytest.mark.parametrize("module", COMMAND_MODULES)
def test_command_module_holds_only_what_its_commands_reach(module):
    # what cli takes from the module, when one of its commands runs, reaches
    # all of it: the code of one command is compiled by no other
    entries = [name for _, name in _taken_from(_tree("cli"), (module,))]
    assert entries
    assert _unreached_in(module, entries) == []


@pytest.mark.parametrize("module", ["trap", "coupling"])
def test_library_module_loads_no_cli(module):
    # the Quantity operations take their cores from the command's module,
    # which loads cli only inside the handler
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = (f"import sys, polbec.{module}\n"
             "print([m for m in ('argparse', 'polbec.cli') if m in sys.modules])\n")
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"
