"""Deterministic command-line front end.

Subcommands: check-coupling, dispersion, hopfield, masses, thresholds,
trap, sweep.  All file output is byte-stable across runs and locales:
numbers are printed with 12 significant digits, rows are assembled in
grid/sweep order, and the metadata header carries no timestamps.
Evaluation is serial; --workers is accepted and has no effect.

The CLI imports polbec.core (the cgs float cores, the constants and the
unit table) and polbec.config, and from the standard library argparse,
json, math, re, sys, functools, itertools and, for the config digest,
hashlib.  Only dispersion, hopfield and their sweeps sample a curve; the
branch cores import numpy when they run, and a CSV curve is printed
through polbec.numtext, imported when it prints.  So the scalar commands
start without numpy, and no command loads dataclasses, fractions or any
Quantity.

Config values are dimension-checked once, when the config is parsed, and
stored as cgs floats; every command computes on those floats through the
library's cgs cores, whose value and range checks name the keys.  A masses,
dispersion or hopfield sweep swaps one float per value into one copy of the
config.  A thresholds sweep calls the ladder once, with the swept values as
one argument's column (or the derived masses', for a key the mass reads),
and its fields are the table's columns.  Every number is printed as '%.12g'
prints it.  A CSV curve keeps its numpy columns and is printed by the
numtext kernel, a block of rows at a time; every other table is printed
column-wise through one '%'-template, into which a column with one value
throughout is printed once.  A JSON table prints its rows straight from the
float columns, each number formatted once in json's spelling of the 12-digit
value, and leaves only its header to json.  The argument parser is built
once per process and shared by every later call of main.

Exit codes: 0 success, 1 usage/config error, 2 physical-regime warning
(weak coupling, or no lower-branch well in the paraxial window).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from functools import cache
from itertools import repeat, starmap

from . import __version__
from .config import (
    ConfigError,
    RunConfig,
    SweepSpec,
    check_keys,
    config_cgs,
    sweep_values,
)
from .core import (
    CGS_UNITS,
    ENERGY_SCALE_NOTE,
    EV_ERG,
    KB_CGS,
    MEV_ERG,
    CouplingRegime,
    NoWellError,
    ThresholdLadder,
    check_cavity,
    condensation_ladder,
    design_trap_cgs,
    effective_masses_cgs,
    geometry_coupling_cgs,
    kt_temperature_K,
    resonant_coupling_cgs,
    sample_dispersion_cgs,
    strong_coupling_cgs,
    transverse_energy_erg,
    well_geometry_cgs,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REGIME = 2

THRESHOLDS_HEADER = [
    "T_K", "m_eff_g", "n3_cm3", "n2_cm2", "lambda_T_cm", "r_int_cm",
    "T_d_K", "T_KT_K", "mu_meV", "omega_eff_s1", "T_c_K", "N2", "N0_frac",
    "degenerate", "kt_superfluid", "overlap",
]

DISPERSION_HEADER = [
    "k_par_over_k_perp", "E1_eV", "E2_eV", "mu_sq", "nu_sq",
    "E_ph_paraxial_eV", "E_ph_freespace_eV",
]

HOPFIELD_HEADER = ["k_par_over_k_perp", "delta_eV", "delta_over_g", "mu_sq", "nu_sq"]

# every printed number: 12 significant digits
NUMBER = "%.12g"


# what csv_lines prints for a bool cell, or for an empty (None) one
BOOL_TEXT = {True: "true", False: "false", None: ""}


def fmt(x: float) -> str:
    return NUMBER % x


def fmt_opt(x: float | None) -> str:
    return "" if x is None else fmt(x)


def text_column(col: list) -> list:
    """col as csv_lines takes it: printed to strings when it holds None in
    some cells but not all, else as it is."""
    if None in col and col.count(None) != len(col):
        return [fmt_opt(v) for v in col]
    return col


def _constant(col: list) -> bool:
    """Whether every cell of col prints as its first does: one value
    throughout, never NaN, and zeros of one sign (-0.0 == 0.0)."""
    first = col[0]
    if not (col[-1] == first and col.count(first) == len(col)):
        return False
    return first != 0 or len(set(map(math.copysign, repeat(1.0), col))) == 1


def csv_lines(columns: list) -> list[str]:
    """The rows of a table given as columns, all through one '%' template.

    A column with one value throughout is printed once, into the template.
    Otherwise a column of floats prints through NUMBER as it is, a column of
    bools through BOOL_TEXT, and one of strings through '%s'.  The columns
    are never scanned for None: a column empty in some cells but not all
    must come as strings, through text_column.
    """
    if not columns:
        return []
    specs, cells = [], []
    for col in columns:
        first = col[0]
        if _constant(col):
            specs.append(BOOL_TEXT[first] if first is None or isinstance(first, bool)
                         else NUMBER % first)
        elif isinstance(first, bool):
            specs.append("%s")
            cells.append(list(map(BOOL_TEXT.__getitem__, col)))
        else:
            specs.append("%s" if isinstance(first, str) else NUMBER)
            cells.append(col)
    template = ",".join(specs)
    if not cells:
        return [template] * len(columns[0])
    return [template % row for row in zip(*cells)]


def table_rows(columns: list) -> str:
    """The CSV rows of a table of list columns, through csv_lines, each ended
    by a newline."""
    return "\n".join([*csv_lines(columns), ""])


def curve_rows(tables: list) -> str:
    """The CSV rows of curve tables given as lists of float columns, one table
    after another, through the numtext kernel (which loads numpy)."""
    import numpy as np
    from .numtext import csv_rows
    return csv_rows(np.concatenate([np.column_stack(columns) for columns in tables]))


def render_csv(meta: list[str], header: list[str], rows: str) -> str:
    """A CSV table: the metadata lines, the header and the rows' text."""
    return "".join(f"# {m}\n" for m in meta) + ",".join(header) + "\n" + rows


# json's indent=2 separators inside "rows": between rows and between cells
JSON_ROW_SEP = "\n    ],\n    [\n      "
JSON_CELL_SEP = ",\n      "


def _json_rows(columns: list) -> str:
    """The rows of a table of float columns as json writes them in "rows".

    Each cell is the number NUMBER prints, spelled as json spells that
    float.  format(x, ".12") gives NUMBER's 12 digits in float.__repr__'s
    spelling except for a printed exponent of 11 to 15 (repr writes those
    digits in full) and for subnormals (repr is shorter); a block with an
    "e+1" or "e-3" in it is written again from the CSV lines, each number
    read back and spelled by float.__repr__.
    """
    row = JSON_CELL_SEP.join(["{:.12}"] * len(columns)).format
    rows = JSON_ROW_SEP.join(starmap(row, zip(*columns)))
    if "e+1" in rows or "e-3" in rows:
        rows = JSON_ROW_SEP.join(
            JSON_CELL_SEP.join(map(float.__repr__, map(float, line.split(","))))
            for line in csv_lines(columns)
        )
    if "n" in rows:  # no finite number has an 'n'
        rows = rows.replace("nan", "NaN").replace("inf", "Infinity")
    return rows


def render_json(payload: dict) -> str:
    """The payload as json.dumps(payload, indent=2) writes it, plus a newline.

    A "rows" entry holds the table's float columns; it is written as the
    rows of the printed numbers, as json writes a list of lists of floats
    with indent=2 (_json_rows).  json itself would write them through its
    pure-Python encoder, which it uses to indent.
    """
    columns = payload.get("rows")
    text = json.dumps(payload if columns is None else {**payload, "rows": []}, indent=2)
    if columns and columns[0]:
        text = text.replace(
            '\n  "rows": []',
            '\n  "rows": [\n    [\n      ' + _json_rows(columns) + '\n    ]\n  ]', 1
        )
    return text + "\n"


def emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _meta_head(cfg: RunConfig) -> list[str]:
    return [f"polbec {__version__}", f"config sha256: {cfg.digest()}"]


# ---------------------------------------------------------------------------
# config -> coupling and mass
# ---------------------------------------------------------------------------

def _coupling_cgs(c: RunConfig) -> tuple[float, float, float, float]:
    """(g, k_perp, Delta, L_cav) in cgs from E0, g, mode_index and either
    L_cav or an explicit Delta; with d_beam given the cavity is checked too."""
    e0 = c.require("E0")
    g = c.require("g")
    mode_index = c.require("mode_index")
    if "Delta" in c.values:
        delta = c.values["Delta"]
        k_perp = resonant_coupling_cgs(e0, g, delta)
        length = math.pi * mode_index / k_perp
    else:
        _, length = c.require_any("L_cav", "Delta")
        k_perp, delta = geometry_coupling_cgs(e0, length, mode_index, g)
    d_beam = c.get("d_beam")
    if d_beam is not None:
        check_cavity(length, mode_index, d_beam)
    return g, k_perp, delta, length


def _effective_mass(c: RunConfig) -> float:
    """m_eff in g from the config, or the lower-branch mass derived from coupling keys."""
    if "m_eff" in c.values:
        return c.values["m_eff"]
    try:
        g, k_perp, delta, _ = _coupling_cgs(c)
    except ConfigError as exc:
        if "missing required key" not in str(exc):
            raise
        raise ConfigError(
            "missing required key 'm_eff' (or the coupling keys "
            "E0, g, mode_index and L_cav|Delta to derive it)"
        ) from None
    return effective_masses_cgs(delta, g, k_perp)[2]


# ---------------------------------------------------------------------------
# table builders (shared between direct commands and sweep)
# ---------------------------------------------------------------------------

def _curve_table(c: RunConfig, command: str, args):
    """(meta, header, columns) of the dispersion or hopfield table of a config;
    the columns are numpy arrays."""
    g, k_perp, delta, _ = _coupling_cgs(c)
    e_at = c.require("E0")
    try:
        k, e1, e2, mu2, nu2, e_ph, e_free = sample_dispersion_cgs(
            e_at, g, k_perp, args.samples, args.kmax)
    except MemoryError:
        raise ValueError(
            f"--samples {args.samples}: the k_par grid does not fit in memory") from None
    meta = [f"Delta_eV = {fmt(delta / EV_ERG)}", f"g_eV = {fmt(g / EV_ERG)}"]
    if command == "hopfield":
        mismatch = e_at - e_ph
        columns = [k / k_perp, mismatch / EV_ERG, mismatch / g, mu2, nu2]
        meta.append("mu_sq is the photon fraction of the upper branch")
        return meta, HOPFIELD_HEADER, columns
    columns = [k / k_perp, e1 / EV_ERG, e2 / EV_ERG, mu2, nu2, e_ph / EV_ERG, e_free / EV_ERG]
    meta += [
        f"k_perp_cm^-1 = {fmt(k_perp)}",
        f"grid: {args.samples} samples, k_par in [0, {fmt(args.kmax)}] * k_perp",
        "E_ph_freespace = hbar*c*sqrt(k_perp^2 + k_par^2)",
    ]
    return meta, DISPERSION_HEADER, columns


def _masses_table(c: RunConfig, command: str, args):
    """(meta, header, columns) of the one-row masses table of a config."""
    g, k_perp, delta, _ = _coupling_cgs(c)
    m_ph, m_upper, m_lower, upper_saturated, lower_saturated = effective_masses_cgs(
        delta, g, k_perp)
    n_s = c.get("n_s", c.get("n2"))
    t_kt = [None, None] if n_s is None else [kt_temperature_K(n_s, m) for m in (m_upper, m_lower)]
    meta = [f"informational: kB*T_eff ~ g gives T_eff_K = {fmt(g / KB_CGS)}"]
    if upper_saturated or lower_saturated:
        meta.append("mass saturated at denominator 1e-12 (|Delta| >> g)")
    unit = "g" if args.units == "cgs" else "kg"
    grams_per_unit = CGS_UNITS[unit][0]
    header = ["Delta_eV", "g_eV", f"m_ph_{unit}", f"m_upper_{unit}", f"m_lower_{unit}",
              "T_KT_upper_K", "T_KT_lower_K"]
    values = [delta / EV_ERG, g / EV_ERG, m_ph / grams_per_unit, m_upper / grams_per_unit,
              m_lower / grams_per_unit, *t_kt]
    return meta, header, [[v] for v in values]


# the table of each command that prints one per config, as a sweep repeats it
TABLES = {"masses": _masses_table, "hopfield": _curve_table, "dispersion": _curve_table}

# the commands whose table is a curve: numpy columns, printed through numtext
CURVES = ("dispersion", "hopfield")


# the config keys behind condensation_ladder's positional arguments
LADDER_KEYS = ("T", "m_eff", "n2", "n3", "omega_eff", "U0", "r0", "n_s")

# without m_eff in the config, _effective_mass derives it from these keys
MASS_KEYS = ("E0", "g", "Delta", "L_cav", "mode_index", "d_beam")


def _ladder_args(c: RunConfig) -> list:
    """condensation_ladder's arguments, in LADDER_KEYS order, from a config."""
    t = c.require("T")
    get = c.values.get
    n2 = get("n2")
    n3 = get("n3")
    if n2 is None and n3 is None:
        raise ConfigError("missing required key: one of 'n2', 'n3'")
    return [t, _effective_mass(c), n2, n3, get("omega_eff"), get("U0"), get("r0"), get("n_s")]


def _sweep_ladder(cfg: RunConfig, spec: SweepSpec, values: list[float]) -> ThresholdLadder:
    """The ladder over the swept values, from one call with the swept column.

    The arguments are bound at the first value and the swept key's column
    takes its slot.  Without m_eff in the config, a key the derived mass
    reads gives the column of the masses derived per value instead.  On a
    failure the values are replayed one at a time, so the sweep stops with
    the error of its first failing value.
    """
    key = spec.param
    try:
        column = [config_cgs(spec, value) for value in values]
        c = cfg.with_value(key, column[0])
        if key in MASS_KEYS and "m_eff" not in c.values:
            masses = []
            for c.values[key] in column:
                masses.append(_effective_mass(c))
            c.values["m_eff"] = masses
        args = _ladder_args(c)
        if key in LADDER_KEYS:
            args[LADDER_KEYS.index(key)] = column
        return condensation_ladder(*args)
    except (ValueError, ArithmeticError):  # ConfigError is a ValueError
        for value in values:
            condensation_ladder(*_ladder_args(cfg.with_value(key, config_cgs(spec, value))))
        raise


def _thresholds_columns(ladder: ThresholdLadder, rows: int) -> list:
    """The THRESHOLDS_HEADER columns of a ladder over `rows` values.

    A field that is not a column holds for every row.  The ladder's fields
    are in the header's order and units but for two: n2 comes before n3,
    and mu is in erg (printed in meV).  n3 and the trap columns are None in
    every row or in none, but N2 is None where omega_eff = 0, so it goes
    through text_column.
    """
    t, m, n2, n3, lam, r_int, t_d, t_kt, mu, omega, t_c, n_trapped, *rest = (
        f if type(f) is list else [f] * rows for f in ladder[:16])
    return [t, m, n3, n2, lam, r_int, t_d, t_kt, [v / MEV_ERG for v in mu],
            omega, t_c, text_column(n_trapped), *rest]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _emit_table(cfg: RunConfig, args, meta: list[str], header: list[str], columns: list) -> None:
    """Write a command's table as CSV or JSON.  A curve's CSV rows come from
    the numtext kernel; in JSON a curve is "columns" and "rows" (its columns
    as lists).  The one row of masses or thresholds gives one key per column."""
    meta = _meta_head(cfg) + meta
    curve = args.command in CURVES
    if args.format != "json":
        text = render_csv(meta, header, curve_rows([columns]) if curve else table_rows(columns))
    elif curve:
        rows = [col.tolist() for col in columns]
        text = render_json({"metadata": meta, "columns": header, "rows": rows})
    else:
        text = render_json({"metadata": meta, **{h: col[0] for h, col in zip(header, columns)}})
    emit(text, args.out)


def cmd_check_coupling(cfg: RunConfig, args) -> int:
    omega_c, rate, ratio, regime = strong_coupling_cgs(
        *map(cfg.require, ("E0", "d", "n3", "tau_coh")), args.threshold)
    numbers = {"omega_c_s1": omega_c, "decoherence_rate_s1": rate, "ratio": ratio,
               "threshold": args.threshold}
    if args.format == "json":
        text = render_json({**numbers, "regime": regime.value})
    else:
        lines = [f"# {m}" for m in _meta_head(cfg)]
        lines += [f"{key} = {fmt(value)}" for key, value in numbers.items()]
        text = "\n".join(lines + [f"regime = {regime.value}"]) + "\n"
    emit(text, args.out)
    return EXIT_OK if regime is CouplingRegime.STRONG else EXIT_REGIME


def _well_meta(c: RunConfig, kmax: float) -> tuple[list[str], int]:
    """The metadata lines on the lower-branch well, and the exit code."""
    g, k_perp, delta, length = _coupling_cgs(c)
    m_lower = effective_masses_cgs(delta, g, k_perp)[2]
    meta = ["well energy scale uses the lower-branch curvature mass (2*m_ph at Delta = 0)"]
    try:
        inflection, depth, halfwidth, phi, resolvable = well_geometry_cgs(
            c.values["E0"], g, k_perp, delta, kmax, length, c.get("d_beam"))
    except NoWellError as exc:
        return meta + [f"well: none ({exc})"], EXIT_REGIME
    curvature = transverse_energy_erg(inflection, m_lower)
    meta.append(f"well: inflection_k/k_perp = {fmt(halfwidth)}, "
                f"depth_eV = {fmt(depth / EV_ERG)}, "
                f"curvature_energy_over_g = {fmt(curvature / g)}")
    if phi is not None:
        meta.append(f"well: diffraction limit phi_rad = {fmt(phi)}, "
                    f"beam resolvable = {BOOL_TEXT[resolvable]}")
    return meta, EXIT_OK


def cmd_table(cfg: RunConfig, args) -> int:
    """dispersion, hopfield and masses; dispersion also reports the well."""
    meta, header, columns = TABLES[args.command](cfg, args.command, args)
    exit_code = EXIT_OK
    if args.command == "dispersion":
        well, exit_code = _well_meta(cfg, args.kmax)
        meta += well
    _emit_table(cfg, args, meta, header, columns)
    return exit_code


def cmd_thresholds(cfg: RunConfig, args) -> int:
    ladder = condensation_ladder(*_ladder_args(cfg))
    _emit_table(cfg, args, [f"note: {n}" for n in ladder.notes], THRESHOLDS_HEADER,
                _thresholds_columns(ladder, 1))
    return EXIT_OK


def cmd_trap(cfg: RunConfig, args) -> int:
    if args.target_tc is None or args.n_particles is None:
        raise ConfigError("trap requires --target-tc and --n-particles")
    if args.target_tc <= 0 or args.n_particles <= 0:
        raise ConfigError("--target-tc and --n-particles must be positive")
    m_eff = _effective_mass(cfg)
    key = "E_char" if "E_char" in cfg.values else "E0"
    e_char = cfg.get(key)
    if e_char is None:
        raise ConfigError("missing required key 'E_char' (or 'E0' as its default)")
    if not e_char > 0:
        default = " (the default of 'E_char')" if key == "E0" else ""
        raise ConfigError(f"key '{key}'{default} must be positive, got {e_char / EV_ERG:g} eV")
    n0 = cfg.get("n0", 1.0)
    omega, n_prime, r_max, fits = design_trap_cgs(
        args.target_tc, args.n_particles, m_eff, e_char, n0, cfg.get("d_beam"))
    if fits is False:
        sys.stderr.write(
            "warning: beam diameter exceeds the harmonic region of the lens profile\n"
        )
    text = render_json({
        "omega_eff_s1": omega,
        "omega_at_s1": cfg.get("omega_at"),
        "n_prime_cm2": n_prime,
        "n0": n0,
        "r_max_cm": r_max,
        "E_char_eV": e_char / EV_ERG,
        "assumption_note": ENERGY_SCALE_NOTE,
    })
    emit(text, args.out)
    return EXIT_OK


SWEEP_TARGETS = ("masses", "thresholds", "hopfield", "dispersion")


def cmd_sweep(cfg: RunConfig, args) -> int:
    spec = SweepSpec(args.param, args.sweep_from, args.sweep_to, args.steps, args.scale)
    # the config with the swept key written in must pass what parsing checks
    check_keys({*cfg.values, spec.param})
    values = sweep_values(spec)
    target = args.target

    if target == "thresholds":
        header = THRESHOLDS_HEADER
        columns = [values, *_thresholds_columns(_sweep_ladder(cfg, spec, values), len(values))]
        rows = table_rows(columns)
    else:
        # one copy of the config; each value swaps in one float and gives
        # one group of rows
        c = cfg.with_value(spec.param, None)
        groups = []
        for value in values:
            c.values[spec.param] = config_cgs(spec, value)
            _, header, group = TABLES[target](c, target, args)
            groups.append([[value] * len(group[0]), *group])
        if target in CURVES:
            rows = curve_rows(groups)
        else:
            rows = table_rows([[v for part in parts for v in part] for parts in zip(*groups)])

    unit = spec.unit
    sweep_col = f"sweep_{spec.param}_{unit}" if unit else f"sweep_{spec.param}"
    meta = _meta_head(cfg) + [
        f"sweep: {spec.param} from {fmt(spec.start)} to {fmt(spec.stop)} "
        f"in {spec.steps} steps ({spec.scale})"
        + (f", values in {unit}" if unit else ""),
        f"target: {target}",
    ]
    emit(render_csv(meta, [sweep_col, *header], rows), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this toolkit reserves 2 for
    physics warnings, so remap usage errors to exit code 1.

    argparse takes '-1e-3' for an option because its negative-number pattern
    has no exponent; the wider pattern lets '--to -1e-3' parse as a number.
    Subparsers are built from this class, so they inherit both changes.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_command(sub, name: str, help_text: str, grid: bool = False) -> argparse.ArgumentParser:
    """A subcommand with the options every command takes, and with grid
    the options of a curve."""
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--config", required=True, help="path to key = value config file")
    p.add_argument("--out", default="-", help="output path, or - for stdout")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--units", choices=("cgs", "si"), default=None)
    if grid:
        p.add_argument("--samples", type=int, default=101, help="grid points in k_par")
        p.add_argument("--kmax", type=float, default=0.2, help="k_par window edge over k_perp")
        p.add_argument("--workers", type=int, default=1, help="accepted; evaluation is serial")
    return p


@cache
def build_parser() -> _Parser:
    """The CLI's parser, built on the first call and shared by every later one.

    parse_args gives each call a fresh Namespace and main changes only that,
    never the parser, so one parser serves every call in a process.
    """
    # --help shows the module docstring's summary, first paragraph and exit
    # codes; the paragraphs between them are notes on the implementation
    # (python -OO strips the docstring, leaving no description)
    paragraphs = (__doc__ or "").split("\n\n")
    parser = _Parser(prog="polbec", description="\n\n".join(paragraphs[:2] + paragraphs[-1:]))
    parser.add_argument("--version", action="version", version=f"polbec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "check-coupling", "strong-coupling regime test")
    p.add_argument("--threshold", type=float, default=10.0,
                   help="ratio above which the regime counts as strong")
    _add_command(sub, "dispersion", "sample both polariton branches over k_par", grid=True)
    _add_command(sub, "hopfield", "photon/matter composition along the grid", grid=True)
    _add_command(sub, "masses", "photon and branch curvature masses")
    _add_command(sub, "thresholds", "condensation threshold ladder")
    p = _add_command(sub, "trap", "design a lens profile for a target T_c")
    p.add_argument("--target-tc", type=float, default=None, help="target T_c in K")
    p.add_argument("--n-particles", type=float, default=None, help="particle number N")
    p = _add_command(sub, "sweep", "sweep one config key through a target command", grid=True)
    p.add_argument("--param", required=True, help="config key to sweep")
    p.add_argument("--from", dest="sweep_from", type=float, required=True,
                   help="start value in the key's canonical unit")
    p.add_argument("--to", dest="sweep_to", type=float, required=True,
                   help="stop value in the key's canonical unit")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--scale", choices=("linear", "log"), default="linear")
    p.add_argument("--command", dest="target", choices=SWEEP_TARGETS, required=True)
    return parser


_COMMANDS = {
    "check-coupling": cmd_check_coupling,
    "dispersion": cmd_table,
    "hopfield": cmd_table,
    "masses": cmd_table,
    "thresholds": cmd_thresholds,
    "trap": cmd_trap,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
        if args.format is None:
            args.format = cfg.get("format", "csv")
        if args.units is None:
            args.units = cfg.get("units", "cgs")
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        sys.stderr.write(f"polbec: config error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"polbec: {exc}\n")
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"polbec: error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
