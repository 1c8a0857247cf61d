"""Deterministic command-line front end.

Subcommands: check-coupling, dispersion, hopfield, masses, thresholds,
trap, sweep.  All file output is byte-stable across runs and locales:
CSV, text and the rows of a JSON curve print numbers with 12 significant
digits, every other JSON number is printed in full as json writes it, rows
are assembled in grid/sweep order, and the metadata carries no timestamps.
Evaluation is serial; --workers is accepted and has no effect.

The CLI imports polbec.core (the scalar cgs float cores, the constants
and the unit table) and polbec.config, and from the standard library
argparse, math, re, sys, functools and itertools.  Only dispersion,
hopfield and their sweeps sample a curve: they import the branch cores
(polbec.branches) when they run, and those import numpy; a CSV curve is
printed through polbec.numtext, imported when it prints.  json is
imported when JSON is written.  So the scalar commands start without
numpy, json or the branch cores, and no command loads dataclasses,
fractions or any Quantity.

Config values are dimension-checked once, when the config is parsed, and
stored as cgs floats; every command computes on those floats through the
library's cgs cores, whose value and range checks name the keys.  A masses,
dispersion or hopfield sweep swaps one float per value into one copy of the
config.  A thresholds sweep converts the swept values to cgs in one pass and
calls the ladder once, with them as one argument's column (or the derived
masses', for a key of COUPLING_KEYS, which the derived mass reads); the
ladder evaluates each stage on the columns it depends on, one comprehension
per stage, checks the results in bulk, and its first 16 fields are the
table's columns, in order.  If that call fails, the sweep runs the loop of
the other sweeps, one value at a time, which stops at the first failing
value's own error.  It builds no notes: only a one-shot thresholds run
prints them, from ladder_notes.  Every number of a CSV or text output, and
of the metadata, is printed as '%.12g' prints it.  A CSV curve keeps its
numpy columns and is printed by the numtext kernel; every other table is
printed column-wise through one '%'-template.  A value that holds for every
row (a ladder field that is not a column, or a cell of a one-row table)
stays a scalar and is printed once, into the template, and a float column
that is the same list as an earlier one (the sweep column and the swept
key's, which config_cgs shares) is formatted once for both.  A JSON curve
(dispersion, hopfield) prints its rows straight from the float columns,
each number formatted once in json's spelling of the 12-digit value, so it
reads as the CSV cell does, and leaves only its header to json.  Every
other JSON output is one object with a key per value, each float written by
json in full (its repr, so "lambda_T_cm": 0.00018368717050473867 where the
CSV cell reads 0.000183687170505): the one-row thresholds and masses
tables, which carry the metadata, and check-coupling and trap, which carry
none.  The argument parser is built once per process and shared by every
later call of main.

A command computes all that can fail (a curve's sampling with its grid-size
and window checks, the well, the metadata, every sweep value) before emit
opens the --out file, so an error writes no byte and leaves no file.  emit
writes the head (metadata and header lines), then the rows as blocks of
ASCII bytes: to the file in binary mode, or decoded to stdout for --out -.
A CSV curve's blocks stream from the numtext kernel (a curve sweep joins
each column over its values once), so its text is never held whole; a list
table's rows are one block.  Should the reader of stdout close it early (as
head does), the run ends with exit 1 and no message.

Exit codes: 0 success, 1 usage/config error, 2 physical-regime warning
(weak coupling, or no lower-branch well in the paraxial window).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from functools import cache
from itertools import starmap

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
    CouplingRegime,
    ThresholdLadder,
    range_error,
    check_cavity,
    condensation_ladder,
    design_trap_cgs,
    effective_masses_cgs,
    geometry_coupling_cgs,
    kt_temperature_K,
    ladder_notes,
    resonant_coupling_cgs,
    strong_coupling_cgs,
    transverse_energy_erg,
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


def text_column(col):
    """col as csv_lines takes it: a column (a list or tuple) that holds None
    printed to strings, anything else as it is."""
    if type(col) in (list, tuple) and None in col:
        return [fmt_opt(v) for v in col]
    return col


def csv_lines(columns: list) -> list[str]:
    """The rows of a table given as columns, all through one '%' template.

    A column is a list or tuple of cells.  Anything else is one value that
    holds for every row: it is printed once, into the template, and a table
    with no list column is one row.  A column of floats prints through
    NUMBER as it is, a column of bools through BOOL_TEXT, and one of strings
    through '%s'.  A float column that is the same list or tuple as an
    earlier one (a sweep's column and the swept key's) is formatted once,
    and both print that through '%s'.  The columns are never scanned for
    None: a column empty in some cells must come as strings, through
    text_column.
    """
    if not columns:
        return []
    specs, cells = [], []  # a spec is a constant's text, or the index of its cells
    seen = {}  # id of a float column -> the index of its cells where it first came
    for col in columns:
        if type(col) not in (list, tuple):
            specs.append(BOOL_TEXT[col] if col is None or isinstance(col, bool) else NUMBER % col)
            continue
        first = col[0]
        if isinstance(first, bool):
            col = list(map(BOOL_TEXT.__getitem__, col))
        elif not isinstance(first, str):
            i = seen.setdefault(id(col), len(cells))
            if i < len(cells):  # one '%' for the column costs less than one per cell
                col = cells[i] = ("\n".join([NUMBER] * len(col)) % tuple(col)).split("\n")
        specs.append(len(cells))
        cells.append(col)
    template = ",".join(s if type(s) is str else "%s" if type(cells[s][0]) is str else NUMBER
                        for s in specs)
    if not cells:
        return [template]
    return [template % row for row in zip(*cells)]


def table_rows(columns: list) -> list[bytes]:
    """The CSV rows of a table given as columns, through csv_lines, each
    ended by a newline, as one block of ASCII bytes."""
    return ["\n".join([*csv_lines(columns), ""]).encode("ascii")]


def curve_blocks(columns: list):
    """The CSV rows of a curve table given as numpy columns, as the numtext
    kernel's blocks of ASCII bytes (it loads numpy)."""
    from .numtext import csv_blocks
    return csv_blocks(columns)


def render_csv(meta: list[str], header: list[str]) -> str:
    """A CSV table's head: the metadata lines and the header."""
    return "".join(f"# {m}\n" for m in meta) + ",".join(header) + "\n"


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
    import json
    columns = payload.get("rows")
    text = json.dumps(payload if columns is None else {**payload, "rows": []}, indent=2)
    if columns and columns[0]:
        text = text.replace(
            '\n  "rows": []',
            '\n  "rows": [\n    [\n      ' + _json_rows(columns) + '\n    ]\n  ]', 1
        )
    return text + "\n"


def emit(text: str, out: str, blocks=()) -> None:
    """Write text, then each block of ASCII bytes as it comes: to stdout for
    out '-', flushed before it returns, else to the file out, opened only
    now, in binary mode."""
    if out == "-":
        sys.stdout.write(text)
        for block in blocks:
            sys.stdout.write(block.decode("ascii"))
        sys.stdout.flush()
    else:
        with open(out, "wb") as fh:
            fh.write(text.encode("utf-8"))
            for block in blocks:
                fh.write(block)


def _meta_head(cfg: RunConfig) -> list[str]:
    return [f"polbec {__version__}", f"config sha256: {cfg.digest()}"]


# ---------------------------------------------------------------------------
# config -> coupling and mass
# ---------------------------------------------------------------------------

# the config keys _coupling_cgs reads, and so the keys behind a derived mass
COUPLING_KEYS = ("E0", "g", "mode_index", "Delta", "L_cav", "d_beam")


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
    except ConfigError:  # a missing key, the only ConfigError it raises
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
    from .branches import GridSizeError, photon_freespace_erg, sample_dispersion_cgs
    g, k_perp, delta, _ = _coupling_cgs(c)
    e_at = c.require("E0")
    try:
        k, e1, e2, mu2, nu2, e_ph = sample_dispersion_cgs(
            e_at, g, k_perp, args.samples, args.kmax)
    except GridSizeError:
        raise GridSizeError(args.samples, "--samples") from None
    meta = [f"Delta_eV = {fmt(delta / EV_ERG)}", f"g_eV = {fmt(g / EV_ERG)}"]
    if command == "hopfield":
        mismatch = e_at - e_ph
        # mismatch falls along the grid, so its ends bound mismatch / g
        if max(-mismatch[-1], mismatch[0]).item() / g == math.inf:
            raise OverflowError(f"(E0 - E_ph) / g leaves the float range on the grid for "
                                f"--kmax {args.kmax:g}, 'g' = {g / EV_ERG:g} eV")
        columns = [k / k_perp, mismatch / EV_ERG, mismatch / g, mu2, nu2]
        meta.append("mu_sq is the photon fraction of the upper branch")
        return meta, HOPFIELD_HEADER, columns
    columns = [k / k_perp, e1 / EV_ERG, e2 / EV_ERG, mu2, nu2, e_ph / EV_ERG,
               photon_freespace_erg(k, k_perp) / EV_ERG]
    meta += [
        f"k_perp_cm^-1 = {fmt(k_perp)}",
        f"grid: {args.samples} samples, k_par in [0, {fmt(args.kmax)}] * k_perp",
        "E_ph_freespace = hbar*c*sqrt(k_perp^2 + k_par^2)",
    ]
    return meta, DISPERSION_HEADER, columns


def _masses_table(c: RunConfig, command: str, args):
    """(meta, header, columns) of the one-row masses table of a config; each
    column is one value."""
    g, k_perp, delta, _ = _coupling_cgs(c)
    m_ph, m_upper, m_lower, upper_saturated, lower_saturated = effective_masses_cgs(
        delta, g, k_perp)
    n_s = c.get("n_s", c.get("n2"))
    t_kt = [None, None] if n_s is None else [kt_temperature_K(n_s, m) for m in (m_upper, m_lower)]
    t_eff = g / KB_CGS  # above g / EV_ERG, so g_eV is finite with it
    if t_eff == math.inf:
        raise range_error("T_eff = g / kB", g=f"{g:g} erg")
    meta = [f"informational: kB*T_eff ~ g gives T_eff_K = {fmt(t_eff)}"]
    if upper_saturated or lower_saturated:
        meta.append("mass saturated at denominator 1e-12 (|Delta| >> g)")
    unit = "g" if args.units == "cgs" else "kg"
    grams_per_unit = CGS_UNITS[unit][0]
    header = ["Delta_eV", "g_eV", f"m_ph_{unit}", f"m_upper_{unit}", f"m_lower_{unit}",
              "T_KT_upper_K", "T_KT_lower_K"]
    return meta, header, [delta / EV_ERG, g / EV_ERG, m_ph / grams_per_unit,
                          m_upper / grams_per_unit, m_lower / grams_per_unit, *t_kt]


# the config keys behind condensation_ladder's positional arguments
LADDER_KEYS = ("T", "m_eff", "n2", "n3", "omega_eff", "U0", "r0", "n_s")


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
    takes its slot.  Without m_eff in the config, a coupling key (one the
    derived mass reads) gives the m_eff column of the masses derived per
    value instead; a key that neither reads leaves every field one value.  A
    failure raises as it comes (from the ladder, a column's _ColumnError,
    which has no message); cmd_sweep then finds the first failing value's
    own error by its per-value loop.
    """
    key = spec.param
    column = config_cgs(spec, values)
    c = cfg.with_value(key, column[0])
    if key in COUPLING_KEYS and "m_eff" not in c.values:
        masses = []
        for c.values[key] in column:
            masses.append(_effective_mass(c))
        c.values["m_eff"] = masses
    args = _ladder_args(c)
    if key in LADDER_KEYS:
        args[LADDER_KEYS.index(key)] = column
    return condensation_ladder(*args)


def _ladder_columns(ladder: ThresholdLadder) -> list:
    """The THRESHOLDS_HEADER columns of a ladder: its first 16 fields, in the
    header's order and units.  n3 and the trap fields are None throughout
    or nowhere, but a column of N2 is None where omega_eff = 0, so it goes
    through text_column."""
    return [*ladder[:11], text_column(ladder.n_trapped), *ladder[12:16]]


def _thresholds_table(c: RunConfig, command: str, args):
    """(meta, header, columns) of the one-row thresholds table of a config,
    with the ladder's notes."""
    ladder = condensation_ladder(*_ladder_args(c))
    return [f"note: {n}" for n in ladder_notes(ladder)], THRESHOLDS_HEADER, _ladder_columns(ladder)


# the table of each command that prints one per config, in the order sweep
# lists them; a masses or curve sweep builds one per value
TABLES = {"masses": _masses_table, "thresholds": _thresholds_table,
          "hopfield": _curve_table, "dispersion": _curve_table}

# the commands whose table is a curve: numpy columns, printed through numtext
CURVES = ("dispersion", "hopfield")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _emit_table(cfg: RunConfig, args, meta: list[str], header: list[str], columns: list) -> None:
    """Write a command's table as CSV or JSON.  A curve's CSV rows stream from
    the numtext kernel; in JSON a curve is "columns" and "rows" (its columns
    as lists).  The one row of masses or thresholds gives one key per value."""
    meta = _meta_head(cfg) + meta
    curve = args.command in CURVES
    blocks = ()
    if args.format != "json":
        text = render_csv(meta, header)
        blocks = curve_blocks(columns) if curve else table_rows(columns)
    elif curve:
        rows = [col.tolist() for col in columns]
        text = render_json({"metadata": meta, "columns": header, "rows": rows})
    else:
        text = render_json({"metadata": meta, **dict(zip(header, columns))})
    emit(text, args.out, blocks)


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
    from .branches import NoWellError, well_geometry_cgs
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
    """Every command of TABLES; dispersion also reports the well."""
    meta, header, columns = TABLES[args.command](cfg, args.command, args)
    exit_code = EXIT_OK
    if args.command == "dispersion":
        well, exit_code = _well_meta(cfg, args.kmax)
        meta += well
    _emit_table(cfg, args, meta, header, columns)
    return exit_code


def cmd_trap(cfg: RunConfig, args) -> int:
    n_particles = cfg.get("N") if args.n_particles is None else args.n_particles
    if args.target_tc is None or n_particles is None:
        raise ConfigError("trap requires --target-tc and --n-particles (or the key 'N')")
    if args.target_tc <= 0 or n_particles <= 0:
        raise ConfigError("--target-tc and --n-particles (or the key 'N') must be positive")
    m_eff = _effective_mass(cfg)
    key = "E_char" if "E_char" in cfg.values else "E0"
    e_char = cfg.get(key)
    if e_char is None:
        raise ConfigError("missing required key 'E_char' (or 'E0' as its default)")
    if not e_char > 0:
        default = " (the default of 'E_char')" if key == "E0" else ""
        raise ConfigError(f"key '{key}'{default} must be positive, got {e_char / EV_ERG:g} eV")
    e_char_ev = e_char / EV_ERG
    if e_char_ev == math.inf:
        raise range_error("E_char in eV", **{key: f"{e_char:g} erg"})
    n0 = cfg.get("n0", 1.0)
    omega, n_prime, r_max, fits = design_trap_cgs(
        args.target_tc, n_particles, m_eff, e_char, n0, cfg.get("d_beam"))
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
        "E_char_eV": e_char_ev,
        "assumption_note": ENERGY_SCALE_NOTE,
    })
    emit(text, args.out)
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, args) -> int:
    spec = SweepSpec(args.param, args.sweep_from, args.sweep_to, args.steps, args.scale)
    # the config with the swept key written in must pass what parsing checks
    check_keys({*cfg.values, spec.param})
    values = sweep_values(spec)
    target = args.target

    blocks = None
    if target == "thresholds":
        header = THRESHOLDS_HEADER
        try:
            blocks = table_rows([values, *_ladder_columns(_sweep_ladder(cfg, spec, values))])
        except (ValueError, ArithmeticError):  # ConfigError is a ValueError
            pass  # the loop below stops at the first failing value's own error
    if blocks is None:
        # one copy of the config; each value swaps in one float and gives
        # one table.  A value is converted when its turn comes, so the sweep
        # stops at the error of its first failing value.
        c = cfg.with_value(spec.param, None)
        tables = []
        for value in values:
            c.values[spec.param], = config_cgs(spec, [value])
            _, header, table = TABLES[target](c, target, args)
            tables.append(table)
        if target in CURVES:  # each column joined once; every table has --samples rows
            import numpy as np
            blocks = curve_blocks([np.repeat(values, args.samples),
                                   *map(np.concatenate, zip(*tables))])
        else:  # one row per value; T_KT is None throughout without a density
            blocks = table_rows([values, *map(text_column, map(list, zip(*tables)))])

    unit = spec.unit
    sweep_col = f"sweep_{spec.param}_{unit}" if unit else f"sweep_{spec.param}"
    meta = _meta_head(cfg) + [
        f"sweep: {spec.param} from {fmt(spec.start)} to {fmt(spec.stop)} "
        f"in {spec.steps} steps ({spec.scale})"
        + (f", values in {unit}" if unit else ""),
        f"target: {target}",
    ]
    emit(render_csv(meta, [sweep_col, *header]), args.out, blocks)
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


def _add_command(sub, name: str, handler, help_text: str,
                 grid: bool = False) -> argparse.ArgumentParser:
    """A subcommand that main runs through handler, with the options every
    command takes, and with grid the options of a curve."""
    p = sub.add_parser(name, help=help_text)
    p.set_defaults(handler=handler)
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

    p = _add_command(sub, "check-coupling", cmd_check_coupling, "strong-coupling regime test")
    p.add_argument("--threshold", type=float, default=10.0,
                   help="ratio above which the regime counts as strong")
    _add_command(sub, "dispersion", cmd_table, "sample both polariton branches over k_par",
                 grid=True)
    _add_command(sub, "hopfield", cmd_table, "photon/matter composition along the grid",
                 grid=True)
    _add_command(sub, "masses", cmd_table, "photon and branch curvature masses")
    _add_command(sub, "thresholds", cmd_table, "condensation threshold ladder")
    p = _add_command(sub, "trap", cmd_trap, "design a lens profile for a target T_c")
    p.add_argument("--target-tc", type=float, default=None, help="target T_c in K")
    p.add_argument("--n-particles", type=float, default=None, help="particle number N")
    p = _add_command(sub, "sweep", cmd_sweep, "sweep one config key through a target command",
                     grid=True)
    p.add_argument("--param", required=True, help="config key to sweep")
    p.add_argument("--from", dest="sweep_from", type=float, required=True,
                   help="start value in the key's canonical unit")
    p.add_argument("--to", dest="sweep_to", type=float, required=True,
                   help="stop value in the key's canonical unit")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--scale", choices=("linear", "log"), default="linear")
    p.add_argument("--command", dest="target", choices=tuple(TABLES), required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
        if args.format is None:
            args.format = cfg.get("format", "csv")
        if args.units is None:
            args.units = cfg.get("units", "cgs")
        return args.handler(cfg, args)
    except ConfigError as exc:
        sys.stderr.write(f"polbec: config error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and args.out == "-":
            # stdout's reader closed it, as head does: no message, and stdout
            # on devnull, so that its flush at exit cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        else:
            sys.stderr.write(f"polbec: {exc}\n")
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"polbec: error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
