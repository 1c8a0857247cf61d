"""Notes on the command-line front end; what --help says of it is DESCRIPTION,
a constant, so that python -OO, which strips docstrings, prints it too.

The CLI imports polbec.core (the scalar cgs float cores, the constants
and the unit table) and polbec.config, and from the standard library
argparse, math, os, re, sys, warnings and functools.  It holds the thresholds
table, the sweep and what they share with the other commands; the code
of each other command lives in a module that main imports only when that
command runs: polbec.masses (masses and its sweep), polbec.regime
(check-coupling), polbec.lens (trap) and polbec.curves (dispersion,
hopfield and their sweeps).  So thresholds and its sweep compile the code
of no other command.  The curve commands import the branch cores
(polbec.branches) when they sample, and those import numpy; a CSV curve
is printed through polbec.numtext, imported when it prints.  json is
imported when JSON is written.  So the scalar commands start without
numpy, json or the branch cores, and no command loads dataclasses,
fractions or any Quantity.

Config values are dimension-checked once, when the config is parsed, and
stored as cgs floats; every command computes on those floats through the
library's cgs cores, whose value and range checks name the keys.  A masses,
dispersion or hopfield sweep swaps one float per value into one copy of the
config and builds one table per value.  A thresholds sweep builds one
table, by the one-shot run's builder, from a copy of the config whose swept
key holds its cgs column.  The builder takes any config whose keys hold cgs
columns of one length; without m_eff, its derived mass follows the columns of
the coupling keys, one per zipped value.  The ladder then runs once: it
evaluates each stage on the columns it depends on, one comprehension per
stage, checks the results in bulk, and its first 16 fields are the table's
columns, in order.  If that fails, the sweep runs the loop of the other
sweeps, one value at a time, which stops at the first failing value's own
error.  Like the metadata of every target, the notes (a note of a column
holds if it holds for any value) are built and dropped: only a one-shot run
prints them.  Every number of a CSV or text output, and of the metadata, is
printed as '%.12g' prints it.  A CSV curve keeps its numpy columns and is
printed by the numtext kernel; every other table is printed column-wise
through one '%'-template.  A value that holds for every row (a ladder field
that is not a column, or a cell of a one-row table) stays a scalar and is
printed once, into the template, and a float column that is the same list
as an earlier one (the sweep column and the swept key's, which config_cgs
shares) is formatted once for both.  A JSON curve (dispersion, hopfield)
has its rows laid out by polbec.curves from the float columns, each number
in json's spelling of the 12-digit value, so it reads as the CSV cell does;
render_json (json.dumps, indent=2) writes the rest.  Every other JSON
output is one object with a key per value, each float written in full (its
repr, so "lambda_T_cm": 0.00018368717050473867 where the CSV cell reads
0.000183687170505): the one-row thresholds and masses tables, which carry
the metadata, and check-coupling and trap, which carry none.

A command line that names a subcommand is parsed by that subcommand's
parser alone, which holds the options the whole parser gives it.  --help,
--version, a command line with no known command and one with an argument
left over go to the whole parser, which prints the help, the version or
the usage error.  Each parser is built once per process, on first use,
and shared by every later call of main.

A command computes all that can fail (a curve's sampling with its grid-size
and window checks, the well, the metadata, every sweep value) before emit
opens the --out file, so an error writes no byte and leaves no file; a
sweep whose values or tables do not fit in memory (or whose --steps count
passes sys.maxsize // 8, which no list can hold) ends in one line that
names --steps; only a curve grid that fails before any table is held names
--samples.  emit writes the head (metadata and header lines), then the
rows as blocks of ASCII bytes: to the file in binary mode, or decoded to
stdout for --out -.  A CSV curve's blocks stream from the numtext kernel (a
curve sweep joins each column over its values once, in polbec.curves), so
its text is never held whole; a list table's rows are one block.  Should
the reader of stdout close it early (as head does), the run ends with exit
1 and no message.  A warning raised while a command runs prints as one
line, "polbec: warning: <message>", without the source location Python's
format gives it.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import warnings
from functools import cache

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
    _require_mode_index,
    check_cavity,
    condensation_ladder,
    effective_masses_cgs,
    geometry_coupling_cgs,
    ladder_notes,
    resonant_coupling_cgs,
)

__all__ = ["main"]

DESCRIPTION = """\
Deterministic command-line front end.

Subcommands: check-coupling, dispersion, hopfield, masses, thresholds,
trap, sweep.  All file output is byte-stable across runs and locales:
CSV, text and the rows of a JSON curve print numbers with 12 significant
digits, every other JSON number is printed in full as json writes it, rows
are assembled in grid/sweep order, and the metadata carries no timestamps.
Evaluation is serial; --workers is accepted and has no effect.

Exit codes: 0 success, 1 usage/config error, 2 physical-regime warning
(weak coupling, or no lower-branch well in the paraxial window).
"""

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REGIME = 2

THRESHOLDS_HEADER = [
    "T_K", "m_eff_g", "n3_cm3", "n2_cm2", "lambda_T_cm", "r_int_cm",
    "T_d_K", "T_KT_K", "mu_meV", "omega_eff_s1", "T_c_K", "N2", "N0_frac",
    "degenerate", "kt_superfluid", "overlap",
]

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


def render_csv(meta: list[str], header: list[str]) -> str:
    """A CSV table's head: the metadata lines and the header."""
    return "".join(f"# {m}\n" for m in meta) + ",".join(header) + "\n"


def render_json(payload: dict) -> str:
    """The payload as json.dumps(payload, indent=2) writes it, plus a newline."""
    import json
    return json.dumps(payload, indent=2) + "\n"


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
    _require_mode_index(mode_index)
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


def _effective_mass(c: RunConfig):
    """m_eff in g as given, else the lower-branch mass derived from the coupling
    keys: one, or a list of one per zipped value where they hold columns."""
    if "m_eff" in c.values:
        return c.values["m_eff"]
    columns = {key: v for key in COUPLING_KEYS if type(v := c.values.get(key)) is list}
    if columns:  # each value's mass, on one copy of the config
        one, masses = RunConfig(dict(c.values)), []
        for row in zip(*columns.values()):
            one.values.update(zip(columns, row))
            masses.append(_effective_mass(one))
        return masses
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

def _thresholds_table(c: RunConfig, command: str, args):
    """(meta, header, columns) of the thresholds table of a config, with the
    ladder's notes: one row, or one per value where a key the ladder reads
    holds a column (a list) of values.  The columns are the ladder's first 16
    fields; n3 and the trap fields are None throughout or nowhere, but a
    column of N2 is None where omega_eff = 0, so it goes through text_column."""
    t = c.require("T")
    get = c.values.get
    n2, n3 = get("n2"), get("n3")
    if n2 is None and n3 is None:
        raise ConfigError("missing required key: one of 'n2', 'n3'")
    ladder = condensation_ladder(t, _effective_mass(c), n2, n3, get("omega_eff"), get("U0"),
                                 get("r0"), get("n_s"))
    columns = [*ladder[:11], text_column(ladder.n_trapped), *ladder[12:16]]
    return [f"note: {n}" for n in ladder_notes(ladder)], THRESHOLDS_HEADER, columns


# the commands that print one table per config, in the order sweep lists
# them; a masses or curve sweep builds one per value
TABLES = ("masses", "thresholds", "hopfield", "dispersion")


def _table_builder(command: str):
    """The function that builds the table of a command of TABLES: cli's own
    for thresholds, else from the command's module, imported now."""
    if command == "thresholds":
        return _thresholds_table
    if command == "masses":
        from .masses import masses_table
        return masses_table
    from .curves import curve_table
    return curve_table


# the commands whose table is a curve: numpy columns, printed through numtext
CURVES = ("dispersion", "hopfield")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_table(cfg: RunConfig, args) -> int:
    """masses and thresholds: a one-row table, written as CSV, or as JSON
    with one key per value."""
    meta, header, columns = _table_builder(args.command)(cfg, args.command, args)
    meta = _meta_head(cfg) + meta
    if args.format == "json":
        emit(render_json({"metadata": meta, **dict(zip(header, columns))}), args.out)
    else:
        emit(render_csv(meta, header), args.out, table_rows(columns))
    return EXIT_OK


def _sweep_table(cfg: RunConfig, spec: SweepSpec, args):
    """(header, blocks) of a sweep: the swept values, then the target's columns."""
    values = sweep_values(spec)
    key, target = spec.param, args.target
    if target == "thresholds":
        # one table, by the one-shot run's builder, from a copy of the config
        # whose swept key holds its cgs column, so one ladder call
        try:
            _, header, table = _thresholds_table(
                cfg.with_value(key, config_cgs(spec, values)), target, args)
            return header, table_rows([values, *table])
        except (ValueError, ArithmeticError):  # ConfigError is a ValueError
            pass  # the loop below stops at the first failing value's own error
    # one copy of the config; each value swaps in one float and gives one
    # table.  A value is converted when its turn comes, so the sweep stops at
    # the error of its first failing value.
    c = cfg.with_value(key, None)
    build = _table_builder(target)
    tables = []
    for value in values:
        c.values[key], = config_cgs(spec, [value])
        try:
            _, header, table = build(c, target, args)
        except ValueError as exc:  # a curve's grid that failed to allocate
            if tables and isinstance(exc.__cause__, MemoryError):
                raise exc.__cause__  # past the tables held: the sweep's memory
            raise
        tables.append(table)
    if target in CURVES:  # each column joined once, in polbec.curves
        from .curves import sweep_blocks
        return header, sweep_blocks(values, tables)
    # one row per value; T_KT is None throughout without a density
    return header, table_rows([values, *map(text_column, map(list, zip(*tables)))])


def cmd_sweep(cfg: RunConfig, args) -> int:
    spec = SweepSpec(args.param, args.sweep_from, args.sweep_to, args.steps, args.scale)
    # the config with the swept key written in must pass what parsing checks
    check_keys({*cfg.values, spec.param})
    too_large = f"--steps {spec.steps}: the sweep does not fit in memory"
    if spec.steps > sys.maxsize // 8:  # more values than a list can hold
        raise ValueError(too_large)
    try:  # the values and every table are built before --out is opened
        header, blocks = _sweep_table(cfg, spec, args)
    except MemoryError:
        raise ValueError(too_large) from None

    key, target = spec.param, args.target
    unit = spec.unit
    sweep_col = f"sweep_{key}_{unit}" if unit else f"sweep_{key}"
    meta = _meta_head(cfg) + [
        f"sweep: {key} from {fmt(spec.start)} to {fmt(spec.stop)} "
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
    Every parser, and every subparser, is built from this class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# each subcommand and its help line, in the order --help lists them
COMMANDS = {
    "check-coupling": "strong-coupling regime test",
    "dispersion": "sample both polariton branches over k_par",
    "hopfield": "photon/matter composition along the grid",
    "masses": "photon and branch curvature masses",
    "thresholds": "condensation threshold ladder",
    "trap": "design a lens profile for a target T_c",
    "sweep": "sweep one config key through a target command",
}


def _add_options(p: argparse.ArgumentParser, command: str) -> None:
    """The options of a subcommand: those every command takes, a curve's
    (and a sweep's) grid options, then the command's own."""
    p.add_argument("--config", required=True, help="path to key = value config file")
    p.add_argument("--out", default="-", help="output path, or - for stdout")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--units", choices=("cgs", "si"), default=None)
    if command in CURVES or command == "sweep":
        p.add_argument("--samples", type=int, default=101, help="grid points in k_par")
        p.add_argument("--kmax", type=float, default=0.2, help="k_par window edge over k_perp")
        p.add_argument("--workers", type=int, default=1, help="accepted; evaluation is serial")
    if command == "check-coupling":
        p.add_argument("--threshold", type=float, default=10.0,
                       help="ratio above which the regime counts as strong")
    elif command == "trap":
        p.add_argument("--target-tc", type=float, default=None, help="target T_c in K")
        p.add_argument("--n-particles", type=float, default=None, help="particle number N")
    elif command == "sweep":
        p.add_argument("--param", required=True, help="config key to sweep")
        p.add_argument("--from", dest="sweep_from", type=float, required=True,
                       help="start value in the key's canonical unit")
        p.add_argument("--to", dest="sweep_to", type=float, required=True,
                       help="stop value in the key's canonical unit")
        p.add_argument("--steps", type=int, required=True)
        p.add_argument("--scale", choices=("linear", "log"), default="linear")
        p.add_argument("--command", dest="target", choices=TABLES, required=True)


@cache
def build_parser(command: str | None = None) -> _Parser:
    """The CLI's whole parser, or for a command of COMMANDS that subcommand's
    parser alone, as the whole parser gives it; each built on its first call
    and shared by every later one.

    parse_args gives each call a fresh Namespace and main changes only that,
    never a parser, so one parser serves every call in a process.
    """
    if command is not None:
        parser = _Parser(prog=f"polbec {command}")
        _add_options(parser, command)
        return parser
    parser = _Parser(prog="polbec", description=DESCRIPTION)
    parser.add_argument("--version", action="version", version=f"polbec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in COMMANDS.items():
        _add_options(sub.add_parser(name, help=help_text), name)
    return parser


def _handler(command: str):
    """The function that runs a command: cli's own for thresholds, masses and
    sweep, else from the command's module, imported now, so that no command
    compiles the code of another."""
    if command == "check-coupling":
        from .regime import cmd_check_coupling
        return cmd_check_coupling
    if command == "trap":
        from .lens import cmd_trap
        return cmd_trap
    if command in CURVES:
        from .curves import cmd_curve
        return cmd_curve
    return cmd_sweep if command == "sweep" else cmd_table


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """A warning raised while a command runs, as the one line stderr shows:
    the library's warnings point at the caller's source, not the user's."""
    return f"polbec: warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    if command:  # its own parser; a leftover argument goes to the whole one
        args, rest = build_parser(command).parse_known_args(argv[1:])
        args.command = command
    if not command or rest:  # which prints help, the version or a usage error
        args = build_parser().parse_args(argv)
    format_warning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        cfg = RunConfig.load(args.config)
        if args.format is None:
            args.format = cfg.get("format", "csv")
        if args.units is None:
            args.units = cfg.get("units", "cgs")
        return _handler(args.command)(cfg, args)
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
    finally:  # a library caller's own format again
        warnings.formatwarning = format_warning


if __name__ == "__main__":
    # the command modules import polbec.cli: they get this module, not a
    # second copy of it compiled anew
    sys.modules[__spec__.name] = sys.modules[__name__]
    sys.exit(main())
