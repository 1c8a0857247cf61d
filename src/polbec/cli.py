"""Deterministic command-line front end.

Subcommands: check-coupling, dispersion, hopfield, masses, thresholds,
trap, sweep.  All file output is byte-stable across runs and locales:
numbers are printed with 12 significant digits, rows are assembled in
grid/sweep order, and the metadata header carries no timestamps.
Evaluation is serial; --workers is accepted and has no effect.

Only dispersion, hopfield and their sweeps sample a curve; they import the
numpy-backed dispersion module when they run, so the scalar commands start
without numpy.

Config values are dimension-checked once, when the config is parsed; the
masses and thresholds tables are then computed on cgs floats.  A masses
sweep swaps one float per value into that view of the config.  A thresholds
sweep calls the ladder once, with the swept values as one argument's column
(or the derived masses', for a key the mass reads), and its fields are the
table's columns.  Every table is printed column-wise through one
'%'-template, into which a column with one value throughout is printed
once.  A JSON table prints its rows straight from the float columns, each
number formatted once in json's spelling of the 12-digit value, and leaves
only its header to json.  The argument parser is built once per process and
shared by every later call of main.

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
    config_value,
    sweep_values,
)
from .coupling import (
    CavityParams,
    CouplingParams,
    CouplingRegime,
    MediumParams,
    check_cavity,
    geometry_coupling_cgs,
    is_strong_coupling,
    resonant_coupling_cgs,
)
from .thermo import (
    ThresholdLadder,
    condensation_ladder,
    effective_masses,
    effective_masses_cgs,
    kt_temperature_K,
    transverse_energy,
)
from .trap import design_trap
from .units import (
    DimensionError,
    ENERGY,
    EV_ERG,
    KB_CGS,
    LENGTH,
    MASS,
    MEV_ERG,
    UNITS,
    WAVENUMBER,
    Quantity,
    qty,
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


def fmt_bool(b: bool | None) -> str:
    return "" if b is None else ("true" if b else "false")


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


def render_csv(meta: list[str], header: list[str], lines: list[str]) -> str:
    out = [f"# {m}" for m in meta]
    out.append(",".join(header))
    out.extend(lines)
    return "\n".join(out) + "\n"


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
# config -> cgs floats -> domain objects
# ---------------------------------------------------------------------------

def _cgs_value(value: object) -> object:
    return value.cgs if isinstance(value, Quantity) else value


def _cgs(cfg: RunConfig) -> RunConfig:
    """The config with every Quantity replaced by its cgs magnitude.

    _parse_entry and config_value fix the dimension of every value they
    store, so this is where dimension checking ends: the float cores below
    take the magnitudes as they are.
    """
    return RunConfig(
        values={key: _cgs_value(v) for key, v in cfg.values.items()},
        source_text=cfg.source_text,
    )


def _build_medium(cfg: RunConfig) -> MediumParams:
    return MediumParams(
        transition_energy=cfg.require("E0"),
        dipole_moment=cfg.require("d"),
        density=cfg.require("n3"),
        coherence_time=cfg.require("tau_coh"),
    )


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


def _build_coupling(cfg: RunConfig) -> tuple[CouplingParams, CavityParams | None]:
    c = _cgs(cfg)
    g, k_perp, delta, length = _coupling_cgs(c)
    coupling = CouplingParams(
        g=Quantity(g, ENERGY),
        k_perp=Quantity(k_perp, WAVENUMBER),
        delta=Quantity(delta, ENERGY),
    )
    cavity = None
    if "d_beam" in c.values:
        cavity = CavityParams(
            length=Quantity(length, LENGTH),
            mode_index=c.values["mode_index"],
            beam_diameter=cfg.values["d_beam"],
        )
    return coupling, cavity


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

def _dispersion_columns(cfg: RunConfig, samples: int, kmax: float):
    from .dispersion import GridSpec, sample_dispersion

    coupling, cavity = _build_coupling(cfg)
    e_at = cfg.require("E0")
    curve = sample_dispersion(coupling, e_at, GridSpec(n_samples=samples, k_max_frac=kmax))
    k_perp = coupling.k_perp.cgs
    columns = [
        (curve.k_par / k_perp).tolist(),
        (curve.e_upper / EV_ERG).tolist(),
        (curve.e_lower / EV_ERG).tolist(),
        curve.mu_sq.tolist(),
        curve.nu_sq.tolist(),
        (curve.e_ph_paraxial / EV_ERG).tolist(),
        (curve.e_ph_freespace / EV_ERG).tolist(),
    ]
    meta = [
        f"Delta_eV = {fmt(coupling.delta.in_unit('eV'))}",
        f"g_eV = {fmt(coupling.g.in_unit('eV'))}",
        f"k_perp_cm^-1 = {fmt(k_perp)}",
        f"grid: {samples} samples, k_par in [0, {fmt(kmax)}] * k_perp",
        "E_ph_freespace = hbar*c*sqrt(k_perp^2 + k_par^2)",
    ]
    return coupling, cavity, e_at, meta, columns


def _hopfield_columns(cfg: RunConfig, samples: int, kmax: float):
    from .dispersion import GridSpec, sample_dispersion

    coupling, _ = _build_coupling(cfg)
    e_at = cfg.require("E0")
    curve = sample_dispersion(coupling, e_at, GridSpec(n_samples=samples, k_max_frac=kmax))
    delta = e_at.cgs - curve.e_ph_paraxial
    columns = [
        (curve.k_par / coupling.k_perp.cgs).tolist(),
        (delta / EV_ERG).tolist(),
        (delta / coupling.g.cgs).tolist(),
        curve.mu_sq.tolist(),
        curve.nu_sq.tolist(),
    ]
    meta = [
        f"Delta_eV = {fmt(coupling.delta.in_unit('eV'))}",
        f"g_eV = {fmt(coupling.g.in_unit('eV'))}",
        "mu_sq is the photon fraction of the upper branch",
    ]
    return meta, columns


def _masses_header(units: str) -> list[str]:
    suffix = "g" if units == "cgs" else "kg"
    return [
        "Delta_eV", "g_eV", f"m_ph_{suffix}", f"m_upper_{suffix}", f"m_lower_{suffix}",
        "T_KT_upper_K", "T_KT_lower_K",
    ]


def _masses_values(c: RunConfig, units: str):
    """The masses row, with g (erg) and whether a mass saturated, which
    cmd_masses reports in its metadata."""
    g, k_perp, delta, _ = _coupling_cgs(c)
    m_ph, m_upper, m_lower, upper_saturated, lower_saturated = effective_masses_cgs(
        delta, g, k_perp
    )
    grams_per_unit = UNITS["g" if units == "cgs" else "kg"][0]
    n_s = c.get("n_s", c.get("n2"))
    t_kt_up = t_kt_lo = None
    if n_s is not None:
        t_kt_up = kt_temperature_K(n_s, m_upper)
        t_kt_lo = kt_temperature_K(n_s, m_lower)
    values = [
        delta / EV_ERG,
        g / EV_ERG,
        m_ph / grams_per_unit,
        m_upper / grams_per_unit,
        m_lower / grams_per_unit,
        t_kt_up,
        t_kt_lo,
    ]
    return values, g, upper_saturated or lower_saturated


# the config keys behind condensation_ladder's positional arguments
LADDER_KEYS = ("T", "m_eff", "n2", "n3", "omega_eff", "U0", "r0", "n_s")

# without m_eff in the config, _effective_mass derives it from these keys
MASS_KEYS = ("E0", "g", "Delta", "L_cav", "mode_index", "d_beam")


def _ladder_args(c: RunConfig) -> list:
    """condensation_ladder's arguments, in LADDER_KEYS order, from a cgs view."""
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
    c = _cgs(cfg)
    key = spec.param
    try:
        column = [config_cgs(spec, value) for value in values]
        c.values[key] = column[0]
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
        c = _cgs(cfg)
        for value in values:
            c.values[key] = config_cgs(spec, value)
            condensation_ladder(*_ladder_args(c))
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

def cmd_check_coupling(cfg: RunConfig, args) -> int:
    medium = _build_medium(cfg)
    check = is_strong_coupling(medium, threshold=args.threshold)
    regime = check.regime.value
    if args.format == "json":
        text = render_json({
            "omega_c_s1": check.omega_c.cgs,
            "decoherence_rate_s1": check.decoherence_rate.cgs,
            "ratio": check.ratio,
            "threshold": check.threshold,
            "regime": regime,
        })
    else:
        lines = [f"# {m}" for m in _meta_head(cfg)]
        lines += [
            f"omega_c_s1 = {fmt(check.omega_c.cgs)}",
            f"decoherence_rate_s1 = {fmt(check.decoherence_rate.cgs)}",
            f"ratio = {fmt(check.ratio)}",
            f"threshold = {fmt(check.threshold)}",
            f"regime = {regime}",
        ]
        text = "\n".join(lines) + "\n"
    emit(text, args.out)
    return EXIT_OK if check.regime is CouplingRegime.STRONG else EXIT_REGIME


def cmd_dispersion(cfg: RunConfig, args) -> int:
    from .dispersion import NoWellError, well_geometry

    coupling, cavity, e_at, meta, columns = _dispersion_columns(cfg, args.samples, args.kmax)
    exit_code = EXIT_OK
    masses = effective_masses(coupling)
    meta.append("well energy scale uses the lower-branch curvature mass (2*m_ph at Delta = 0)")
    try:
        well = well_geometry(coupling, e_at, cavity, paraxial_bound=args.kmax)
        curvature = transverse_energy(well.inflection_k, masses.m_lower)
        meta.append(
            f"well: inflection_k/k_perp = {fmt(well.angular_halfwidth)}, "
            f"depth_eV = {fmt(well.depth.in_unit('eV'))}, "
            f"curvature_energy_over_g = {fmt(curvature.cgs / coupling.g.cgs)}"
        )
        if well.diffraction_limit is not None:
            meta.append(
                f"well: diffraction limit phi_rad = {fmt(well.diffraction_limit)}, "
                f"beam resolvable = {fmt_bool(well.diffraction_ok)}"
            )
    except NoWellError as exc:
        meta.append(f"well: none ({exc})")
        exit_code = EXIT_REGIME

    if args.format == "json":
        text = render_json({
            "metadata": _meta_head(cfg) + meta,
            "columns": DISPERSION_HEADER,
            "rows": columns,
        })
    else:
        text = render_csv(_meta_head(cfg) + meta, DISPERSION_HEADER, csv_lines(columns))
    emit(text, args.out)
    return exit_code


def cmd_hopfield(cfg: RunConfig, args) -> int:
    meta, columns = _hopfield_columns(cfg, args.samples, args.kmax)
    if args.format == "json":
        text = render_json({
            "metadata": _meta_head(cfg) + meta,
            "columns": HOPFIELD_HEADER,
            "rows": columns,
        })
    else:
        text = render_csv(_meta_head(cfg) + meta, HOPFIELD_HEADER, csv_lines(columns))
    emit(text, args.out)
    return EXIT_OK


def cmd_masses(cfg: RunConfig, args) -> int:
    values, g, saturated = _masses_values(_cgs(cfg), args.units)
    meta = [f"informational: kB*T_eff ~ g gives T_eff_K = {fmt(g / KB_CGS)}"]
    if saturated:
        meta.append("mass saturated at denominator 1e-12 (|Delta| >> g)")
    header = _masses_header(args.units)
    if args.format == "json":
        payload = {"metadata": _meta_head(cfg) + meta}
        payload.update(dict(zip(header, values)))
        text = render_json(payload)
    else:
        text = render_csv(_meta_head(cfg) + meta, header, csv_lines([[v] for v in values]))
    emit(text, args.out)
    return EXIT_OK


def cmd_thresholds(cfg: RunConfig, args) -> int:
    ladder = condensation_ladder(*_ladder_args(_cgs(cfg)))
    meta = _meta_head(cfg) + [f"note: {n}" for n in ladder.notes]
    columns = _thresholds_columns(ladder, 1)
    if args.format == "json":
        payload = {"metadata": meta}
        payload.update(zip(THRESHOLDS_HEADER, (col[0] for col in columns)))
        text = render_json(payload)
    else:
        text = render_csv(meta, THRESHOLDS_HEADER, csv_lines(columns))
    emit(text, args.out)
    return EXIT_OK


def cmd_trap(cfg: RunConfig, args) -> int:
    if args.target_tc is None or args.n_particles is None:
        raise ConfigError("trap requires --target-tc and --n-particles")
    if args.target_tc <= 0 or args.n_particles <= 0:
        raise ConfigError("--target-tc and --n-particles must be positive")
    m_eff = Quantity(_effective_mass(_cgs(cfg)), MASS)
    e_char = cfg.get("E_char", cfg.get("E0"))
    if e_char is None:
        raise ConfigError("missing required key 'E_char' (or 'E0' as its default)")
    design = design_trap(
        target_tc=qty(args.target_tc, "K"),
        n_particles=args.n_particles,
        m_eff=m_eff,
        energy_scale=e_char,
        omega_at=cfg.get("omega_at"),
        n0=cfg.get("n0", 1.0),
        beam_diameter=cfg.get("d_beam"),
    )
    if design.beam_fits_profile is False:
        sys.stderr.write(
            "warning: beam diameter exceeds the harmonic region of the lens profile\n"
        )
    text = render_json({
        "omega_eff_s1": design.omega_eff.cgs,
        "omega_at_s1": None if design.omega_at is None else design.omega_at.cgs,
        "n_prime_cm2": design.lens.n_prime.cgs,
        "n0": design.lens.n0,
        "r_max_cm": design.lens.r_max.cgs,
        "E_char_eV": design.energy_scale.in_unit("eV"),
        "assumption_note": design.assumption_note,
    })
    emit(text, args.out)
    return EXIT_OK


SWEEP_TARGETS = ("masses", "thresholds", "hopfield", "dispersion")


def cmd_sweep(cfg: RunConfig, args) -> int:
    spec = SweepSpec(
        param=args.param,
        start=args.sweep_from,
        stop=args.sweep_to,
        steps=args.steps,
        scale=args.scale,
    )
    # the config with the swept key written in must pass what parsing checks
    check_keys({*cfg.values, spec.param})
    values = sweep_values(spec)
    target = args.target

    if target == "thresholds":
        columns = [values, *_thresholds_columns(_sweep_ladder(cfg, spec, values), len(values))]
    elif target == "masses":
        # one cgs view of the config; each value swaps in one float
        c = _cgs(cfg)
        rows = []
        for value in values:
            c.values[spec.param] = config_cgs(spec, value)
            rows.append([value, *_masses_values(c, args.units)[0]])
        # the T_KT columns are None in every row (no n_s or n2) or in none
        columns = list(zip(*rows))
    else:
        table_for = _hopfield_columns if target == "hopfield" else _dispersion_columns
        groups = []
        for value in values:
            sub_cfg = cfg.with_value(spec.param, config_value(spec, value))
            group = table_for(sub_cfg, args.samples, args.kmax)[-1]
            groups.append([[value] * len(group[0]), *group])
        columns = [[v for part in parts for v in part] for parts in zip(*groups)]

    unit = spec.unit
    sweep_col = f"sweep_{spec.param}_{unit}" if unit else f"sweep_{spec.param}"
    if target == "masses":
        header = [sweep_col] + _masses_header(args.units)
    elif target == "thresholds":
        header = [sweep_col] + THRESHOLDS_HEADER
    elif target == "hopfield":
        header = [sweep_col] + HOPFIELD_HEADER
    else:
        header = [sweep_col] + DISPERSION_HEADER
    meta = _meta_head(cfg) + [
        f"sweep: {spec.param} from {fmt(spec.start)} to {fmt(spec.stop)} "
        f"in {spec.steps} steps ({spec.scale})"
        + (f", values in {unit}" if unit else ""),
        f"target: {target}",
    ]
    emit(render_csv(meta, header, csv_lines(columns)), args.out)
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


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="path to key = value config file")
    sub.add_argument("--out", default="-", help="output path, or - for stdout")
    sub.add_argument("--format", choices=("csv", "json"), default=None)
    sub.add_argument("--units", choices=("cgs", "si"), default=None)


def _add_grid(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--samples", type=int, default=101, help="grid points in k_par")
    sub.add_argument("--kmax", type=float, default=0.2, help="k_par window edge over k_perp")
    sub.add_argument("--workers", type=int, default=1, help="accepted; evaluation is serial")


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

    p = sub.add_parser("check-coupling", help="strong-coupling regime test")
    _add_common(p)
    p.add_argument("--threshold", type=float, default=10.0,
                   help="ratio above which the regime counts as strong")

    p = sub.add_parser("dispersion", help="sample both polariton branches over k_par")
    _add_common(p)
    _add_grid(p)

    p = sub.add_parser("hopfield", help="photon/matter composition along the grid")
    _add_common(p)
    _add_grid(p)

    p = sub.add_parser("masses", help="photon and branch curvature masses")
    _add_common(p)

    p = sub.add_parser("thresholds", help="condensation threshold ladder")
    _add_common(p)

    p = sub.add_parser("trap", help="design a lens profile for a target T_c")
    _add_common(p)
    p.add_argument("--target-tc", type=float, default=None, help="target T_c in K")
    p.add_argument("--n-particles", type=float, default=None, help="particle number N")

    p = sub.add_parser("sweep", help="sweep one config key through a target command")
    _add_common(p)
    _add_grid(p)
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
    "dispersion": cmd_dispersion,
    "hopfield": cmd_hopfield,
    "masses": cmd_masses,
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
    except (ConfigError, DimensionError) as exc:
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
