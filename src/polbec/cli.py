"""Deterministic command-line front end.

Subcommands: check-coupling, dispersion, hopfield, masses, thresholds,
trap, sweep.  All file output is byte-stable across runs and locales:
numbers are printed with 12 significant digits, rows are assembled in
grid/sweep order, and the metadata header carries no timestamps.
Evaluation is serial; --workers is accepted and has no effect.

Exit codes: 0 success, 1 usage/config error, 2 physical-regime warning
(weak coupling, or no lower-branch well in the paraxial window).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .config import (
    ConfigError,
    RunConfig,
    SweepSpec,
    config_value,
    sweep_values,
)
from .coupling import (
    CavityParams,
    CouplingParams,
    CouplingRegime,
    MediumParams,
    coupling_from_geometry,
    is_strong_coupling,
    resonant_coupling,
)
from .dispersion import (
    GridSpec,
    NoWellError,
    sample_dispersion,
    well_geometry,
)
from .thermo import (
    CondensationReport,
    GasState,
    TrapSpec,
    condensation_report,
    effective_masses,
    kt_temperature,
    transverse_energy,
)
from .trap import design_trap
from .units import DimensionError, EV_ERG, KB_CGS, LENGTH, MEV_ERG, Quantity, qty

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


def fmt(x: float) -> str:
    return f"{x:.12g}"


def fmt_opt(x: float | None) -> str:
    return "" if x is None else fmt(x)


def fmt_bool(b: bool | None) -> str:
    return "" if b is None else ("true" if b else "false")


def render_csv(meta: list[str], header: list[str], rows: list[list[str]]) -> str:
    lines = [f"# {m}" for m in meta]
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _meta_head(cfg: RunConfig) -> list[str]:
    return [f"polbec {__version__}", f"config sha256: {cfg.digest()}"]


# ---------------------------------------------------------------------------
# config -> domain objects
# ---------------------------------------------------------------------------

def _build_medium(cfg: RunConfig) -> MediumParams:
    return MediumParams(
        transition_energy=cfg.require("E0"),
        dipole_moment=cfg.require("d"),
        density=cfg.require("n3"),
        coherence_time=cfg.require("tau_coh"),
    )


def _build_coupling(cfg: RunConfig) -> tuple[CouplingParams, CavityParams | None]:
    """Coupling from E0, g, mode_index and either L_cav or an explicit Delta."""
    e0 = cfg.require("E0")
    g = cfg.require("g")
    mode_index = cfg.require("mode_index")
    if "L_cav" in cfg.values and "Delta" in cfg.values:
        raise ConfigError("give either 'L_cav' or 'Delta', not both")
    if "Delta" in cfg.values:
        coupling = resonant_coupling(e0, g, cfg.values["Delta"])
        length = Quantity(math.pi * mode_index / coupling.k_perp.cgs, LENGTH)
    else:
        _, length = cfg.require_any("L_cav", "Delta")
        coupling = coupling_from_geometry(e0, length, mode_index, g)
    d_beam = cfg.get("d_beam")
    cavity = None
    if d_beam is not None:
        cavity = CavityParams(length=length, mode_index=mode_index, beam_diameter=d_beam)
    return coupling, cavity


def _effective_mass_from(cfg: RunConfig) -> Quantity:
    """m_eff from the config, or the lower-branch mass derived from coupling keys."""
    if "m_eff" in cfg.values:
        return cfg.values["m_eff"]
    try:
        coupling, _ = _build_coupling(cfg)
    except ConfigError as exc:
        if "missing required key" not in str(exc):
            raise
        raise ConfigError(
            "missing required key 'm_eff' (or the coupling keys "
            "E0, g, mode_index and L_cav|Delta to derive it)"
        ) from None
    return effective_masses(coupling).m_lower


# ---------------------------------------------------------------------------
# row generators (shared between direct commands and sweep)
# ---------------------------------------------------------------------------

def _dispersion_rows(cfg: RunConfig, samples: int, kmax: float):
    coupling, cavity = _build_coupling(cfg)
    e_at = cfg.require("E0")
    curve = sample_dispersion(coupling, e_at, GridSpec(n_samples=samples, k_max_frac=kmax))
    k_perp = coupling.k_perp.cgs
    rows = [
        [
            fmt(k / k_perp),
            fmt(e1 / EV_ERG),
            fmt(e2 / EV_ERG),
            fmt(m2),
            fmt(n2),
            fmt(ep / EV_ERG),
            fmt(ef / EV_ERG),
        ]
        for k, e1, e2, m2, n2, ep, ef in zip(
            curve.k_par, curve.e_upper, curve.e_lower, curve.mu_sq,
            curve.nu_sq, curve.e_ph_paraxial, curve.e_ph_freespace,
        )
    ]
    meta = [
        f"Delta_eV = {fmt(coupling.delta.in_unit('eV'))}",
        f"g_eV = {fmt(coupling.g.in_unit('eV'))}",
        f"k_perp_cm^-1 = {fmt(k_perp)}",
        f"grid: {samples} samples, k_par in [0, {fmt(kmax)}] * k_perp",
        "E_ph_freespace = hbar*c*sqrt(k_perp^2 + k_par^2)",
    ]
    return coupling, cavity, e_at, meta, rows


def _hopfield_rows(cfg: RunConfig, samples: int, kmax: float):
    coupling, _ = _build_coupling(cfg)
    e_at = cfg.require("E0")
    curve = sample_dispersion(coupling, e_at, GridSpec(n_samples=samples, k_max_frac=kmax))
    g = coupling.g.cgs
    k_perp = coupling.k_perp.cgs
    rows = []
    for k, m2, n2, ep in zip(curve.k_par, curve.mu_sq, curve.nu_sq, curve.e_ph_paraxial):
        delta = e_at.cgs - ep
        rows.append([fmt(k / k_perp), fmt(delta / EV_ERG), fmt(delta / g), fmt(m2), fmt(n2)])
    meta = [
        f"Delta_eV = {fmt(coupling.delta.in_unit('eV'))}",
        f"g_eV = {fmt(coupling.g.in_unit('eV'))}",
        "mu_sq is the photon fraction of the upper branch",
    ]
    return meta, rows


def _masses_header(units: str) -> list[str]:
    suffix = "g" if units == "cgs" else "kg"
    return [
        "Delta_eV", "g_eV", f"m_ph_{suffix}", f"m_upper_{suffix}", f"m_lower_{suffix}",
        "T_KT_upper_K", "T_KT_lower_K",
    ]


def _masses_values(cfg: RunConfig, units: str):
    coupling, _ = _build_coupling(cfg)
    masses = effective_masses(coupling)
    mass_unit = "g" if units == "cgs" else "kg"
    n_s = cfg.get("n_s", cfg.get("n2"))
    t_kt_up = t_kt_lo = None
    if n_s is not None:
        t_kt_up = kt_temperature(n_s, masses.m_upper).cgs
        t_kt_lo = kt_temperature(n_s, masses.m_lower).cgs
    values = [
        coupling.delta.in_unit("eV"),
        coupling.g.in_unit("eV"),
        masses.m_ph.in_unit(mass_unit),
        masses.m_upper.in_unit(mass_unit),
        masses.m_lower.in_unit(mass_unit),
        t_kt_up,
        t_kt_lo,
    ]
    meta = [
        f"informational: kB*T_eff ~ g gives T_eff_K = {fmt(coupling.g.cgs / KB_CGS)}",
    ]
    if masses.upper_saturated or masses.lower_saturated:
        meta.append("mass saturated at denominator 1e-12 (|Delta| >> g)")
    return meta, values


def _thresholds_report(cfg: RunConfig) -> CondensationReport:
    t = cfg.require("T")
    n2 = cfg.get("n2")
    n3 = cfg.get("n3")
    if n2 is None and n3 is None:
        raise ConfigError("missing required key: one of 'n2', 'n3'")
    m_eff = _effective_mass_from(cfg)
    state = GasState(temperature=t, m_eff=m_eff, n2=n2, n3=n3)
    trap = None
    if "omega_eff" in cfg.values:
        trap = TrapSpec(
            omega_eff=cfg.values["omega_eff"],
            u0=cfg.get("U0"),
            r0=cfg.get("r0"),
        )
    return condensation_report(state, trap, n_s=cfg.get("n_s"))


def _thresholds_values(report: CondensationReport):
    return [
        report.temperature.in_unit("K"),
        report.m_eff.in_unit("g"),
        None if report.n3 is None else report.n3.in_unit("cm^-3"),
        report.n2.in_unit("cm^-2"),
        report.lambda_t.in_unit("cm"),
        report.r_int.in_unit("cm"),
        report.t_degeneracy.in_unit("K"),
        report.t_kt.in_unit("K"),
        report.mu.cgs / MEV_ERG,
        None if report.omega_eff is None else report.omega_eff.in_unit("s^-1"),
        None if report.t_c is None else report.t_c.in_unit("K"),
        report.n_trapped,
        report.condensate_frac,
        report.degenerate,
        report.kt_superfluid,
        report.overlap,
    ]


def _values_to_row(values: list) -> list[str]:
    row = []
    for v in values:
        if v is None:
            row.append("")
        elif isinstance(v, bool):
            row.append(fmt_bool(v))
        else:
            row.append(fmt(v))
    return row


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
    coupling, cavity, e_at, meta, rows = _dispersion_rows(cfg, args.samples, args.kmax)
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
            "rows": [[float(v) for v in row] for row in rows],
        })
    else:
        text = render_csv(_meta_head(cfg) + meta, DISPERSION_HEADER, rows)
    emit(text, args.out)
    return exit_code


def cmd_hopfield(cfg: RunConfig, args) -> int:
    meta, rows = _hopfield_rows(cfg, args.samples, args.kmax)
    if args.format == "json":
        text = render_json({
            "metadata": _meta_head(cfg) + meta,
            "columns": HOPFIELD_HEADER,
            "rows": [[float(v) for v in row] for row in rows],
        })
    else:
        text = render_csv(_meta_head(cfg) + meta, HOPFIELD_HEADER, rows)
    emit(text, args.out)
    return EXIT_OK


def cmd_masses(cfg: RunConfig, args) -> int:
    meta, values = _masses_values(cfg, args.units)
    header = _masses_header(args.units)
    if args.format == "json":
        payload = {"metadata": _meta_head(cfg) + meta}
        payload.update(dict(zip(header, values)))
        text = render_json(payload)
    else:
        text = render_csv(_meta_head(cfg) + meta, header, [_values_to_row(values)])
    emit(text, args.out)
    return EXIT_OK


def cmd_thresholds(cfg: RunConfig, args) -> int:
    report = _thresholds_report(cfg)
    meta = _meta_head(cfg) + [f"note: {n}" for n in report.notes]
    values = _thresholds_values(report)
    if args.format == "json":
        payload = {"metadata": meta}
        payload.update(dict(zip(THRESHOLDS_HEADER, values)))
        text = render_json(payload)
    else:
        text = render_csv(meta, THRESHOLDS_HEADER, [_values_to_row(values)])
    emit(text, args.out)
    return EXIT_OK


def cmd_trap(cfg: RunConfig, args) -> int:
    if args.target_tc is None or args.n_particles is None:
        raise ConfigError("trap requires --target-tc and --n-particles")
    if args.target_tc <= 0 or args.n_particles <= 0:
        raise ConfigError("--target-tc and --n-particles must be positive")
    m_eff = _effective_mass_from(cfg)
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
    values = sweep_values(spec)
    units = args.units

    def rows_for(value: float) -> list[list[str]]:
        sub_cfg = cfg.with_value(spec.param, config_value(spec, value))
        if args.target == "masses":
            _, vals = _masses_values(sub_cfg, units)
            rows = [_values_to_row(vals)]
        elif args.target == "thresholds":
            rows = [_values_to_row(_thresholds_values(_thresholds_report(sub_cfg)))]
        elif args.target == "hopfield":
            _, rows = _hopfield_rows(sub_cfg, args.samples, args.kmax)
        else:
            _, _, _, _, rows = _dispersion_rows(sub_cfg, args.samples, args.kmax)
        prefix = fmt(value)
        return [[prefix] + row for row in rows]

    groups = [rows_for(v) for v in values]

    unit = spec.unit
    sweep_col = f"sweep_{spec.param}_{unit}" if unit else f"sweep_{spec.param}"
    if args.target == "masses":
        header = [sweep_col] + _masses_header(units)
    elif args.target == "thresholds":
        header = [sweep_col] + THRESHOLDS_HEADER
    elif args.target == "hopfield":
        header = [sweep_col] + HOPFIELD_HEADER
    else:
        header = [sweep_col] + DISPERSION_HEADER
    meta = _meta_head(cfg) + [
        f"sweep: {spec.param} from {fmt(spec.start)} to {fmt(spec.stop)} "
        f"in {spec.steps} steps ({spec.scale})"
        + (f", values in {unit}" if unit else ""),
        f"target: {args.target}",
    ]
    rows = [row for group in groups for row in group]
    emit(render_csv(meta, header, rows), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this toolkit reserves 2 for
    physics warnings, so remap usage errors to exit code 1."""

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


def build_parser() -> _Parser:
    parser = _Parser(prog="polbec", description=__doc__)
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
    parser = build_parser()
    args = parser.parse_args(argv)
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
