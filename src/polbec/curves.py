"""The curve commands: dispersion and hopfield tables, the well lines and
the JSON text of a curve.

polbec.cli imports this module when dispersion, hopfield or a sweep of one
of them runs; no other command compiles it.  A curve is sampled by the
branch cores (polbec.branches, which import numpy) and printed as CSV by
the numtext kernel, each imported when it is first used, or as JSON, its
rows laid out here.  cli's helpers are looked up on the module when they
are called, as cli.emit, so that a wrapper installed on cli
(bench/tracing.py installs them) sees the curve commands' calls too.
"""

from __future__ import annotations

import math
from itertools import starmap

from . import cli
from .core import EV_ERG, effective_masses_cgs, transverse_energy_erg

__all__ = ["cmd_curve", "curve_json", "curve_table", "json_rows", "sweep_blocks"]

DISPERSION_HEADER = [
    "k_par_over_k_perp", "E1_eV", "E2_eV", "mu_sq", "nu_sq",
    "E_ph_paraxial_eV", "E_ph_freespace_eV",
]

HOPFIELD_HEADER = ["k_par_over_k_perp", "delta_eV", "delta_over_g", "mu_sq", "nu_sq"]

# json's indent=2 separators inside "rows": between rows and between cells
JSON_ROW_SEP = "\n    ],\n    [\n      "
JSON_CELL_SEP = ",\n      "


def json_rows(columns: list) -> str:
    """The rows of a table of float columns as json writes them in "rows".

    Each cell is the number cli.NUMBER prints, spelled as json spells that
    float.  format(x, ".12") gives NUMBER's 12 digits in float.__repr__'s
    spelling except for a printed exponent of 11 to 15 (repr writes those
    digits in full) and for subnormals (repr is shorter); a block with an
    "e+1" or "e-3" in it is written again, each cell as
    float.__repr__(float(cli.NUMBER % x)).
    """
    row = JSON_CELL_SEP.join(["{:.12}"] * len(columns)).format
    rows = JSON_ROW_SEP.join(starmap(row, zip(*columns)))
    if "e+1" in rows or "e-3" in rows:
        rows = JSON_ROW_SEP.join(
            JSON_CELL_SEP.join([float.__repr__(float(cli.NUMBER % x)) for x in cells])
            for cells in zip(*columns)
        )
    if "n" in rows:  # no finite number has an 'n'
        rows = rows.replace("nan", "NaN").replace("inf", "Infinity")
    return rows


def curve_json(meta: list[str], header: list[str], columns: list) -> str:
    """The JSON text of a curve: cli.render_json of its metadata, header and
    rows, the rows spliced in from json_rows (json would write them through
    its pure-Python encoder, which it uses to indent)."""
    text = cli.render_json({"metadata": meta, "columns": header, "rows": []})
    if columns and columns[0]:
        rows = json_rows(columns)
        text = text.replace('\n  "rows": []', f'\n  "rows": [\n    [\n      {rows}\n    ]\n  ]', 1)
    return text


def curve_table(c, command: str, args):
    """(meta, header, columns) of the dispersion or hopfield table of a config;
    the columns are numpy arrays."""
    from .branches import GridSizeError, photon_freespace_erg, sample_dispersion_cgs
    g, k_perp, delta, _ = cli._coupling_cgs(c)
    e_at = c.require("E0")
    try:
        k, e1, e2, mu2, nu2, e_ph = sample_dispersion_cgs(
            e_at, g, k_perp, args.samples, args.kmax)
    except GridSizeError as exc:
        raise GridSizeError(args.samples, "--samples") from exc.__cause__
    meta = [f"Delta_eV = {cli.fmt(delta / EV_ERG)}", f"g_eV = {cli.fmt(g / EV_ERG)}"]
    if command == "hopfield":
        mismatch = e_at - e_ph
        # mismatch falls along the grid, so its ends bound mismatch / g
        if max(-mismatch[-1], mismatch[0]).item() / g == math.inf:
            raise OverflowError(f"(E0 - E_ph) / g leaves the float range on the grid for "
                                f"--kmax {args.kmax:g}, 'g' = {g / EV_ERG:g} eV")
        columns = [k / k_perp, mismatch / EV_ERG, mismatch / g, mu2, nu2]
        meta.append("mu_sq is the photon fraction of the upper branch")
        return meta, HOPFIELD_HEADER, columns
    e_free = photon_freespace_erg(k, k_perp)  # from k before k is divided
    # the printed columns divided in place: no new grid-wide array per column
    k /= k_perp
    for col in (e1, e2, e_ph, e_free):
        col /= EV_ERG
    columns = [k, e1, e2, mu2, nu2, e_ph, e_free]
    meta += [
        f"k_perp_cm^-1 = {cli.fmt(k_perp)}",
        f"grid: {args.samples} samples, k_par in [0, {cli.fmt(args.kmax)}] * k_perp",
        "E_ph_freespace = hbar*c*sqrt(k_perp^2 + k_par^2)",
    ]
    return meta, DISPERSION_HEADER, columns


def _well_meta(c, kmax: float) -> tuple[list[str], int]:
    """The metadata lines on the lower-branch well, and the exit code."""
    from .branches import NoWellError, well_geometry_cgs
    fmt = cli.fmt
    g, k_perp, delta, length = cli._coupling_cgs(c)
    m_lower = effective_masses_cgs(delta, g, k_perp)[2]
    meta = ["well energy scale uses the lower-branch curvature mass (2*m_ph at Delta = 0)"]
    try:
        inflection, depth, halfwidth, phi, resolvable = well_geometry_cgs(
            c.values["E0"], g, k_perp, delta, kmax, length, c.get("d_beam"))
    except NoWellError as exc:
        return meta + [f"well: none ({exc})"], cli.EXIT_REGIME
    curvature = transverse_energy_erg(inflection, m_lower)
    meta.append(f"well: inflection_k/k_perp = {fmt(halfwidth)}, "
                f"depth_eV = {fmt(depth / EV_ERG)}, "
                f"curvature_energy_over_g = {fmt(curvature / g)}")
    if phi is not None:
        meta.append(f"well: diffraction limit phi_rad = {fmt(phi)}, "
                    f"beam resolvable = {cli.BOOL_BYTES[resolvable].decode()}")
    return meta, cli.EXIT_OK


def cmd_curve(cfg, args) -> int:
    """dispersion and hopfield; dispersion also reports the well.  The CSV
    rows stream from the numtext kernel; in JSON the curve is "columns" and
    "rows" (its columns as lists)."""
    meta, header, columns = curve_table(cfg, args.command, args)
    exit_code = cli.EXIT_OK
    if args.command == "dispersion":
        well, exit_code = _well_meta(cfg, args.kmax)
        meta += well
    meta = cli._meta_head(cfg) + meta
    from .branches import GridSizeError
    try:  # JSON rows held whole before --out is opened, or a CSV block as it is written
        if args.format == "json":
            cli.emit(curve_json(meta, header, [col.tolist() for col in columns]), args.out)
        else:
            from .numtext import csv_blocks
            cli.emit(cli.render_csv(meta, header), args.out, csv_blocks(columns))
    except MemoryError as exc:
        raise GridSizeError(args.samples, "--samples") from exc
    return exit_code


def sweep_blocks(values: list, tables: list):
    """The CSV blocks of a curve sweep: each swept value repeated over its
    table's rows, then each column of the tables joined over the values."""
    import numpy as np
    from .numtext import csv_blocks
    return csv_blocks([np.repeat(values, len(tables[0][0])),
                       *map(np.concatenate, zip(*tables))])
