"""The masses command's table: the photon and branch curvature masses, with
the KT temperature of each branch.

polbec.cli imports this module when masses or a masses sweep runs; no
other command compiles it.
"""

from __future__ import annotations

import math

from . import cli
from .core import CGS_UNITS, EV_ERG, KB_CGS, effective_masses_cgs, kt_temperature_K, range_error

__all__ = ["masses_table"]


def masses_table(c, command: str, args):
    """(meta, header, columns) of the one-row masses table of a config; each
    column is one value."""
    g, k_perp, delta, _ = cli._coupling_cgs(c)
    m_ph, m_upper, m_lower, upper_saturated, lower_saturated = effective_masses_cgs(
        delta, g, k_perp)
    n_s = c.get("n_s", c.get("n2"))
    t_kt = [None, None] if n_s is None else [kt_temperature_K(n_s, m) for m in (m_upper, m_lower)]
    t_eff = g / KB_CGS  # above g / EV_ERG, so g_eV is finite with it
    if t_eff == math.inf:
        raise range_error("T_eff = g / kB", g=f"{g:g} erg")
    meta = [f"informational: kB*T_eff ~ g gives T_eff_K = {cli.fmt(t_eff)}"]
    if upper_saturated or lower_saturated:
        meta.append("mass saturated at denominator 1e-12 (|Delta| >> g)")
    unit = "g" if args.units == "cgs" else "kg"
    grams_per_unit = CGS_UNITS[unit][0]
    header = ["Delta_eV", "g_eV", f"m_ph_{unit}", f"m_upper_{unit}", f"m_lower_{unit}",
              "T_KT_upper_K", "T_KT_lower_K"]
    return meta, header, [delta / EV_ERG, g / EV_ERG, m_ph / grams_per_unit,
                          m_upper / grams_per_unit, m_lower / grams_per_unit, *t_kt]
