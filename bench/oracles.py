"""Independent reference checks for polbec CLI outputs.

Every expected value here comes from the closed forms of the physics and
from the CODATA constants in ``scipy.constants``, evaluated with ``mpmath``
where cancellation or amplification matters.  Nothing in this file imports
polbec, so a fault in ``polbec.units`` or in a numeric core cannot hide in
both the program and its check.  No output of the program is stored: the
checks hold for any correct output, including the better ``well:`` digits
an analytic well solver will print.

Each checker returns a list of messages; an empty list means the output
passed.
"""

from __future__ import annotations

import hashlib
import json
import re

import mpmath as mp
import numpy as np
from scipy import constants as sc

# A value printed with 12 significant digits is off by up to 5e-12 relative
# (half a unit in the 12th digit of 1.00000000000); computing it costs a few
# ulp more.
REL = 6e-12
# Relative accuracy asked of the well inflection, as in tests/test_dispersion.py.
WELL_REL = 1e-3
# The paper's printed zeta(2) in the trapped-gas T_c = T_d / 1.645.
TRAP_ZETA = "1.645"

DISPERSION_COLUMNS = [
    "k_par_over_k_perp", "E1_eV", "E2_eV", "mu_sq", "nu_sq",
    "E_ph_paraxial_eV", "E_ph_freespace_eV",
]
THRESHOLD_COLUMNS = [
    "T_K", "m_eff_g", "n3_cm3", "n2_cm2", "lambda_T_cm", "r_int_cm",
    "T_d_K", "T_KT_K", "mu_meV", "omega_eff_s1", "T_c_K", "N2", "N0_frac",
    "degenerate", "kt_superfluid", "overlap",
]

HBARC_EV_CM = sc.hbar * sc.c / sc.e * 1e2
_WELL_LINE = re.compile(
    r"well: inflection_k/k_perp = (\S+), depth_eV = (\S+), "
    r"curvature_energy_over_g = (\S+)$"
)
_DIFFRACTION_LINE = re.compile(
    r"well: diffraction limit phi_rad = (\S+), beam resolvable = (true|false)$"
)
_GRID_LINE = re.compile(r"grid: (\d+) samples, k_par in \[0, (\S+)\] \* k_perp$")


def _mpc(x: float) -> mp.mpf:
    """A CODATA constant as the decimal it is published as."""
    return mp.mpf(repr(x))


def config_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _close(got: float, want, rel: float, what: str, errors: list) -> None:
    want = float(want)
    if not abs(got - want) <= rel * abs(want):
        errors.append(f"{what}: got {got!r}, expected {want!r} (rel tol {rel:.1e})")


def _meta_value(meta: list[str], prefix: str, errors: list) -> float | None:
    for line in meta:
        if line.startswith(prefix):
            return float(line[len(prefix):])
    errors.append(f"metadata line {prefix!r} missing")
    return None


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def split_csv(text: str) -> tuple[list[str], list[str], list[str]]:
    """Metadata lines (without '# '), header fields and data lines."""
    if not text.endswith("\n"):
        raise ValueError("output does not end with a newline")
    lines = text[:-1].split("\n")
    n_meta = 0
    while n_meta < len(lines) and lines[n_meta].startswith("# "):
        n_meta += 1
    meta = [line[2:] for line in lines[:n_meta]]
    return meta, lines[n_meta].split(","), lines[n_meta + 1:]


def parse_curve(text: str, fmt: str) -> tuple[list[str], list[str], np.ndarray]:
    if fmt == "json":
        payload = json.loads(text)
        rows = np.array(payload["rows"], dtype=np.float64).reshape(-1, len(payload["columns"]))
        return payload["metadata"], payload["columns"], rows
    meta, header, body = split_csv(text)
    flat = ",".join(body).split(",") if body else []
    rows = np.array(flat, dtype=np.float64).reshape(len(body), len(header))
    return meta, header, rows


# ---------------------------------------------------------------------------
# polariton branches and the lower-branch well
# ---------------------------------------------------------------------------

def well_root_over_g(delta_over_g: float) -> mp.mpf:
    """u*/g, the root of s^2 (s + delta) = 8 u g^2.

    u = hbar c k_par^2 / (2 k_perp) is the photon kinetic energy,
    delta = Delta - u and s = sqrt(delta^2 + 4 g^2); E_lower'' = 0 exactly
    there.  In units of g the left side minus the right falls strictly
    with u, so the bracketed root is unique.
    """
    r = mp.mpf(delta_over_g)

    def f(v):
        w = r - v
        s2 = w * w + 4
        return s2 * (mp.sqrt(s2) + w) - 8 * v

    lo, hi = mp.mpf(0), mp.mpf(1)
    while f(hi) > 0:
        lo, hi = hi, 2 * hi
    return mp.findroot(f, (lo, hi), solver="illinois")


def well_inflection(e0: float, g: float, delta: float) -> float:
    """Analytic inflection k*/k_perp for energies in eV (Delta = E0 - E_mode)."""
    with mp.workdps(30):
        v = well_root_over_g(delta / g)
        return float(mp.sqrt(2 * v * mp.mpf(g) / (mp.mpf(e0) - mp.mpf(delta))))


def _lower_branch(e0, e_ph, g):
    return (e0 + e_ph - mp.sqrt((e0 - e_ph) ** 2 + 4 * g * g)) / 2


def check_dispersion(cfg: dict, text: str, rc: int, fmt: str, samples: int,
                     kmax: float, rng) -> list[str]:
    """A `dispersion` output against the 2x2 mode problem and the analytic well.

    cfg holds the config values: E0, g, Delta in eV, mode_index, d_beam in cm
    (optional) and the config text.  rng picks the rows solved with mpmath.
    """
    errors: list[str] = []
    try:
        meta, header, rows = parse_curve(text, fmt)
    except (ValueError, KeyError) as exc:
        return [f"unparseable {fmt} output: {exc}"]
    e0, g, delta = cfg["E0"], cfg["g"], cfg["Delta"]
    e_mode = e0 - delta
    k_perp = e_mode / HBARC_EV_CM

    if len(meta) < 2 or not meta[0].startswith("polbec "):
        errors.append("first metadata line is not the program version")
    if config_digest(cfg["text"]) not in (meta[1] if len(meta) > 1 else ""):
        errors.append("config sha256 line does not match the config text")
    for prefix, want in (("Delta_eV = ", delta), ("g_eV = ", g), ("k_perp_cm^-1 = ", k_perp)):
        got = _meta_value(meta, prefix, errors)
        if got is not None:
            _close(got, want, REL, prefix.strip(" ="), errors)
    grid = [m for m in (_GRID_LINE.match(line) for line in meta) if m]
    if not grid or int(grid[0].group(1)) != samples or float(grid[0].group(2)) != kmax:
        errors.append("grid metadata line does not state the grid asked for")
    if header != DISPERSION_COLUMNS:
        errors.append(f"columns {header} differ from {DISPERSION_COLUMNS}")
        return errors
    if rows.shape[0] != samples:
        errors.append(f"{rows.shape[0]} rows for a grid of {samples}")
        return errors

    x, e1, e2, mu2, nu2, e_par, e_free = rows.T
    x_grid = np.arange(samples) * (kmax / (samples - 1))
    checks = {
        "uniform k_par grid": np.abs(x - x_grid) <= REL * x_grid,
        "E1 >= E2": e1 >= e2,
        "mu_sq + nu_sq = 1": np.abs(mu2 + nu2 - 1.0) <= 3e-12,
        "0 <= mu_sq <= 1": (mu2 >= 0.0) & (mu2 <= 1.0),
    }
    e_par_want = HBARC_EV_CM * (k_perp + (x_grid * k_perp) ** 2 / (2.0 * k_perp))
    e_free_want = HBARC_EV_CM * k_perp * np.sqrt(1.0 + x_grid * x_grid)
    checks["paraxial photon = hbar c (k_perp + k^2/2k_perp)"] = (
        np.abs(e_par - e_par_want) <= REL * e_par_want)
    checks["free-space photon = hbar c |k|"] = np.abs(e_free - e_free_want) <= REL * e_free_want
    trace = e0 + e_par_want
    checks["trace E1 + E2 = E0 + E_ph"] = np.abs(e1 + e2 - trace) <= 2 * REL * trace
    det = e0 * e_par_want
    checks["determinant E1 E2 = E0 E_ph - g^2"] = np.abs(e1 * e2 - (det - g * g)) <= 4 * REL * det
    for name, ok in checks.items():
        bad = np.flatnonzero(~ok)
        if bad.size:
            errors.append(f"{name} fails on {bad.size} rows, first row {int(bad[0])}")

    # Rounding of the inputs moves delta = E0 - E_ph by a few ulp of E0, which
    # moves the Hopfield fractions by up to |d delta| / 4g.
    frac_tol = 2e-12 + 2e-15 * e0 / g
    picks = sorted({0, samples - 1, *rng.sample(range(samples), min(samples, 16))})
    with mp.workdps(30):
        m_e0, m_g, m_mode = mp.mpf(e0), mp.mpf(g), mp.mpf(e0) - mp.mpf(delta)
        m_kmax = mp.mpf(kmax)
        for i in picks:
            xi = m_kmax * i / (samples - 1)
            e_ph = m_mode * (1 + xi * xi / 2)
            vals, vecs = mp.eigsy(mp.matrix([[e_ph, m_g], [m_g, m_e0]]))
            up = 0 if vals[0] > vals[1] else 1
            _close(e1[i], vals[up], REL, f"row {i} E1 (mpmath eigenvalue)", errors)
            _close(e2[i], vals[1 - up], REL, f"row {i} E2 (mpmath eigenvalue)", errors)
            for got, want, name in ((mu2[i], vecs[0, up] ** 2, "mu_sq"),
                                    (nu2[i], vecs[1, up] ** 2, "nu_sq")):
                if not abs(got - float(want)) <= frac_tol:
                    errors.append(f"row {i} {name}: got {got!r}, mpmath eigenvector "
                                  f"gives {float(want)!r} (abs tol {frac_tol:.1e})")

    errors += _check_well(cfg, meta, rc, kmax, k_perp)
    return errors


def _check_well(cfg: dict, meta: list[str], rc: int, kmax: float, k_perp: float) -> list[str]:
    errors: list[str] = []
    e0, g, delta = cfg["E0"], cfg["g"], cfg["Delta"]
    x_star = well_inflection(e0, g, delta)
    has_well = x_star < kmax
    if rc != (0 if has_well else 2):
        errors.append(f"exit code {rc}, but the analytic inflection k*/k_perp = {x_star:.6g} "
                      f"lies {'inside' if has_well else 'beyond'} the window edge {kmax:g}")
    well = [m for m in (_WELL_LINE.match(line) for line in meta) if m]
    none = [line for line in meta if line.startswith("well: none (")]
    if not has_well:
        if not none or well:
            errors.append("no analytic well in the window, but no 'well: none' line")
        return errors
    if not well:
        errors.append(f"analytic well at k*/k_perp = {x_star:.6g}, but no well line")
        return errors
    x_got, depth_got, curv_got = (float(v) for v in well[0].groups())
    _close(x_got, x_star, WELL_REL, "well inflection_k/k_perp (analytic root)", errors)
    with mp.workdps(30):
        m_e0, m_g, m_mode = mp.mpf(e0), mp.mpf(g), mp.mpf(e0) - mp.mpf(delta)
        edge = m_mode * (1 + mp.mpf(kmax) ** 2 / 2)
        depth = _lower_branch(m_e0, edge, m_g) - _lower_branch(m_e0, m_mode, m_g)
        ratio = mp.mpf(delta) / mp.sqrt(mp.mpf(delta) ** 2 + 4 * m_g * m_g)
        curv = m_mode * mp.mpf(x_got) ** 2 * (1 + ratio) / (4 * m_g)
    # depth is a difference of two ~E0 energies computed in floats
    _close(depth_got, depth, REL + 4e-15 * e0 / abs(float(depth)), "well depth_eV", errors)
    _close(curv_got, curv, 3 * REL, "well curvature_energy_over_g", errors)
    if "d_beam" in cfg:
        diff = [m for m in (_DIFFRACTION_LINE.match(line) for line in meta) if m]
        if not diff:
            errors.append("d_beam given, but no diffraction line")
        else:
            phi = cfg["d_beam"] * k_perp / (np.pi * cfg["mode_index"])
            phi_got = float(diff[0].group(1))
            _close(phi_got, phi, REL, "diffraction limit phi_rad", errors)
            if abs(x_got - phi) > 1e-11 * phi and (diff[0].group(2) == "true") != (x_got > phi):
                errors.append("beam resolvable flag contradicts inflection vs phi")
    return errors


# ---------------------------------------------------------------------------
# condensation thresholds along a temperature sweep
# ---------------------------------------------------------------------------

def check_threshold_sweep(cfg: dict, text: str, rc: int, t_from: float, t_to: float,
                          steps: int) -> list[str]:
    """A log `sweep --param T --command thresholds` output, column by column.

    cfg holds E0, g, Delta in eV, n2 in cm^-2, n3 in cm^-3, omega_eff in s^-1
    and the config text; m_eff is the lower-branch mass of that coupling.
    """
    errors: list[str] = []
    if rc != 0:
        errors.append(f"exit code {rc}")
    try:
        meta, header, body = split_csv(text)
    except (ValueError, IndexError) as exc:
        return [f"unparseable csv output: {exc}"]
    if len(meta) < 2 or config_digest(cfg["text"]) not in meta[1]:
        errors.append("config sha256 line does not match the config text")
    want_sweep = (f"sweep: T from {t_from:.12g} to {t_to:.12g} in {steps} steps (log), "
                  f"values in K")
    if want_sweep not in meta or "target: thresholds" not in meta:
        errors.append("sweep metadata lines do not state the sweep asked for")
    if header != ["sweep_T_K"] + THRESHOLD_COLUMNS:
        return errors + [f"columns {header} differ from the thresholds columns"]
    if len(body) != steps:
        return errors + [f"{len(body)} rows for a sweep of {steps} steps"]

    with mp.workdps(30):
        h, kb, c, ev = (_mpc(sc.h * 1e7), _mpc(sc.k * 1e7), _mpc(sc.c * 1e2), _mpc(sc.e * 1e7))
        e0, g, delta = mp.mpf(cfg["E0"]), mp.mpf(cfg["g"]), mp.mpf(cfg["Delta"])
        n2, n3, omega = mp.mpf(cfg["n2"]), mp.mpf(cfg["n3"]), mp.mpf(cfg["omega_eff"])
        m_ph = (e0 - delta) * ev / c**2
        m = 2 * m_ph / (1 + delta / mp.sqrt(delta**2 + 4 * g * g))
        t_d = h * h * n2 / (2 * mp.pi * m * kb)
        t_kt = t_d / 4
        t_c = t_d / mp.mpf(TRAP_ZETA)
        r_int = 1 / mp.sqrt(n2)
        la, lb = mp.log(t_from), mp.log(t_to)
        for i, line in enumerate(body):
            f = line.split(",")
            if len(f) != len(header):
                errors.append(f"row {i}: {len(f)} fields")
                continue
            t = mp.exp(la + (lb - la) * i / (steps - 1))
            x = t_d / t
            lam = h / mp.sqrt(2 * mp.pi * m * kb * t)
            want = {
                "sweep_T_K": t, "T_K": t, "m_eff_g": m, "n3_cm3": n3, "n2_cm2": n2,
                "lambda_T_cm": lam, "r_int_cm": r_int, "T_d_K": t_d, "T_KT_K": t_kt,
                "omega_eff_s1": omega, "T_c_K": t_c,
                "N2": 2 * mp.pi * n2 * kb * t / (m * omega**2),
            }
            row = dict(zip(header, f))
            try:
                for name, value in want.items():
                    _close(float(row[name]), value, REL, f"row {i} {name}", errors)
                # mu ~ -kB T exp(-T_d/T): an input rounding of x moves it by x times as much
                mu = kb * t * mp.log1p(-mp.exp(-x)) / (ev / 1000)
                _close(float(row["mu_meV"]), mu, REL + 1e-14 * float(x), f"row {i} mu_meV", errors)
                # N0/N = 1 - (T/T_c)^2 cancels near T_c: absolute tolerance
                frac = max(mp.mpf(0), 1 - (t / t_c) ** 2)
                if not abs(float(row["N0_frac"]) - float(frac)) <= REL:
                    errors.append(f"row {i} N0_frac: got {row['N0_frac']}, "
                                  f"expected {float(frac)!r}")
            except ValueError as exc:
                errors.append(f"row {i}: {exc}")
                continue
            for name, bound in (("degenerate", t_d), ("kt_superfluid", t_kt), ("overlap", t_d)):
                if abs(t / bound - 1) < 1e-12:
                    continue  # T on the threshold to rounding: either answer holds
                want_flag = "true" if t <= bound else "false"
                if row[name] != want_flag:
                    errors.append(f"row {i} {name}: got {row[name]}, expected {want_flag}")
            if len(errors) > 20:
                errors.append("more errors not listed")
                break
    return errors
