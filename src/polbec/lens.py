"""The trap command and the lens-design cores it runs.

The cgs float cores of the trap design: design_trap_cgs, and the lens for
a trap frequency with its value checks, on plain floats in cgs (the energy
scale E_char is explained in the trap module's docstring).  polbec.trap
wraps them in its dimension-checked Quantity operations, so the command
and the library raise the same errors; cmd_trap is the trap command.

polbec.cli imports this module when trap runs, and polbec.trap when it
loads; no other command compiles it.  It imports only the standard
library and polbec.core, so polbec.trap loads neither argparse nor
polbec.cli: cmd_trap imports cli's helpers when it runs.
"""

from __future__ import annotations

import math
import sys

from .core import EV_ERG, HBAR_CGS, KB_CGS, TRAP_BEC_ZETA, range_error

__all__ = ["ENERGY_SCALE_NOTE", "cmd_trap", "design_trap_cgs"]

ENERGY_SCALE_NOTE = (
    "optical potential normalization: n' = m_eff * omega_eff^2 / E_char, "
    "E_char defaulting to the transition energy of the trapped photon"
)

# keep the harmonic approximation honest: half the index-zero-crossing radius
_DEFAULT_R_MAX_FRAC = 0.5


def _check_lens(n0: float, n_prime: float, r_max: float) -> None:
    """Value checks of LensProfile on cgs magnitudes."""
    if not n0 > 0:
        raise ValueError(f"n0 must be positive, got {n0}")
    if not n_prime >= 0:  # and False for NaN
        raise ValueError(f"n_prime must be non-negative, got {n_prime}")
    if math.isnan(r_max):
        raise ValueError(f"r_max must be a number, got {r_max}")
    if r_max <= 0:  # the flat lens has r_max = inf
        raise ValueError(f"r_max must be positive, got {r_max}")
    if n_prime > 0 and r_max * math.sqrt(n_prime) >= 1.0:
        raise ValueError(
            "r_max reaches the index zero crossing: need r_max < 1/sqrt(n')"
        )


def _check_mass_and_scale(m: float, e_char: float) -> None:
    if not m > 0:
        raise ValueError("m_eff must be positive")
    if not e_char > 0:
        raise ValueError("energy_scale must be positive")


def _lens_cgs(omega: float, m: float, e_char: float, r_max_frac: float) -> tuple[float, float]:
    """(n', r_max) in cgs: n' = m_eff Omega^2 / E_char, r_max = r_max_frac / sqrt(n')."""
    if not omega >= 0:  # and False for NaN
        raise ValueError("omega_eff must be non-negative")
    _check_mass_and_scale(m, e_char)
    if not r_max_frac > 0:  # and False for NaN
        raise ValueError(f"r_max_frac must be positive, got {r_max_frac}")
    n_prime = m * omega * omega / e_char
    # omega = 0 gives the flat lens, but NaN (inf * 0) with an infinite m_eff
    if not (0.0 < n_prime < math.inf or n_prime == 0.0 == omega):
        raise range_error("n' = m_eff Omega_eff^2 / E_char", omega_eff=f"{omega:g} s^-1",
                          m_eff=f"{m:g} g", energy_scale=f"{e_char:g} erg")
    r_max = math.inf if n_prime == 0.0 else r_max_frac / math.sqrt(n_prime)
    return n_prime, r_max


def design_trap_cgs(
    t_c: float, n_particles: float, m: float, e_char: float, n0: float = 1.0,
    beam_diameter: float | None = None,
) -> tuple[float, float, float, bool | None]:
    """(Omega_eff, n', r_max, beam_fits_profile) in cgs for trap.design_trap,
    with the checks of LensProfile."""
    if not t_c > 0:
        raise ValueError(f"target_tc must be positive, got {t_c}")
    if not n_particles > 0:
        raise ValueError(f"n_particles must be positive, got {n_particles}")
    omega = KB_CGS * t_c * math.sqrt(TRAP_BEC_ZETA / n_particles) / HBAR_CGS
    if not 0.0 < omega < math.inf:
        raise range_error("Omega_eff = kB T_c sqrt(1.645 / N) / hbar", target_tc=f"{t_c:g} K",
                          n_particles=f"{n_particles:g}")
    n_prime, r_max = _lens_cgs(omega, m, e_char, _DEFAULT_R_MAX_FRAC)
    _check_lens(n0, n_prime, r_max)
    fits = None if beam_diameter is None else 2.0 * r_max >= beam_diameter
    return omega, n_prime, r_max, fits


def cmd_trap(cfg, args) -> int:
    """The trap command: the lens for --target-tc and --n-particles (or the
    key 'N'), as one JSON object."""
    from . import cli
    from .config import ConfigError
    n_particles = cfg.get("N") if args.n_particles is None else args.n_particles
    if args.target_tc is None or n_particles is None:
        raise ConfigError("trap requires --target-tc and --n-particles (or the key 'N')")
    if not (args.target_tc > 0 and n_particles > 0):  # and True for NaN
        raise ConfigError("--target-tc and --n-particles (or the key 'N') must be positive")
    m_eff = cli._effective_mass(cfg)
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
    omega_at = cfg.get("omega_at")
    if omega_at is not None and not omega_at >= 0:  # and False for NaN
        raise ConfigError(f"key 'omega_at' must be non-negative, got {omega_at:g} s^-1")
    n0 = cfg.get("n0", 1.0)
    omega, n_prime, r_max, fits = design_trap_cgs(
        args.target_tc, n_particles, m_eff, e_char, n0, cfg.get("d_beam"))
    if fits is False:
        sys.stderr.write(
            "warning: beam diameter exceeds the harmonic region of the lens profile\n"
        )
    text = cli.render_json({
        "omega_eff_s1": omega,
        "omega_at_s1": omega_at,
        "n_prime_cm2": n_prime,
        "n0": n0,
        "r_max_cm": r_max,
        "E_char_eV": e_char_ev,
        "assumption_note": ENERGY_SCALE_NOTE,
    })
    cli.emit(text, args.out)
    return cli.EXIT_OK
