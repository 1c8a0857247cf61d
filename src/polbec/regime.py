"""The check-coupling command and the strong-coupling cores it runs.

The cgs float cores of the strong-coupling test: the cooperative frequency
omega_c, the medium's value checks and strong_coupling_cgs, in Gaussian
units (see the coupling module's docstring).  polbec.coupling wraps them in
its dimension-checked Quantity operations, so the command and the library
raise the same errors; cmd_check_coupling is the check-coupling command.

polbec.cli imports this module when check-coupling runs, and
polbec.coupling when it loads; no other command compiles it.  It imports
only the standard library and polbec.core, so polbec.coupling loads neither
argparse nor polbec.cli: cmd_check_coupling imports cli's helpers when it
runs.
"""

from __future__ import annotations

import enum
import math

from .core import DEBYE_ESU_CM, EV_ERG, HBAR_CGS, _require_positive, range_error

__all__ = ["DEFAULT_STRONG_THRESHOLD", "CouplingRegime", "cmd_check_coupling",
           "strong_coupling_cgs"]

# "much greater" margin for the strong-coupling inequality; not quantified
# by the model, so it is a configuration knob.
DEFAULT_STRONG_THRESHOLD = 10.0


class CouplingRegime(enum.Enum):
    STRONG = "strong"
    WEAK = "weak"


def _check_medium(e0: float, d: float, n3: float, tau: float) -> None:
    """Value checks of MediumParams on cgs magnitudes."""
    _require_positive(e0, "transition_energy")
    _require_positive(d, "dipole_moment")
    _require_positive(n3, "density")
    _require_positive(tau, "coherence_time")


def _cooperative_frequency_cgs(e0: float, d: float, n3: float) -> float:
    """omega_c = sqrt(2 pi d^2 omega0 n3 / hbar) in s^-1, omega0 = E0 / hbar,
    for the checked magnitudes of a medium."""
    omega0 = e0 / HBAR_CGS
    omega_c = math.sqrt(2.0 * math.pi * d * d * omega0 * n3 / HBAR_CGS)
    if not 0.0 < omega_c < math.inf:
        raise range_error("omega_c = sqrt(2 pi d^2 omega0 n3 / hbar)", d=f"{d / DEBYE_ESU_CM:g} D",
                          n3=f"{n3:g} cm^-3", E0=f"{e0 / EV_ERG:g} eV")
    return omega_c


def strong_coupling_cgs(
    e0: float, d: float, n3: float, tau: float, threshold: float = DEFAULT_STRONG_THRESHOLD
) -> tuple[float, float, float, CouplingRegime]:
    """(omega_c, decoherence rate 1/(2 tau_coh), ratio, regime) in cgs, with
    the checks of MediumParams; strong iff ratio = omega_c * 2 tau_coh > threshold,
    which must be positive and finite."""
    _check_medium(e0, d, n3, tau)
    if not 0.0 < threshold < math.inf:
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    omega_c = _cooperative_frequency_cgs(e0, d, n3)
    rate = 0.5 / tau
    if rate == math.inf:
        raise range_error("decoherence rate 1/(2 tau_coh)", tau_coh=f"{tau:g} s")
    ratio = omega_c * 2.0 * tau
    if not 0.0 < ratio < math.inf:
        raise range_error("ratio = omega_c * 2 tau_coh", d=f"{d / DEBYE_ESU_CM:g} D",
                          n3=f"{n3:g} cm^-3", E0=f"{e0 / EV_ERG:g} eV", tau_coh=f"{tau:g} s")
    regime = CouplingRegime.STRONG if ratio > threshold else CouplingRegime.WEAK
    return omega_c, rate, ratio, regime


def cmd_check_coupling(cfg, args) -> int:
    """The check-coupling command: omega_c against the decoherence rate; exit
    2 in the weak regime."""
    from . import cli
    omega_c, rate, ratio, regime = strong_coupling_cgs(
        *map(cfg.require, ("E0", "d", "n3", "tau_coh")), args.threshold)
    numbers = {"omega_c_s1": omega_c, "decoherence_rate_s1": rate, "ratio": ratio,
               "threshold": args.threshold}
    if args.format == "json":
        text = cli.render_json({**numbers, "regime": regime.value})
    else:
        lines = [f"# {m}" for m in cli._meta_head(cfg)]
        lines += [f"{key} = {cli.fmt(value)}" for key, value in numbers.items()]
        text = "\n".join(lines + [f"regime = {regime.value}"]) + "\n"
    cli.emit(text, args.out)
    return cli.EXIT_OK if regime is CouplingRegime.STRONG else cli.EXIT_REGIME
