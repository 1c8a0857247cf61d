"""Seeded inputs of the benchmark workloads.

A workload is a pool of inputs.  One round runs one op (one
``polbec.cli.main`` call) per input, and a run attempts whole rounds, so the
share of ops on each kind of input is the same in every run whatever the
seed and the run length.  The seed only draws the physical parameters
inside fixed ranges; which ranges, and why, is in README.md.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import oracles

E0_EV = 2.104          # sodium-like transition, as in example.cfg
MODE_INDEX = 33940     # ~1 cm resonator
D_BEAM_CM = 2e-4
KMAX = 0.2             # the CLI's default window edge over k_perp

DENSE_SAMPLES = 50001
SWEEP_T_FROM, SWEEP_T_TO, SWEEP_STEPS = 2.0, 2000.0, 5000
WELL_SAMPLES = 101     # the CLI default

# well-scan pool: configs with a well, configs with the analytic inflection
# beyond the window edge (exit 2 is correct), and a fixed set on which the
# fixed finite-difference step of dispersion.well_geometry gives a well
# root off by more than WELL_REL (exit 0 with wrong digits).
WELL_COUNT, NO_WELL_COUNT = 32, 12
KNOWN_FAULT_POINTS = ((1e-7, -5.0), (1e-7, 10.0), (1e-8, 0.0), (1e-9, 0.0))  # (g/E0, Delta/g)
# Seeded wells start at g/E0 = 2e-6: below it the same fault's error crosses
# WELL_REL or not depending on Delta/g (1.13e-3 at g/E0 = 1e-6, Delta/g = -1.17),
# which would make the failed count depend on the seed.
WELL_G_RANGE = (2e-6, 2e-3)
WELL_DG_RANGE = (-20.0, 20.0)
NO_WELL_G_RANGE = (1e-3, 2e-3)
NO_WELL_DG_RANGE = (10.0, 20.0)
# Keep the analytic inflection 2% away from the window edge, where the
# program's scan cannot see a root in its last finite-difference step.
EDGE_MARGIN = 0.02


@dataclass
class Input:
    """One input of a pool: a config file plus the CLI arguments of its op."""

    name: str
    values: dict
    args: list[str]                 # subcommand and its options, without --config/--out
    check: dict                     # what the oracle needs to know about the op
    known_fault: bool = False
    text: str = field(init=False)

    def __post_init__(self) -> None:
        self.text = config_text(self.values)


@dataclass
class Workload:
    name: str
    inputs: list[Input]
    setup: Input                    # the smallest op of the workload's subcommand
    tail_pct: float                 # percentile reported as op_tail_s
    min_ops: int                    # at least 10 ops lie beyond tail_pct


_UNITS = {"E0": "eV", "g": "eV", "Delta": "eV", "d_beam": "cm", "n3": "cm^-3",
          "n2": "cm^-2", "T": "K", "omega_eff": "s^-1"}


def config_text(values: dict) -> str:
    """Config file text; repr keeps every float exactly as the oracle sees it."""
    lines = []
    for key, value in values.items():
        unit = _UNITS.get(key)
        lines.append(f"{key} = {value!r}" + (f" {unit}" if unit else ""))
    return "\n".join(lines) + "\n"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def curve_values(g_over_e0: float, delta_over_g: float) -> dict:
    g = g_over_e0 * E0_EV
    return {"E0": E0_EV, "g": g, "Delta": delta_over_g * g,
            "mode_index": MODE_INDEX, "d_beam": D_BEAM_CM}


def dispersion_input(name: str, values: dict, samples: int, fmt: str,
                      known_fault: bool = False) -> Input:
    args = ["dispersion", "--samples", str(samples)]
    if fmt == "json":
        args += ["--format", "json"]
    return Input(name, values, args, {"kind": "dispersion", "rows": samples, "format": fmt,
                                      "kmax": KMAX}, known_fault)


def dense_curve(rng: random.Random) -> Workload:
    """One large CSV curve with its well well inside the window.

    One input, not several: alternating outputs of slightly different sizes
    moves glibc's dynamic mmap threshold by turns, and the peak RSS with it
    by 4 MB depending on which output is the larger.
    """
    values = curve_values(_log_uniform(rng, 2e-5, 2e-4), rng.uniform(-5.0, 5.0))
    curve = dispersion_input("curve", values, DENSE_SAMPLES, "csv")
    setup = dispersion_input("setup", values, 2, "csv")
    return Workload("dense-curve", [curve], setup, tail_pct=75.0, min_ops=40)


def sweep_input(name: str, values: dict, steps: int) -> Input:
    args = ["sweep", "--param", "T", "--from", repr(SWEEP_T_FROM), "--to", repr(SWEEP_T_TO),
            "--steps", str(steps), "--scale", "log", "--command", "thresholds"]
    return Input(name, values, args, {"kind": "sweep", "rows": steps, "t_from": SWEEP_T_FROM,
                                      "t_to": SWEEP_T_TO})


def threshold_sweep(rng: random.Random) -> Workload:
    """One log temperature sweep through T_KT, T_c, T_d and the mu ~ 0 regime.

    m_eff is left out of the config, so every sweep value derives the
    lower-branch mass from the coupling keys.  With these ranges T_d lies in
    110..980 K, so 2..2000 K crosses every threshold and reaches T_d/T > 30
    without T_d/T passing 500, where exp(-T_d/T) would leave normal floats.
    """
    g = _log_uniform(rng, 0.5e-3, 2e-3)
    values = {
        "E0": E0_EV, "n3": 3.5e11, "mode_index": MODE_INDEX, "g": g,
        "Delta": rng.uniform(-1.0, 1.0) * g, "T": 300.0,
        "n2": _log_uniform(rng, 3e7, 1e8), "omega_eff": _log_uniform(rng, 2e10, 1e11),
    }
    sweep = sweep_input("sweep", values, SWEEP_STEPS)
    return Workload("threshold-sweep", [sweep], sweep_input("setup", values, 2),
                    tail_pct=75.0, min_ops=40)


def _draw_curve(rng: random.Random, g_range, dg_range, want_well: bool) -> dict:
    while True:
        ge, dg = _log_uniform(rng, *g_range), rng.uniform(*dg_range)
        values = curve_values(ge, dg)
        x = oracles.well_inflection(values["E0"], values["g"], values["Delta"])
        if want_well and x < KMAX * (1 - EDGE_MARGIN):
            return values
        if not want_well and x > KMAX * (1 + EDGE_MARGIN):
            return values


def well_scan(rng: random.Random) -> Workload:
    """Many small JSON curves over a pool that spans the well geometry."""
    inputs = [dispersion_input(f"well{i}", _draw_curve(rng, WELL_G_RANGE, WELL_DG_RANGE, True),
                                WELL_SAMPLES, "json") for i in range(WELL_COUNT)]
    inputs += [dispersion_input(f"nowell{i}",
                                 _draw_curve(rng, NO_WELL_G_RANGE, NO_WELL_DG_RANGE, False),
                                 WELL_SAMPLES, "json") for i in range(NO_WELL_COUNT)]
    inputs += [dispersion_input(f"fault{i}", curve_values(ge, dg), WELL_SAMPLES, "json", True)
               for i, (ge, dg) in enumerate(KNOWN_FAULT_POINTS)]
    setup = dispersion_input("setup", inputs[0].values, 2, "json")
    rng.shuffle(inputs)
    # p90, not p99: the slowest 1% are full garbage collections, which fall on
    # the same ops in every run, plus host stalls, which do not; p99 spread by
    # 14% between runs, p90 by 7%.
    return Workload("well-scan", inputs, setup, tail_pct=90.0, min_ops=100)


WORKLOADS = {"dense-curve": dense_curve, "threshold-sweep": threshold_sweep,
             "well-scan": well_scan}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


def check(inp: Input, text: str, rc: int, rng: random.Random) -> list[str]:
    """Run the oracle that fits the op on its output text and exit code."""
    spec = inp.check
    if spec["kind"] == "dispersion":
        return oracles.check_dispersion(dict(inp.values, text=inp.text), text, rc,
                                        spec["format"], spec["rows"], spec["kmax"], rng)
    return oracles.check_threshold_sweep(dict(inp.values, text=inp.text), text, rc,
                                         spec["t_from"], spec["t_to"], spec["rows"])
