"""Per-layer self time and call counts, from wrappers around the names the CLI calls.

The wrappers are installed on module and class attributes of an imported
polbec and removed again afterwards; no file of the program changes.  A
layer's self time is the time inside its wrappers minus the time spent in
wrapped calls below them.  Totals are kept in memory and read per op.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer); attributes missing from a module are skipped.
_FUNCTIONS = [
    ("polbec.cli", "render_csv", "cli.render"),
    ("polbec.cli", "render_json", "cli.render"),
    ("polbec.cli", "emit", "cli.write"),
    ("polbec.cli", "sample_dispersion", "dispersion.sample"),
    ("polbec.cli", "well_geometry", "dispersion.well"),
    ("polbec.cli", "condensation_report", "thermo.report"),
    ("polbec.cli", "transverse_energy", "thermo.report"),
    ("polbec.cli", "kt_temperature", "thermo.report"),
    ("polbec.cli", "effective_masses", "thermo.masses"),
    ("polbec.cli", "resonant_coupling", "coupling.build"),
    ("polbec.cli", "coupling_from_geometry", "coupling.build"),
    ("polbec.cli", "sweep_values", "config.sweep"),
    ("polbec.cli", "config_value", "config.sweep"),
    ("polbec.units", "convert", "units.check"),
] + [
    (mod, "magnitude_in_cgs", "units.check")
    for mod in ("polbec.units", "polbec.coupling", "polbec.dispersion", "polbec.thermo",
                "polbec.trap")
] + [
    (mod, "qty", "units.check") for mod in ("polbec.units", "polbec.config", "polbec.cli")
]

# (module, class, method, layer, kind)
_METHODS = [
    ("polbec.config", "RunConfig", "load", "config.load", "classmethod"),
    ("polbec.config", "RunConfig", "with_value", "config.sweep", "method"),
    ("polbec.units", "Quantity", "in_unit", "units.check", "method"),
]


def _grid_points(args, kwargs) -> int:
    return (args[2] if len(args) > 2 else kwargs["grid"]).n_samples


# counters: wrapped attribute -> (counter name, amount from the call's arguments)
_COUNTERS = {
    "emit": ("cli.out_bytes", lambda args, kwargs: len(args[0])),  # ASCII text: chars = bytes
    "sample_dispersion": ("dispersion.points", _grid_points),
}

LAYERS = ("cli.main", "cli.render", "cli.write", "dispersion.sample", "dispersion.well",
          "thermo.report", "thermo.masses", "coupling.build", "config.load", "config.sweep",
          "units.check")


class Tracer:
    """Span bookkeeping shared by every wrapper it installs."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def wrap(self, layer: str, fn, counter=None):
        stack, self_s, calls, counts = self._stack, self.self_s, self.calls, self.counts

        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[layer] += dt - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += dt

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod_name, attr, layer in _FUNCTIONS:
            mod = importlib.import_module(mod_name)
            if hasattr(mod, attr):
                self._patch(mod, attr, self.wrap(layer, getattr(mod, attr), _COUNTERS.get(attr)))
        for mod_name, cls_name, attr, layer, kind in _METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            orig = cls.__dict__[attr]
            if kind == "classmethod":
                self._patch(cls, attr, classmethod(self.wrap(layer, orig.__func__)), orig)
            else:
                self._patch(cls, attr, self.wrap(layer, orig), orig)

    def _patch(self, owner, attr: str, new, orig=None) -> None:
        self._saved.append((owner, attr, getattr(owner, attr) if orig is None else orig))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def snapshot(self) -> dict[str, float]:
        """Self time and calls of every layer plus the counters, since reset()."""
        out = {f"{layer}_s": self.self_s.get(layer, 0.0) for layer in LAYERS}
        out.update({f"{layer}_calls": float(self.calls.get(layer, 0)) for layer in LAYERS})
        out.update(self.counts)
        return out
