"""Self-test of the benchmark's checks.

Usage, from the root of a polbec checkout:  python3 bench/selftest.py

Makes small real outputs with polbec.cli.main, requires each check to pass
them, then feeds each check a perturbed copy and requires it to fail:

* the well root off by 2e-3 relative,
* mu_sq + nu_sq = 1 + 1e-9 in one row,
* T_d off by 1e-9 relative in one row,
* one changed byte in a repeated op's output,

and requires the check to fail a known-fault input (g/E0 = 1e-9) as the
program stands.  Exits 0 when every case behaves, 1 otherwise.  Takes a few
seconds.
"""

from __future__ import annotations

import hashlib
import random
import re
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from polbec.cli import main as polbec_main  # noqa: E402


def produce(inp: workloads.Input, tmp: Path) -> tuple[str, int]:
    cfg, out = tmp / "in.cfg", tmp / "out"
    cfg.write_text(inp.text, encoding="utf-8")
    rc = polbec_main(inp.args + ["--config", str(cfg), "--out", str(out)])
    return out.read_text(encoding="utf-8"), rc


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def shift_well_root(text: str) -> str:
    def bump(m):
        return m.group(1) + _fmt(float(m.group(2)) * (1 + 2e-3))
    new = re.sub(r"(inflection_k/k_perp = )([^,]+)", bump, text, count=1)
    assert new != text
    return new


def shift_csv_field(text: str, row: int, column: str, change) -> str:
    lines = text.split("\n")
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    col = lines[header_at].split(",").index(column)
    fields = lines[header_at + 1 + row].split(",")
    fields[col] = _fmt(change(float(fields[col])))
    lines[header_at + 1 + row] = ",".join(fields)
    return "\n".join(lines)


def change_one_byte(text: str) -> str:
    i = text.rindex("\n", 0, len(text) - 1) + 3   # a digit in the last data row
    digit = "1" if text[i] != "1" else "2"
    return text[:i] + digit + text[i + 1:]


def repeat_check(inp: workloads.Input, first: str, repeat: str, rc: int, tmp: Path) -> list[str]:
    """run.verify on one warm-up op and one repeated op with the given bytes."""
    (tmp / "ops").mkdir(exist_ok=True)
    (tmp / "ops" / "first0").write_text(first, encoding="utf-8")
    wl = workloads.Workload("selftest", [inp], inp, 50.0, 1)
    records = [{"input": 0, "phase": phase, "rc": rc,
                "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
               for phase, text in (("warmup", first), ("untraced", repeat))]
    return run.verify(wl, tmp, records, 0)[1]


def main() -> int:
    rng = random.Random(0)
    well = workloads.dispersion_input(
        "well", workloads.curve_values(2e-4, 3.0), 101, "json")
    curve = workloads.dispersion_input(
        "curve", workloads.curve_values(5e-5, -2.0), 11, "csv")
    fault = workloads.dispersion_input(
        "fault", workloads.curve_values(*workloads.KNOWN_FAULT_POINTS[-1]), 101, "json", True)
    sweep = workloads.sweep_input("sweep", workloads.threshold_sweep(rng).inputs[0].values, 40)

    (BENCH_DIR / "out").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=BENCH_DIR / "out"))
    try:
        outs = {inp.name: (inp, *produce(inp, tmp)) for inp in (well, curve, fault, sweep)}

        def check(name: str, text: str | None = None) -> list[str]:
            inp, real, rc = outs[name]
            return workloads.check(inp, real if text is None else text, rc, random.Random(1))

        w_text, c_text, s_text = outs["well"][1], outs["curve"][1], outs["sweep"][1]
        cases = [
            ("well output passes", check("well"), False),
            ("curve output passes", check("curve"), False),
            ("sweep output passes", check("sweep"), False),
            ("repeated identical bytes pass",
             repeat_check(curve, c_text, c_text, outs["curve"][2], tmp), False),
            ("well root off by 2e-3 fails", check("well", shift_well_root(w_text)), True),
            ("mu_sq + nu_sq = 1 + 1e-9 fails",
             check("curve", shift_csv_field(c_text, 4, "mu_sq", lambda v: v + 1e-9)), True),
            ("T_d off by 1e-9 fails",
             check("sweep", shift_csv_field(s_text, 7, "T_d_K", lambda v: v * (1 + 1e-9))), True),
            ("one changed byte fails",
             repeat_check(curve, c_text, change_one_byte(c_text), outs["curve"][2], tmp), True),
            ("known-fault input (g/E0 = 1e-9) fails", check("fault"), True),
        ]
    finally:
        shutil.rmtree(tmp)

    ok = True
    for name, errors, want_fail in cases:
        good = bool(errors) == want_fail
        ok &= good
        detail = f": {errors[0]}" if errors else ""
        print(f"{'ok  ' if good else 'FAIL'} {name}{detail}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
