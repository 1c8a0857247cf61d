"""polbec CLI benchmark: one workload, one seed, one run.

Usage, from the root of a polbec checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the workload's inputs from the seed, times several fresh
interpreters from ``import polbec.cli`` to the end of one smallest op
(setup), then runs the ops in a fresh worker process and checks every op's
output against independent computations (oracles.py).  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Raw per-op records go to bench/out/.  See
README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from calibrate import scale  # noqa: E402

SETUP_RUNS = 24         # timed fresh interpreters per run; the median is setup_s
WORKER_TIMEOUT_S = 150

# After the timed op, each set-up interpreter times the calibration kernel
# itself (median of five passes): process start-up and numpy's shared objects
# follow that interpreter's own kernel more closely than the parent's.
SETUP_SCRIPT = f"""\
import sys, time
t0 = time.perf_counter()
import polbec.cli
rc = polbec.cli.main(sys.argv[1:])
elapsed = time.perf_counter() - t0
sys.path.insert(0, {str(BENCH_DIR)!r})
from calibrate import kernel_s
print(repr(elapsed), rc, repr(sorted(kernel_s() for _ in range(5))[2]))
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # polbec makes no BLAS call.  numpy's OpenBLAS starts one thread per core
    # at import, and on a host whose second core is lent to other tenants that
    # start waits for it: numpy's import then takes 0.10 or 0.17 s by turns.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _op_argv(inp: workloads.Input, cfg_path: Path, out_path: Path) -> list[str]:
    return inp.args + ["--config", str(cfg_path), "--out", str(out_path)]


def _percentile(values: list[float], pct: float) -> float:
    """Nearest rank: the smallest value with pct percent of values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def _import_times(stderr: str) -> tuple[float, float]:
    """Cumulative import seconds of numpy and of polbec.cli without numpy."""
    cumulative = {}
    for line in stderr.splitlines():
        fields = line[len("import time:"):].split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) * 1e-6
    numpy_s = cumulative.get("numpy", 0.0)
    return numpy_s, cumulative["polbec.cli"] - numpy_s


def measure_setup(wl: workloads.Workload, run_dir: Path, trace: bool, phase: str,
                  runs: int) -> dict:
    """Fresh interpreters, each timed from `import polbec.cli` to the end of one smallest op."""
    cfg = run_dir / "setup.cfg"
    cfg.write_text(wl.setup.text, encoding="utf-8")
    times, numpy_s, polbec_s, outputs, kernels = [], [], [], [], []
    for i in range(runs):
        out = run_dir / f"setup-{phase}{i}.out"
        cmd = [sys.executable, "-s"] + (["-X", "importtime"] if trace else [])
        cmd += ["-c", SETUP_SCRIPT] + _op_argv(wl.setup, cfg, out)
        proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"setup interpreter failed:\n{proc.stderr[-2000:]}")
        seconds, rc, kernel = proc.stdout.split()
        outputs.append([int(rc), out.read_text(encoding="utf-8")])
        kernels.append(float(kernel))
        factor = scale(float(kernel))
        times.append(float(seconds) * factor)
        if trace:
            n_s, p_s = _import_times(proc.stderr)
            numpy_s.append(n_s * factor)
            polbec_s.append(p_s * factor)
    return {"times": times, "numpy_s": numpy_s, "polbec_s": polbec_s, "kernels": kernels,
            "outputs": outputs}


def check_setup(wl: workloads.Workload, phases: list[dict]) -> list[str]:
    outputs = [o for phase in phases for o in phase.pop("outputs")]
    rc, text = outputs[0]
    errors = workloads.check(wl.setup, text, rc, random.Random(0))
    if any(o != outputs[0] for o in outputs):
        errors.append("setup outputs differ between fresh interpreters")
    return errors


def run_worker(wl: workloads.Workload, run_dir: Path, seconds: float, trace: bool) -> dict:
    ops = []
    for i, inp in enumerate(wl.inputs):
        cfg = run_dir / f"in{i}.cfg"
        cfg.write_text(inp.text, encoding="utf-8")
        ops.append({"argv": _op_argv(inp, cfg, run_dir / "ops" / f"out{i}"),
                    "out": str(run_dir / "ops" / f"out{i}"),
                    "first": str(run_dir / "ops" / f"first{i}")})
    (run_dir / "ops").mkdir()
    plan = {"ops": ops, "seconds": seconds, "trace": trace,
            "min_ops": wl.min_ops // 2 if trace else wl.min_ops}
    plan_path, result_path = run_dir / "plan.json", run_dir / "worker.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    cmd = [sys.executable, "-s", str(BENCH_DIR / "worker.py"), str(plan_path), str(result_path)]
    proc = subprocess.Popen(cmd, env=_env(), cwd=str(BENCH_DIR))
    try:
        rc = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise RuntimeError(f"worker exited with {rc}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if Path(result["polbec_file"]).resolve().parent != (SRC / "polbec").resolve():
        raise RuntimeError(f"worker imported polbec from {result['polbec_file']}")
    return result


def verify(wl: workloads.Workload, run_dir: Path, records: list[dict], seed: int):
    """Oracle-check the first output of every input; later ops must repeat its bytes.

    Returns per-op pass flags and the problems that no known fault explains.
    """
    rng = random.Random(f"check:{wl.name}:{seed}")
    first = {r["input"]: r for r in records if r["phase"] == "warmup"}
    verdict, problems = {}, []
    for i, inp in enumerate(wl.inputs):
        rec = first[i]
        path = run_dir / "ops" / f"first{i}"
        if not isinstance(rec["rc"], int) or not path.exists():
            errors = [f"op did not complete: {rec['rc']}"]
        else:
            text = path.read_text(encoding="utf-8")
            errors = workloads.check(inp, text, rec["rc"], rng)
        verdict[i] = not errors
        if errors and not inp.known_fault:
            problems.append(f"{inp.name}: " + "; ".join(errors[:3]))
    passed, differing = [], set()
    for r in records:
        f = first[r["input"]]
        same = r["rc"] == f["rc"] and r["sha256"] == f["sha256"]
        if not same:
            differing.add(wl.inputs[r["input"]].name)
        passed.append(same and verdict[r["input"]])
    problems += [f"{name}: a repeated op gave other bytes" for name in sorted(differing)]
    return passed, problems


def end_to_end(wl, setup, result, passed) -> dict:
    timed = [(r, ok) for r, ok in zip(result["records"], passed) if r["phase"] == "untraced"]
    times = [r["s"] * scale(r["kernel_s"]) for r, _ in timed]
    p50 = statistics.median(times)
    # rows of the ops that passed, per op, over the median op time: a mean
    # over op times would follow the few ops that a busy host slowed down
    rows_per_op = sum(wl.inputs[r["input"]].check["rows"] for r, ok in timed if ok) / len(timed)
    return {
        "setup_s": (statistics.median(setup["times"]), "s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (_percentile(times, wl.tail_pct), "s"),
        "rows_per_s": (rows_per_op / p50, "1/s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(setup, result) -> dict:
    untraced = [r["s"] * scale(r["kernel_s"]) for r in result["records"]
                if r["phase"] == "untraced"]
    traced = [r for r in result["records"] if r["phase"] == "traced"]

    def med(key):
        return statistics.median(r["layers"].get(key, 0.0) * scale(r["kernel_s"]) for r in traced)

    def mean(key):
        return sum(r["layers"].get(key, 0.0) for r in traced) / len(traced)

    return {
        "cli.format_s": (med("cli.main_s"), "s"),
        "cli.render_s": (med("cli.render_s"), "s"),
        "cli.write_s": (med("cli.write_s"), "s"),
        "cli.out_bytes": (mean("cli.out_bytes"), "bytes"),
        "dispersion.well_s": (med("dispersion.well_s"), "s"),
        "dispersion.well_calls": (mean("dispersion.well_calls"), "count"),
        "dispersion.sample_s": (med("dispersion.sample_s"), "s"),
        "dispersion.points": (mean("dispersion.points"), "count"),
        "thermo.report_s": (med("thermo.report_s"), "s"),
        "thermo.report_calls": (mean("thermo.report_calls"), "count"),
        "thermo.masses_s": (med("thermo.masses_s"), "s"),
        "units.check_s": (med("units.check_s"), "s"),
        "units.calls": (mean("units.check_calls"), "count"),
        "config.load_s": (med("config.load_s"), "s"),
        "config.sweep_s": (med("config.sweep_s"), "s"),
        "coupling.build_s": (med("coupling.build_s"), "s"),
        "setup.numpy_import_s": (statistics.median(setup["numpy_s"]), "s"),
        "setup.polbec_import_s": (statistics.median(setup["polbec_s"]), "s"),
        "trace.overhead_s": (statistics.median(r["s"] * scale(r["kernel_s"]) for r in traced)
                             - statistics.median(untraced), "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "polbec" / "cli.py").is_file():
        sys.stderr.write(f"bench: no polbec sources under {SRC}\n")
        return 1
    trace = bool(args.trace)

    run_dir = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    wl = workloads.make(args.workload, args.seed)
    # The first interpreter of a run may compile bytecode and fill caches; it
    # is checked but not timed.  The timed ones run half before and half after
    # the ops, so that they see the host over the whole run.
    phases = [measure_setup(wl, run_dir, trace, "warmup", 1)]
    phases.append(measure_setup(wl, run_dir, trace, "before", SETUP_RUNS // 2))
    result = run_worker(wl, run_dir, args.seconds, trace)
    phases.append(measure_setup(wl, run_dir, trace, "after", SETUP_RUNS - SETUP_RUNS // 2))
    problems = check_setup(wl, phases)
    setup = {key: [v for phase in phases[1:] for v in phase[key]]
             for key in ("times", "numpy_s", "polbec_s", "kernels")}
    passed, more_problems = verify(wl, run_dir, result["records"], args.seed)
    problems += more_problems
    metrics = per_layer(setup, result) if trace else end_to_end(wl, setup, result, passed)

    summary = {
        "correct": not problems,
        "attempted": len(passed),
        "failed": passed.count(False),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    shutil.rmtree(run_dir / "ops")
    (run_dir / "records.json").write_text(json.dumps(
        {"workload": wl.name, "seed": args.seed, "inputs": [i.name for i in wl.inputs],
         "setup": setup, "records": result["records"], "problems": problems,
         "summary": summary}), encoding="utf-8")
    for p in problems[:10]:
        sys.stderr.write(f"bench: {p}\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
