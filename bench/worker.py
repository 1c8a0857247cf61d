"""Closed-loop op runner: one fresh interpreter, one thread, one op at a time.

Usage: python3 worker.py PLAN.json RESULT.json

The plan names the ops of one round (CLI arguments and output path), the
run length and whether to trace.  The first round warms up; then whole
rounds run until the run length has passed and at least min_ops ops were
timed.  Only the ``main(...)`` call is timed; hashing each output and
keeping the first output of every input happen outside the timer.  The
calibration kernel (calibrate.py) runs before the first op and then at
least every CALIBRATE_EVERY_S of ops; each op record carries the mean of
the kernel times just before and after it.  In a traced run untraced and
traced rounds alternate, so that both medians come from the same process.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from time import perf_counter

from calibrate import kernel_s

# The host changes speed within a second, so the kernel runs after the first
# op that ends at least this long after its last run, and at the end of a round.
CALIBRATE_EVERY_S = 0.1


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    from polbec import cli

    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        traced_main = tracer.wrap("cli.main", cli.main)

    records = []
    kernels = [kernel_s()]
    pending = []            # records still waiting for the kernel run after them
    last_kernel = perf_counter()

    def calibrate() -> None:
        nonlocal last_kernel
        kernels.append(kernel_s())
        for record in pending:
            record["kernel_s"] = (kernels[-2] + kernels[-1]) / 2
        pending.clear()
        last_kernel = perf_counter()

    def run_round(phase: str) -> None:
        traced = phase == "traced"
        if traced:
            tracer.install()
        call = traced_main if traced else cli.main
        for index, op in enumerate(plan["ops"]):
            if traced:
                tracer.reset()
            t0 = perf_counter()
            try:
                rc = call(op["argv"])
            except Exception as exc:  # an op that raises is a failed op, not a failed run
                rc = f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - t0
            record = {"input": index, "phase": phase, "rc": rc, "s": seconds, "sha256": None}
            if traced:
                record["layers"] = tracer.snapshot()
            if os.path.exists(op["out"]):
                record["sha256"] = _digest(op["out"])
                if phase == "warmup":
                    os.replace(op["out"], op["first"])
                else:
                    os.remove(op["out"])
            records.append(record)
            pending.append(record)
            if perf_counter() - last_kernel >= CALIBRATE_EVERY_S:
                calibrate()
        if traced:
            tracer.uninstall()
        if pending:
            calibrate()

    run_round("warmup")
    phases = ["untraced", "traced"] if tracer else ["untraced"]
    timed = {phase: 0 for phase in phases}
    start = perf_counter()
    n = 0
    while True:
        phase = phases[n % len(phases)]
        run_round(phase)
        timed[phase] += len(plan["ops"])
        n += 1
        if (perf_counter() - start >= plan["seconds"] and n % len(phases) == 0
                and min(timed.values()) >= plan["min_ops"]):
            break

    result = {
        "records": records,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "polbec_file": cli.__file__,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
