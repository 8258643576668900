"""Growth ladder: how request time grows with input size (report only).

Doubles each workload's input size, from a small start, until the
workload's time budget would run out, and fits the log-log slope of
the median warm request time against size.  Each size runs in a fresh
process (set-up, one cold request, then ``REQUESTS`` warm ones).
The ladder is not gated and is not part of the repeated benchmark runs;
answers are not checked here (the sample-point reference for
``fo_negation`` is itself exponential in quantifier depth).

    python3 perfbench/ladder.py

The paper bounds data complexity polynomially (T4.1 for FO+, T4.4 for
inflationary Datalog) without an exponent; EXPERIMENTS E6 calls naive
TC "about cubic".  The slope printed here is the measured figure.
"""

from __future__ import annotations

import json
import math
import sys
import time

from run import ROOT, WORKLOAD_NAMES, BenchError, spawn

#: first rung of each ladder (vertices, intervals, vertices, segments)
START = {"datalog_tc": 4, "fo_negation": 4, "fo_join": 40, "foplus_linear": 2}
#: warm requests per rung, the workload seed, and seconds per workload
REQUESTS = 3
SEED = 1
BUDGET_S = 60.0


def slope(points):
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def climb(workload: str):
    deadline = time.monotonic() + BUDGET_S
    rungs = []
    size = START[workload]
    growth = 2.0
    while True:
        began = time.monotonic()
        try:
            result = spawn(["--mode", "ladder", "--workload", workload, "--seed", str(SEED),
                            "--size", str(size), "--requests", str(REQUESTS)], deadline)
        except BenchError as err:  # the budget ran out inside this rung
            print(f"{workload:14s} size {size:5d}  stopped: {err}", flush=True)
            break
        took = time.monotonic() - began
        rungs.append({"size": size, "warm_s": result["warm_s"], "cold_s": result["cold_s"]})
        print(f"{workload:14s} size {size:5d}  warm {result['warm_s']:.4f} s  "
              f"cold {result['cold_s']:.4f} s", flush=True)
        if len(rungs) >= 2:
            growth = max(2.0, rungs[-1]["warm_s"] / max(rungs[-2]["warm_s"], 1e-9))
        if time.monotonic() + took * growth > deadline:
            break
        size *= 2
    fitted = slope([(r["size"], r["warm_s"]) for r in rungs[1:]]) if len(rungs) >= 3 else None
    return {"rungs": rungs, "exponent": fitted}


def main() -> int:
    report = {w: climb(w) for w in WORKLOAD_NAMES}
    for workload, entry in report.items():
        exponent = entry["exponent"]
        shown = "n/a" if exponent is None else f"{exponent:.2f}"
        print(f"{workload:14s} fitted exponent {shown} (rungs after the first)")
    out = ROOT / "perfbench" / "out" / "ladder.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(json.dumps({w: e["exponent"] for w, e in report.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
