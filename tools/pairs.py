"""Alternating benchmark pairs of two checkouts, and whether a gain holds.

Usage: python3 tools/pairs.py PARENT CHANGE --workload W --pairs K [--seed S] [--json PATH]

PARENT and CHANGE are the roots of two checkouts. Pair k runs
``perfbench/run.py --workload W --seed S+k --trace 0`` in each, for the
``run_seconds`` of BENCHMARK.json, the parent first in even pairs and
the change first in odd ones, so that a drift in the host's speed does
not favour one side. Each
run's end-to-end metrics (those of BENCHMARK.json) are printed as it
ends; then, per metric, each side's median and quartiles, the pairs the
change won (ties count for neither side) and whether the gain rule
holds: at least ten pairs, the change better in at least nine tenths of
them, and the medians apart by more than the distance between the
parent's quartiles. A run whose gates fail stops the comparison with
exit status 1. ``--json PATH`` also writes the summary to PATH (see
``report``): the runs of each side and, per metric, each side's median
and quartiles, the pairs won and the gain verdict. With ``--json`` each
side then makes one ``--trace 1`` run at the first seed, and the file
records its per-layer metrics under ``layers``, so that the layer costs
sit next to the end-to-end pairs. The pairs' summary is printed and
written before these runs: if one fails, the file keeps the summary
without ``layers`` and the exit status is 1.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
# Fewest pairs, and the share of them the change must win, for a gain.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end() -> Dict[str, bool]:
    """Name -> lower is better, for the end-to-end metrics of BENCHMARK.json."""
    return {m["name"]: m["better"] == "lower" for m in benchmark()["end_to_end"]}


def quartiles(values: Sequence[float]) -> tuple:
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent: List[Dict[str, float]], change: List[Dict[str, float]],
              lower: Dict[str, bool]) -> Dict[str, dict]:
    """Per metric: each side's quartiles, the pairs the change won and
    whether the gain rule holds. ``parent[k]`` and ``change[k]`` are the
    metrics of pair k; ``lower`` maps each metric to lower-is-better."""
    out = {}
    for name, is_lower in lower.items():
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        sign = 1.0 if is_lower else -1.0
        won = sum(sign * (a - b) > 0 for a, b in zip(p, c))
        qp, qc = quartiles(p), quartiles(c)
        gap = sign * (qp[1] - qc[1])
        out[name] = {
            "parent": qp, "change": qc, "won": won, "pairs": len(p),
            "gain": len(p) >= MIN_PAIRS and won >= WIN_SHARE * len(p) and gap > qp[2] - qp[0],
        }
    return out


def report(workload: str, seed: int, parent: List[Dict[str, float]],
           change: List[Dict[str, float]], lower: Dict[str, bool]) -> dict:
    """The JSON form of a comparison: its workload, first seed and run
    length, the end-to-end metrics of every run of each side, and per
    metric ``summarize``'s numbers with the quartiles named."""
    metrics = {}
    for name, s in summarize(parent, change, lower).items():
        metrics[name] = {
            "better": "lower" if lower[name] else "higher",
            **{side: dict(zip(("q1", "median", "q3"), s[side])) for side in ("parent", "change")},
            "won": s["won"], "pairs": s["pairs"], "gain": s["gain"],
        }
    return {"workload": workload, "seed": seed, "run_seconds": benchmark()["run_seconds"],
            "pairs": len(parent), "runs": {"parent": parent, "change": change},
            "metrics": metrics}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> Dict[str, float]:
    """One untraced benchmark run; its end-to-end metrics."""
    return run_metrics(checkout, workload, seed, seconds, trace=0)


def run_layers(checkout: Path, workload: str, seed: int, seconds: float) -> Dict[str, float]:
    """One traced benchmark run; its per-layer metrics."""
    return run_metrics(checkout, workload, seed, seconds, trace=1)


def run_metrics(checkout: Path, workload: str, seed: int, seconds: float,
                trace: int) -> Dict[str, float]:
    """The metrics of one benchmark run with ``--trace trace``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if proc.returncode != 0 or not report.get("correct"):
        raise RuntimeError(f"{checkout}: seed {seed} failed (exit {proc.returncode}):\n"
                           + "\n".join(lines[-15:]) + proc.stderr[-2000:])
    return {name: m["value"] for name, m in report["metrics"].items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Alternating benchmark pairs of two checkouts.")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--seed", type=int, default=101)
    p.add_argument("--json", type=Path, help="also write the summary to this file")
    args = p.parse_args(argv)
    seconds = benchmark()["run_seconds"]
    lower = end_to_end()
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        seed = args.seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                metrics = run_once(sides[side], args.workload, seed, seconds)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
            runs[side].append(metrics)
            print(f"pair {k:>2} seed {seed} {side:<6} "
                  + "  ".join(f"{name} {metrics[name]:.4g}" for name in lower), flush=True)
    summary = report(args.workload, args.seed, runs["parent"], runs["change"], lower)
    print(f"{args.workload}: {args.pairs} pairs, parent -> change, median [quartiles]")
    for name, m in summary["metrics"].items():
        pq, cq = m["parent"], m["change"]
        print(f"  {name:<12} {pq['median']:.4g} [{pq['q1']:.4g}, {pq['q3']:.4g}] -> "
              f"{cq['median']:.4g} [{cq['q1']:.4g}, {cq['q3']:.4g}]  "
              f"won {m['won']}/{m['pairs']}  gain {'holds' if m['gain'] else 'not shown'}")
    if not args.json:
        return 0
    args.json.write_text(json.dumps(summary, indent=2) + "\n")
    try:
        layers = {side: run_layers(sides[side], args.workload, args.seed, seconds)
                  for side in ("parent", "change")}
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    summary["layers"] = {"seed": args.seed, **layers}
    print(f"{args.workload}: per layer, one traced run per side at seed {args.seed}, "
          "parent -> change")
    for name, value in layers["parent"].items():
        print(f"  {name:<36} {value:.4g} -> {layers['change'].get(name, math.nan):.4g}")
    args.json.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
