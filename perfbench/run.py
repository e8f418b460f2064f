"""Benchmark command for ballpoly.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from
``src/``. The workloads and their gates are in ``workloads.py`` and the
metric names and units in ``BENCHMARK.json``.

A run first times the set-up (imports, config validation, densities,
bodies) in fresh processes, then repeats one experiment per rep, each
with its own seed derived from ``--seed``, for about ``--seconds``
on a 2-core host, checking every rep's output. The number of reps is
fixed by ``--seconds`` and the workload's nominal rep cost, not by the
clock, so that a seed always runs the same trials. Rep r runs pinned
to the r-th CPU in turn, and ``wall_s`` is the lower quartile of the
rep times (``lower_quartile``). ``--trace 0`` reports the end-to-end
metrics. ``--trace 1`` runs every rep twice on the same inputs,
untraced and then traced, and reports the per-layer metrics of the
traced executions and the tracing overhead.

The report goes to stdout, and its last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Exit
status 0 when every gate passes, 1 when one fails, 2 when there is no
``src/ballpoly`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

# Fresh processes whose set-up time is measured; setup_s is their median.
SETUP_SAMPLES = 3
# A run gives up its remaining reps once it has taken this many times
# its budget, which keeps it within its time limit on a slow host.
OVERRUN = 4
OUT_DIR = Path(".bench_out")
# The CPUs this process may run on. On a shared host each CPU's speed
# drifts on its own, by up to 2x for tens of seconds; a process left to
# the scheduler stays on one CPU and measures that CPU's state. Rep r
# and set-up probe r are therefore pinned to CPUS[r % len(CPUS)], so a
# run samples every CPU in turn. Nothing runs beside the measured
# process, so pinning adds no contention.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


@dataclass
class Rep:
    wall_s: float
    units: int
    failed: int
    est_stderr: float
    problems: List[str]
    traced_wall_s: Optional[float] = None
    layers: Dict[str, float] = field(default_factory=dict)


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one ballpoly benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin(k: Optional[int]) -> None:
    """Run on the k-th CPU in turn, or on all of them when k is None."""
    if CPUS:
        os.sched_setaffinity(0, CPUS if k is None else {CPUS[k % len(CPUS)]})


def time_setup(args, k: int) -> float:
    """Seconds from starting a fresh process, pinned to the k-th CPU in
    turn, to the end of its set-up."""
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    pin(k)  # the child inherits the pinning
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    finally:
        pin(None)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - start


def execute(wl, seed: int, out: Path, tracer=None):
    """One rep: (outcome, wall seconds), with the tracer installed
    around it when given."""
    if tracer is not None:
        tracer.reset_aggregates()
        tracer.install()
    try:
        start = time.perf_counter()
        outcome = wl.execute(seed, out)
        return outcome, time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()


def rep_count(wl, seconds: float, traced: bool) -> int:
    """Reps in a run: a fixed count, so that the same seed and budget
    give the same inputs, and so the same trials, on every run."""
    untraced_s, traced_s = wl.rep_cost_s
    return max(1, int(seconds / (traced_s if traced else untraced_s)))


def run_reps(wl, args, out_root: Path, tracer) -> List[Rep]:
    from workloads import rep_seed

    reps: List[Rep] = []
    count = rep_count(wl, args.seconds, tracer is not None)
    start = time.perf_counter()
    for r in range(count):
        if time.perf_counter() - start > OVERRUN * args.seconds:
            wl.notes.append(f"stopped after {r} of {count} reps: the host ran more than "
                            f"{OVERRUN}x slower than the rep cost assumes")
            break
        seed = rep_seed(args.seed, r)
        pin(r)
        try:
            outcome, wall = execute(wl, seed, out_root / f"rep{r}")
            chk = wl.check(seed, outcome)
            rep = Rep(wall, chk.units, chk.failed, chk.est_stderr, chk.problems)
            if tracer is not None:
                from spans import layer_metrics

                outcome, rep.traced_wall_s = execute(wl, seed, out_root / f"rep{r}-traced", tracer)
                rep.layers = layer_metrics(tracer)
                traced = wl.check(seed, outcome)
                rep.units += traced.units
                rep.failed += traced.failed
                rep.problems += [f"traced: {p}" for p in traced.problems]
        except Exception as exc:  # report the failed rep, stop the run
            traceback.print_exc()
            units = wl.units * (2 if tracer is not None else 1)
            reps.append(Rep(float("nan"), units, units, float("nan"),
                            [f"raised {type(exc).__name__}: {exc}"]))
            break
        reps.append(rep)
    pin(None)
    wl.notes.append(f"{len(reps)} reps took {time.perf_counter() - start:.1f} s"
                    f" on {max(1, len(CPUS))} CPUs in turn")
    return reps


def lower_quartile(values: List[float]) -> float:
    """wall_s of a run: the lower quartile of its rep times. Contention
    on a shared host only ever slows a rep, and it makes rep times
    bimodal (see README), so the median measures how many reps were
    slowed; the lower quartile measures reps that ran uncontended."""
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return "one rep"
    q = statistics.quantiles(values, n=4)
    return f"quartiles {q[0]:.4f} .. {q[2]:.4f}"


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "ballpoly" / "__init__.py").is_file():
        print("run.py: no src/ballpoly here; run from the root of a ballpoly checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    if args.setup_probe:
        wl.setup(args.seed)
        print(repr(time.monotonic()))
        return 0

    bench = json.loads((root / "BENCHMARK.json").read_text())
    setup_times = [time_setup(args, k) for k in range(SETUP_SAMPLES)]
    wl.setup(args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    out_root = OUT_DIR / "results" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out_root, ignore_errors=True)
    reps = run_reps(wl, args, out_root, tracer)
    problems = [f"rep {i}: {p}" for i, rep in enumerate(reps) for p in rep.problems]
    if all(not rep.problems for rep in reps):
        problems += wl.finish(args.seed)
    correct = not problems
    attempted = sum(rep.units for rep in reps)
    # A failed gate fails every unit of the run.
    failed = sum(rep.failed for rep in reps) if correct else attempted
    done = [rep for rep in reps if math.isfinite(rep.wall_s)]
    if not done:
        for p in problems:
            print(f"  GATE FAILED  {p}")
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    walls = [rep.wall_s for rep in done]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    est_stderr = statistics.median(rep.est_stderr for rep in done)

    print(f"{args.workload}  seed {args.seed}  {len(reps)} reps for a {args.seconds:g} s budget"
          f"  trace {args.trace}")
    print(f"  wall_s       {lower_quartile(walls):.4f} s   lower quartile of {len(walls)} reps"
          f" (median {statistics.median(walls):.4f}, {quartiles(walls)})")
    print(f"  setup_s      {statistics.median(setup_times):.4f} s   median of"
          f" {SETUP_SAMPLES} fresh processes ({quartiles(setup_times)})")
    print(f"  peak_rss_mb  {rss_mb:.1f} MB")
    print(f"  est_stderr   {est_stderr:.6g} V_j   median of the reps' reported stderr")
    print(f"  failed_frac  {failed / attempted:.6g} ratio   {failed} of {attempted} units")
    for note in wl.notes:
        print(f"  note         {note}")
    for p in problems:
        print(f"  GATE FAILED  {p}")

    if tracer is None:
        metrics = {
            "wall_s": lower_quartile(walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": rss_mb,
        }
        declared = bench["end_to_end"]
    else:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
        metrics = {name: statistics.median(rep.layers[name] for rep in done)
                   for name in done[0].layers}
        metrics["est_stderr"] = est_stderr
        metrics["failed_frac"] = failed / attempted
        metrics["trace.wall_s"] = statistics.median(rep.traced_wall_s for rep in done)
        metrics["trace.overhead_s"] = statistics.median(
            rep.traced_wall_s - rep.wall_s for rep in done)
        print_layers(metrics)
        declared = bench["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    if correct and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units.get(k, "")} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def print_layers(m: Dict[str, float]) -> None:
    """Per-layer self time as a share of the traced wall time, then the
    ratios and the tracing overhead (all per rep, medians over reps)."""
    wall = m["trace.wall_s"]
    print(f"  per layer, per rep; traced wall {wall:.4f} s")
    print(f"    {'layer':<26} {'calls':>10} {'self_s':>10} {'share':>7}")
    for key in sorted(k for k in m if k.endswith(".self_s")):
        layer = key[:-len(".self_s")]
        calls = m.get(f"{layer}.calls", m["dominance.trials"] if layer == "dominance.driver" else None)
        calls = "" if calls is None else f"{calls:.0f}"
        print(f"    {layer:<26} {calls:>10} {m[key]:>10.4f} {m[key] / wall:>7.1%}")
    for key in ("densities.accept_ratio", "densities.used_ratio",
                "exact2d.disk_region.empty_ratio", "geometry.dykstra.unconverged_ratio"):
        print(f"    {key:<37} {m[key]:.6g}")
    print(f"    {'exact2d.disk_region.disks_mean':<37} {m['exact2d.disk_region.disks_mean']:.4g}")
    print(f"    {'trace.overhead_s':<37} {m['trace.overhead_s']:.4f}"
          f"  (traced minus untraced wall_s, paired reps)")


if __name__ == "__main__":
    sys.exit(main())
