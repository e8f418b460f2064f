"""Tests of the benchmark itself: schema, a one-second smoke run of every
workload untraced and traced, and the layers each workload must isolate.

    python3 -m pytest perfbench -q

Each smoke run is one rep (its budget is one second) plus the set-up
processes, about a minute and a half in all.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
REPORTED = ("wall_s", "setup_s", "peak_rss_mb", "est_stderr", "failed_frac")

# Count metrics of the layers each workload does most of its work in; a
# layer counts as exercised when any of its counts is nonzero.
BUSY_LAYERS = {
    "planar-dominance": [["rng.stream.calls"], ["rng.draw.calls"],
                         ["exact2d.disk_region.calls"], ["dominance.trials"]],
    "moments-star": [["rng.stream.calls"], ["rng.draw.calls"], ["densities.sample.calls"],
                     ["exact2d.disk_region.calls"], ["dominance.trials"],
                     ["geometry.radial.calls", "geometry.support.calls"]],
    "steiner-3d": [["geometry.dykstra.calls"], ["intrinsic.fit.calls"]],
    "circumscribe": [["geometry.radial.calls", "geometry.support.calls"],
                     ["extremal.objective.calls"], ["polytope.clip.calls"]],
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seconds: int = 1):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload,
           "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload: str, trace: int):
        if (workload, trace) not in cache:
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            cache[workload, trace] = (proc.stdout, json.loads(proc.stdout.splitlines()[-1]))
        return cache[workload, trace]

    return get


def test_benchmark_json_schema():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert BENCH["command"][0] == "python3"
    assert all((ROOT / p).is_dir() for p in BENCH["paths"])
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    # Every run also spends about 5 s outside its reps (set-up
    # processes, imports, run-level gates); all runs must fit in 3420 s.
    runs = 4 + 22 * len(WORKLOADS)
    assert runs * (BENCH["run_seconds"] + 8) < 3420
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and NAME.fullmatch(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def check_output(out: dict, declared: list):
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_untraced(runs, workload):
    text, out = runs(workload, 0)
    check_output(out, BENCH["end_to_end"])
    assert all(out["metrics"][m["name"]]["value"] > 0 for m in BENCH["end_to_end"])
    for name in REPORTED:
        assert re.search(rf"^  {name} +\S+ [A-Za-z_]+", text, re.M), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(runs, workload):
    _, out = runs(workload, 1)
    check_output(out, BENCH["per_layer"])
    m = {k: v["value"] for k, v in out["metrics"].items()}
    for counts in BUSY_LAYERS[workload]:
        assert any(m[c] > 0 for c in counts), counts
    assert m["config.validate.self_s"] > 0 and m["results.write.self_s"] > 0
    if workload == "steiner-3d":
        assert m["geometry.dykstra.self_s"] >= 0.8 * m["trace.wall_s"]
    else:
        assert m["geometry.dykstra.calls"] == 0
    if workload in ("steiner-3d", "circumscribe"):
        assert m["exact2d.disk_region.calls"] == 0
    disks = {"planar-dominance": 3, "moments-star": 9}
    if workload in disks:
        assert m["exact2d.disk_region.disks_mean"] == disks[workload]
    assert (m["polytope.clip.calls"] > 0) == (workload == "circumscribe")


def test_rep_count_fixed_by_budget(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from run import rep_count
    from workloads import WORKLOADS as CLASSES

    for name in WORKLOADS:
        wl = CLASSES[name]
        untraced, traced = (rep_count(wl, BENCH["run_seconds"], t) for t in (False, True))
        assert untraced >= traced >= 1
        # Nominally a run's reps fill most of its budget, never more.
        assert 0.75 * BENCH["run_seconds"] <= untraced * wl.rep_cost_s[0] <= BENCH["run_seconds"]
    assert rep_count(CLASSES[WORKLOADS[0]], 0.001, True) == 1


def test_wall_s_is_lower_quartile():
    from run import lower_quartile

    assert lower_quartile([2.0]) == 2.0
    # Reps slowed by contention on a shared host do not move it.
    assert lower_quartile([2.0, 2.1] * 3 + [3.5, 3.6]) == lower_quartile([2.0, 2.1] * 3)


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in BENCH["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
