"""tools/pairs.py: the summary of alternating benchmark pairs and its gain
rule, on canned numbers (no benchmark runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(values):
    return [{"wall_s": v} for v in values]


PARENT = [0.040, 0.042, 0.041, 0.043, 0.044, 0.040, 0.041, 0.042, 0.043, 0.045]


def test_end_to_end_metrics_come_from_the_benchmark(pairs):
    assert pairs.end_to_end() == {"wall_s": True, "setup_s": True, "peak_rss_mb": True}


def test_quartiles_inclusive(pairs):
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_nine_of_ten_and_a_wide_gap_is_a_gain(pairs):
    change = [v - 0.006 for v in PARENT]
    change[3] = PARENT[3] + 0.001  # one pair lost
    s = pairs.summarize(runs(PARENT), runs(change), {"wall_s": True})["wall_s"]
    assert s["won"] == 9 and s["pairs"] == 10 and s["gain"]
    assert s["parent"] == pairs.quartiles(PARENT) and s["change"] == pairs.quartiles(change)


def test_eight_of_ten_is_not(pairs):
    change = [v - 0.006 for v in PARENT]
    change[3], change[7] = PARENT[3] + 0.001, PARENT[7]  # one lost, one tie
    s = pairs.summarize(runs(PARENT), runs(change), {"wall_s": True})["wall_s"]
    assert s["won"] == 8 and not s["gain"]


def test_a_gap_within_the_parents_spread_is_not(pairs):
    # Every pair won, but by less than the parent's quartile spread.
    change = [v - 0.001 for v in PARENT]
    q1, _, q3 = pairs.quartiles(PARENT)
    assert q3 - q1 > 0.001
    s = pairs.summarize(runs(PARENT), runs(change), {"wall_s": True})["wall_s"]
    assert s["won"] == 10 and not s["gain"]


def test_fewer_than_ten_pairs_is_not(pairs):
    change = [v - 0.006 for v in PARENT]
    s = pairs.summarize(runs(PARENT[:9]), runs(change[:9]), {"wall_s": True})["wall_s"]
    assert s["won"] == 9 and not s["gain"]


def test_higher_is_better_flips_the_comparison(pairs):
    change = [v + 0.006 for v in PARENT]
    up = pairs.summarize(runs(PARENT), runs(change), {"wall_s": False})["wall_s"]
    down = pairs.summarize(runs(PARENT), runs(change), {"wall_s": True})["wall_s"]
    assert up["won"] == 10 and up["gain"]
    assert down["won"] == 0 and not down["gain"]


def test_json_summary_of_canned_runs(pairs, monkeypatch, tmp_path, capsys):
    # run_once is replaced, so no benchmark process starts: the change's
    # wall time is 0.006 s below the parent's in every pair but one.
    change = [v - 0.006 for v in PARENT]
    change[3] = PARENT[3] + 0.001
    walls = {"parent": PARENT, "change": change}

    def run_once(checkout, workload, seed, seconds):
        assert workload == "circumscribe" and seconds == pairs.benchmark()["run_seconds"]
        return {"wall_s": walls[checkout.name][seed - 601], "setup_s": 0.2, "peak_rss_mb": 40.0}

    monkeypatch.setattr(pairs, "run_once", run_once)
    monkeypatch.setattr(pairs, "run_layers", lambda *args: {"intrinsic.fit.calls": 1.0})
    out = tmp_path / "pairs.json"
    assert pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload",
                       "circumscribe", "--seed", "601", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["workload"], doc["seed"], doc["pairs"]) == ("circumscribe", 601, 10)
    assert [run["wall_s"] for run in doc["runs"]["change"]] == change
    wall = doc["metrics"]["wall_s"]
    q1, med, q3 = pairs.quartiles(PARENT)
    assert wall["parent"] == {"q1": q1, "median": med, "q3": q3}
    assert wall["change"]["median"] == pairs.quartiles(change)[1]
    assert (wall["better"], wall["won"], wall["pairs"], wall["gain"]) == ("lower", 9, 10, True)
    flat = doc["metrics"]["setup_s"]
    assert (flat["won"], flat["gain"]) == (0, False)
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    wall_line = next(line for line in printed if line[0] == "wall_s")
    assert wall_line[:2] == ["wall_s", f"{med:.4g}"]
    assert wall_line[-4:] == ["won", "9/10", "gain", "holds"]


def test_json_records_one_traced_run_per_side(pairs, monkeypatch, tmp_path, capsys):
    # Both kinds of run are canned, and a started process fails the test.
    def no_process(*args, **kwargs):
        raise AssertionError("a benchmark process was started")

    traced = []

    def run_layers(checkout, workload, seed, seconds):
        traced.append((checkout.name, workload, seed, seconds))
        return {"geometry.dykstra.calls": {"parent": 40.0, "change": 38.0}[checkout.name],
                "intrinsic.fit.self_s": {"parent": 0.25, "change": 0.2}[checkout.name]}

    monkeypatch.setattr(pairs.subprocess, "run", no_process)
    monkeypatch.setattr(pairs, "run_once",
                        lambda *args: {"wall_s": 0.04, "setup_s": 0.2, "peak_rss_mb": 40.0})
    monkeypatch.setattr(pairs, "run_layers", run_layers)
    out = tmp_path / "pairs.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "steiner-3d",
            "--pairs", "3", "--seed", "901"]
    assert pairs.main(argv) == 0
    assert traced == [] and not out.exists()  # no --json, no traced run
    assert pairs.main(argv + ["--json", str(out)]) == 0
    seconds = pairs.benchmark()["run_seconds"]
    assert traced == [("parent", "steiner-3d", 901, seconds), ("change", "steiner-3d", 901, seconds)]
    layers = json.loads(out.read_text())["layers"]
    assert layers == {"seed": 901,
                      "parent": {"geometry.dykstra.calls": 40.0, "intrinsic.fit.self_s": 0.25},
                      "change": {"geometry.dykstra.calls": 38.0, "intrinsic.fit.self_s": 0.2}}
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["geometry.dykstra.calls", "40", "->", "38"] in printed
    assert ["intrinsic.fit.self_s", "0.25", "->", "0.2"] in printed


def test_a_failed_traced_run_keeps_the_pairs_summary(pairs, monkeypatch, tmp_path, capsys):
    # The pairs are reported before the traced runs start, so a failed
    # traced run exits 1 but loses none of them.
    def run_layers(checkout, workload, seed, seconds):
        raise RuntimeError(f"{checkout}: seed {seed} failed")

    monkeypatch.setattr(pairs, "run_once",
                        lambda *args: {"wall_s": 0.04, "setup_s": 0.2, "peak_rss_mb": 40.0})
    monkeypatch.setattr(pairs, "run_layers", run_layers)
    out = tmp_path / "pairs.json"
    assert pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload",
                       "steiner-3d", "--pairs", "2", "--json", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert "layers" not in doc
    assert (doc["workload"], doc["pairs"]) == ("steiner-3d", 2)
    assert len(doc["runs"]["parent"]) == len(doc["runs"]["change"]) == 2
    captured = capsys.readouterr()
    assert "seed 101 failed" in captured.err
    assert any(line.split()[:1] == ["wall_s"] for line in captured.out.splitlines())
