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
    assert printed[-3][:2] == ["wall_s", f"{med:.4g}"]
    assert printed[-3][-4:] == ["won", "9/10", "gain", "holds"]
