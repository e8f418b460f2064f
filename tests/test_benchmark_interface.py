"""The benchmark in ``perfbench/`` patches and calls ``ballpoly`` names
from the outside. Importing it and installing its tracer here makes a
rename or deletion of any of those names, or of a parameter its calls
pass, fail this suite rather than the benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

from ballpoly import densities, dominance, exact2d, geometry

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _chain(node):
    """['a', 'b', 'c'] for the expression a.b.c, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + names[::-1]


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    originals = (exact2d.disk_region, dominance._trial_value)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert (exact2d.disk_region, dominance._trial_value) != originals
    finally:
        tracer.uninstall()
    assert (exact2d.disk_region, dominance._trial_value) == originals


def test_traced_distance_queries_count_the_outside_points(monkeypatch):
    # The benchmark's 3-D distance layer reads the (projections,
    # converged) pair that the nearest-point map returns.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    P = geometry.BallPolyhedron.from_arrays(
        [[0.0, 0.0, 0.0], [0.8, 0.0, 0.0], [0.3, 0.6, 0.0]], 1.0)
    pts = np.random.default_rng(0).normal(0, 1.0, (500, 3))
    tracer = spans.Tracer()
    tracer.install()
    try:
        geometry.distances_to_ballpoly(P, pts)
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(tracer)
    outside = int(np.count_nonzero(~P.contains(pts)))
    assert 0 < outside < pts.shape[0]
    assert m["geometry.dykstra.calls"] == 1
    assert m["geometry.dykstra.points"] == outside
    assert m["geometry.dykstra.unconverged_ratio"] == 0


def test_traced_planar_trials_count_trials_and_disks(monkeypatch):
    # The planar layer reads one disk_region call per trial, made through
    # _trial_value, with the trial's N centres as one row: a trial loop
    # that bypassed _trial_value would read 0 trials, and one that passed
    # x and y as separate lists would read 1 disk per call.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    cfg = dominance.ExperimentConfig(
        n=2, N=3, R=3.0, j=2, trials=256, seed=0,
        density=densities.UniformBody(densities.Box.centered_cube(1.0, 2)))
    tracer = spans.Tracer()
    tracer.install()
    try:
        dominance.run_trials(cfg)
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(tracer)
    assert m["exact2d.disk_region.calls"] == 256
    assert m["exact2d.disk_region.disks_mean"] == 3
    assert m["dominance.trials"] == 256


def test_every_module_attribute_the_benchmark_uses_exists():
    checked = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {
            alias.asname or alias.name: importlib.import_module(f"ballpoly.{alias.name}")
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "ballpoly"
            for alias in node.names
        }
        for node in ast.walk(tree):
            chain = _chain(node) if isinstance(node, ast.Attribute) else None
            if not chain or chain[0] not in modules:
                continue
            obj = modules[chain[0]]
            for name in chain[1:]:
                assert hasattr(obj, name), f"{path.name}: {'.'.join(chain)}"
                obj = getattr(obj, name)
            checked += 1
    assert checked > 0


def _ballpoly_names(tree) -> dict:
    """Each name a module binds by ``from ballpoly[.module] import ...``,
    mapped to the object it binds."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ballpoly":
            owner = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = (
                    getattr(owner, alias.name) if hasattr(owner, alias.name)
                    else importlib.import_module(f"{node.module}.{alias.name}"))
    return names


def test_every_call_the_benchmark_makes_binds():
    # A parameter the benchmark passes and the library no longer takes
    # would otherwise surface only as a failed benchmark run.
    checked = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = _ballpoly_names(tree)
        for node in ast.walk(tree):
            chain = _chain(node.func) if isinstance(node, ast.Call) else None
            if not chain or chain[0] not in names:
                continue
            obj = names[chain[0]]
            for name in chain[1:]:
                obj = getattr(obj, name)
            where = f"{path.name}:{node.lineno}: {'.'.join(chain)}"
            assert not any(isinstance(a, ast.Starred) for a in node.args), where
            assert all(k.arg is not None for k in node.keywords), where
            try:
                inspect.signature(obj).bind(*node.args, **{k.arg: k for k in node.keywords})
            except TypeError as exc:
                raise AssertionError(f"{where}: {exc}") from None
            checked += 1
    assert checked > 0
