"""The command line: config validation exit codes, the moments kind, the
written result record, every kind run end to end on a tiny budget, and
the kinds that run without importing scipy."""

import ast
import importlib.util
import json
import math
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest
import yaml

import ballpoly
from ballpoly import cli, config, results
from ballpoly import dominance as dm
from ballpoly.config import build_body
from ballpoly.rng import RNG_CONTRACT


def moments_doc(p_list, trials=200):
    return {
        "kind": "moments", "seed": 23, "workers": 1,
        "params": {
            "body": {"type": "cube", "side": math.pi / 4.0, "n": 2, "grid_size": 1024},
            "R": 6.0, "N": 3, "j": 2, "p_list": p_list, "trials": trials,
        },
    }


def gorbovickis_doc(R_list):
    return {"kind": "gorbovickis", "seed": 1,
            "params": {"points": [[0.0, 0.0], [1.0, 0.0]], "R_list": R_list}}


SQUARE = {"type": "cube", "side": 1.0, "n": 2, "grid_size": 256}
CUBE_3D = {"type": "cube", "side": 1.0, "n": 3, "grid_size": 512}
UNIT_BOX = {"type": "box1d-step", "breaks": [-0.5, 0.5], "heights": [1.0]}

# One tiny config per kind, plus the 3-D circumscription kinds and a
# constant boundary function, each run through ``cli.main``.
SMOKE = {
    "dominance-ball": {"n": 2, "N": 3, "R": 3.0, "j": 2, "trials": 100,
                       "density": {"type": "uniform-box", "side": 1.0}},
    "dominance-cube": {"n": 2, "N": 3, "R": 3.0, "j": 2, "trials": 100,
                       "density": {"type": "product", "factors": [UNIT_BOX, UNIT_BOX]}},
    "moments": {"body": SQUARE, "R": 6.0, "N": 3, "j": 2, "p_list": [1, -1, "-inf"],
                "trials": 100},
    "wulff-convergence": {"f": {"type": "support-cube", "side": 1.0}, "R_list": [5.0, 10.0],
                          "grid_size": 64, "probe_size": 256},
    "vr-asymptotics": {"f": {"type": "support-cube", "side": 1.0}, "R_list": [5.0, 10.0],
                       "grid_size": 256},
    "minimize": {"body": SQUARE, "j": 2, "N": 3, "restarts": 2, "max_fev": 40},
    "schneider": {"body": SQUARE, "j": 2, "N": 4, "restarts": 1},
    "simplex-bound": {"body": SQUARE, "restarts": 1},
    "gorbovickis": {"points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], "R_list": [10.0, 20.0]},
    "hull-bridge": {"N": 3, "trials": 100, "R": 10.0, "grid_size": 64,
                    "density_a": {"type": "uniform-box", "side": 1.0},
                    "density_b": {"type": "uniform-ball", "radius": 0.5}},
    "selftest": {},
    "minimize/exact-hull-3d": {"body": CUBE_3D, "j": 3, "N": 4, "estimator": "exact-hull-3d",
                               "restarts": 1, "max_fev": 40},
    "minimize/3d-j2": {"body": CUBE_3D, "j": 2, "N": 4, "restarts": 1, "max_fev": 40},
    "schneider/3d": {"body": CUBE_3D, "j": 3, "N": 4, "restarts": 1},
    "simplex-bound/3d": {"body": CUBE_3D, "restarts": 1},
    "vr-asymptotics/constant": {"f": {"type": "constant", "value": 1.0},
                                "R_list": [5.0, 10.0], "grid_size": 256},
}


def smoke_doc(name):
    return {"kind": name.split("/")[0], "seed": 3, "workers": 1, "params": SMOKE[name]}


def smoke_with(name, **params):
    """The smoke config of ``name`` with some params replaced or added."""
    doc = smoke_doc(name)
    doc["params"] = {**doc["params"], **params}
    return doc


def run_main(doc, tmp_path, *argv):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return cli.main([str(path), "--out", str(tmp_path / "out"), *argv])


# Configs that each break one rule, with a fragment of the message that
# must name the key or spec. Before the schema tables, each of these
# ended in a traceback, ran with a value ignored or misread, or passed
# validation and failed mid-run.
BAD_CONFIGS = [
    pytest.param(smoke_with("minimize", body={"type": "segment", "b": [1.0, 0.0]}),
                 "missing required key 'a'", id="segment-without-a"),
    pytest.param(smoke_with("wulff-convergence", grid_size="x"), "grid_size",
                 id="grid-size-string"),
    pytest.param(smoke_with("hull-bridge", grid_size=0), "grid_size", id="grid-size-zero"),
    pytest.param(smoke_with("moments", body={**SQUARE, "grid_size": True}), "grid_size",
                 id="body-grid-size-bool"),
    pytest.param(smoke_with("dominance-ball", s_grid=[3, 1]), "s_grid", id="s-grid-descending"),
    pytest.param(smoke_with("dominance-ball", density={
        "type": "radial-step", "radii": [1.0], "heights": [1.0]}), "params.density: density mass",
        id="radial-step-mass"),
    pytest.param(smoke_with("dominance-ball", density={
        "type": "uniform-box", "lo": [0.0, 0.0], "hi": [1.0, 1.0, 1.0]}), "params.density",
        id="lo-hi-lengths"),
    pytest.param(smoke_with("dominance-ball", density={"type": "uniform-box", "lo": "0", "hi": "1"}),
                 "key 'lo'", id="lo-hi-strings"),
    pytest.param(smoke_with("minimize", body={"type": "polytope", "vertices": [[0, 0], [1, 0], "a"]}),
                 "vertices", id="polytope-vertex-string"),
    pytest.param(smoke_with("dominance-ball", density={"type": "uniform-box", "side": 1.0, "n": "two"}),
                 "params.density: key 'n'", id="density-n-string"),
    pytest.param(smoke_with("dominance-ball", density={
        "type": "uniform-ball", "radius": 0.5, "center": [0.0, 0.0, 0.0], "n": 2}),
        "params.density: key 'n'", id="ball-center-length"),
    pytest.param(smoke_with("dominance-ball", n=3, estimator="steiner-fit", density={
        "type": "uniform-box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}), "params.density: dimension",
        id="planar-density-n3"),
    pytest.param(smoke_with("dominance-ball", n=3, density={"type": "uniform-ball", "radius": 0.5}),
                 "'estimator' 'exact-2d'", id="exact-2d-n3"),
    pytest.param(smoke_with("moments", body={"type": "cube", "side": 1.0, "n": 4}),
                 "'estimator' 'exact-2d'", id="exact-2d-4d-body"),
    pytest.param(smoke_with("moments", j=3), "j must satisfy", id="moments-j-above-n"),
    pytest.param(smoke_with("dominance-cube", density={"type": "uniform-box", "side": 1.0}),
                 "product density", id="cube-needs-product"),
    pytest.param(smoke_with("hull-bridge", density_a={"type": "uniform-ball", "radius": 0.5, "n": 3}),
                 "params.density_a: dimension", id="hull-bridge-3d-density"),
    pytest.param(smoke_with("wulff-convergence", probe_size=-4), "probe_size",
                 id="probe-size-negative"),
    pytest.param(smoke_with("wulff-convergence", f={"type": "support-cube", "side": "x"}),
                 "key 'side'", id="support-cube-side-string"),
    pytest.param(smoke_with("vr-asymptotics", probe_size=256), "unknown key 'probe_size'",
                 id="vr-probe-size-ignored"),
    pytest.param(smoke_with("vr-asymptotics", f={"type": "support-ball", "side": 2.0}),
                 "unknown key 'side'", id="support-ball-side-ignored"),
    pytest.param(smoke_with("gorbovickis", R=10.0), "'R_list', not both", id="R-and-R-list"),
    pytest.param({**smoke_doc("selftest"), "seed": -1}, "key 'seed'", id="seed-negative"),
    pytest.param(smoke_with("dominance-ball", density={"type": "uniform-ball", "radius": 10**400}),
                 "key 'radius'", id="radius-beyond-float"),
    # R against the largest value of the boundary function (or support
    # function) on the grid the run builds: these used to exit 3 mid-run.
    pytest.param({"kind": "vr-asymptotics", "seed": 1, "params": {
        "f": {"type": "support-cube", "side": 1.0}, "R_list": [0.1, 0.2]}},
        "key 'R_list'", id="vr-R-below-max-f"),
    pytest.param({"kind": "wulff-convergence", "seed": 1, "params": {
        "f": {"type": "support-cube", "side": 1.0}, "R_list": [0.5, 10.0]}},
        "key 'R_list'", id="wulff-R-below-max-f"),
    pytest.param(smoke_with("moments", body={"type": "polytope", "vertices": [[1, 1], [2, 1], [1, 2]]}),
                 "params.body: the body must contain the origin", id="moments-origin-outside"),
    pytest.param(smoke_with("moments", body={"type": "cube", "side": 1.0, "n": 2}, R=0.5),
                 "key 'R'", id="moments-R-below-max-support"),
    # A boundary function that vanishes somewhere (a centred segment's
    # support function reads 3e-17 at its normals on the grid): the
    # Wulff run used to exit 3 in Qhull, and the moments run ran with
    # the origin on the body's boundary.
    pytest.param(smoke_with("wulff-convergence", f={"type": "support-segment"}),
                 "params.f: the body must contain the origin", id="wulff-segment-f"),
    pytest.param(smoke_with("moments", body={"type": "segment", "a": [-0.5, 0.0],
                                             "b": [0.5, 0.0], "grid_size": 256}),
                 "params.body: the body must contain the origin", id="moments-segment-body"),
    # The planar deficit is exact; a sample budget used to switch it to
    # a Monte-Carlo estimate.
    pytest.param(smoke_with("gorbovickis", samples=100), "key 'samples'",
                 id="planar-gorbovickis-samples"),
]


class TestValidation:
    @pytest.mark.parametrize("p_list", [[], [0], ["abc"], [1.0, float("inf")],
                                        [float("nan")], [True]])
    def test_bad_p_list_exits_2(self, p_list, tmp_path, capsys):
        assert run_main(moments_doc(p_list), tmp_path) == 2
        assert "p_list" in capsys.readouterr().err

    @pytest.mark.parametrize("R_list", [[], [-1.0], [10.0, "x"]])
    def test_bad_R_list_exits_2(self, R_list, tmp_path, capsys):
        assert run_main(gorbovickis_doc(R_list), tmp_path) == 2
        assert "R_list" in capsys.readouterr().err

    @pytest.mark.parametrize("params", [
        {"points": [[0, 0], [1]]},
        {"points": [[0, 0], [1, "x"]]},
        {"points": [[]]},
        {"points": [1.0, 2.0]},
        {"points": [[0.0, 0.0], [1.0, float("nan")]]},
        {"points": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]},
        {"points": [[0.0, 0.0], [True, 0.0]]},
    ])
    def test_bad_points_exits_2(self, params, tmp_path, capsys):
        doc = {"kind": "gorbovickis", "seed": 1, "params": {**params, "R": 10.0}}
        assert run_main(doc, tmp_path) == 2
        assert "points" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["x", -1, 2.5, True])
    def test_bad_samples_exits_2(self, samples, tmp_path, capsys):
        doc = {"kind": "gorbovickis", "seed": 1,
               "params": {"points": [[0.0, 0.0], [1.0, 0.0]], "R": 10.0, "samples": samples}}
        assert run_main(doc, tmp_path) == 2
        assert "samples" in capsys.readouterr().err

    @pytest.mark.parametrize("fit_samples", ["x", -5, 0, 2.5, True])
    @pytest.mark.parametrize("kind", ["dominance-ball", "moments"])
    def test_bad_fit_samples_exits_2(self, kind, fit_samples, tmp_path, capsys):
        doc = smoke_doc(kind)
        doc["params"] = {**doc["params"], "estimator": "steiner-fit", "fit_samples": fit_samples}
        assert run_main(doc, tmp_path) == 2
        assert "fit_samples" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["dominance-ball", "moments"])
    def test_unknown_estimator_exits_2(self, kind, tmp_path, capsys):
        doc = smoke_doc(kind)
        doc["params"] = {**doc["params"], "estimator": "exact2d"}
        assert run_main(doc, tmp_path) == 2
        assert "estimator" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["dominance-ball", "moments"])
    def test_fit_samples_accepted(self, kind):
        doc = smoke_doc(kind)
        doc["params"] = {**doc["params"], "estimator": "steiner-fit", "fit_samples": 2000}
        config.validate(doc)

    @pytest.mark.parametrize("kind, params, key", [
        ("minimize", {"body": CUBE_3D, "j": 2, "N": 4, "estimator": "steiner-fit"},
         "'estimator' must be 'exact-hull-3d'"),
        ("minimize", {"body": SQUARE, "j": 2, "N": 4, "estimator": "steiner-fit"},
         "'estimator' must be 'exact-2d'"),
        ("minimize", {"body": CUBE_3D, "j": 2, "N": 4, "fit_samples": 2000}, "fit_samples"),
        ("schneider", {"body": SQUARE, "j": 2, "N": 4, "final_samples": 4000},
         "final_samples"),
        ("minimize", {"body": CUBE_3D, "j": 3, "N": 4, "estimator": "exact-2d"},
         "'estimator' must be 'exact-hull-3d'"),
        ("simplex-bound", {"body": SQUARE, "estimator": "exact-hull-3d"},
         "'estimator' must be 'exact-2d'"),
        ("minimize", {"body": {"type": "cube", "side": 1.0, "n": 4}, "j": 2, "N": 5},
         "dimension"),
        ("minimize", {"body": {"type": "cube", "side": 1.0, "n": "3"}, "j": 2, "N": 4},
         "key 'n'"),
        ("minimize", {"body": SQUARE, "j": 3, "N": 4}, "j must satisfy"),
        ("minimize", {"body": CUBE_3D, "j": 2, "N": 3}, "N must exceed"),
        ("minimize", {"body": SQUARE, "j": 2, "N": 4, "max_fev": "x"}, "max_fev"),
        ("minimize", {"body": SQUARE, "j": 2, "N": 4, "max_fev": 0}, "max_fev"),
        ("minimize", {"body": SQUARE, "j": 2, "N": 4, "max_fev": True}, "max_fev"),
        ("schneider", {"body": SQUARE, "j": 2, "N": 4, "max_fev": 40}, "max_fev"),
        ("simplex-bound", {"body": SQUARE, "max_fev": 40}, "max_fev"),
        ("minimize", {"body": SQUARE, "j": 2, "N": 4, "grid_size": 256}, "grid_size"),
        ("schneider", {"body": SQUARE, "j": 2, "N": 4, "grid_size": 256}, "grid_size"),
        ("simplex-bound", {"body": SQUARE, "grid_size": 256}, "grid_size"),
        ("minimize", {"body": SQUARE, "j": 2, "N": 4, "restarts": True}, "'restarts' must be int"),
        ("minimize", {"body": SQUARE, "j": 2, "N": True}, "'N' must be int"),
        ("schneider", {"body": SQUARE, "j": True, "N": 4}, "'j' must be int"),
    ])
    def test_bad_circumscription_exits_2(self, kind, params, key, tmp_path, capsys):
        assert run_main({"kind": kind, "seed": 1, "params": params}, tmp_path) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["N", "j", "trials"])
    def test_boolean_moments_key_exits_2(self, key, tmp_path, capsys):
        doc = moments_doc([1])
        doc["params"][key] = True
        assert run_main(doc, tmp_path) == 2
        assert f"key '{key}' must be int, got bool" in capsys.readouterr().err

    def test_boolean_radius_exits_2(self, tmp_path, capsys):
        doc = smoke_doc("vr-asymptotics")
        doc["params"] = {**doc["params"], "R_list": [True, 10.0]}
        assert run_main(doc, tmp_path) == 2
        assert "R_list" in capsys.readouterr().err

    def test_moments_grid_size_exits_2(self, tmp_path, capsys):
        doc = moments_doc([1])
        doc["params"]["grid_size"] = 1024
        assert run_main(doc, tmp_path) == 2
        assert "grid_size" in capsys.readouterr().err

    def test_R_checked_on_the_runs_grid(self, tmp_path, capsys):
        # On 12 directions the cube's max support is 0.683, not sqrt(2)/2.
        doc = {"kind": "vr-asymptotics", "seed": 1, "params": {
            "f": {"type": "support-cube", "side": 1.0}, "R_list": [0.69, 1.0]}}
        assert run_main(doc, tmp_path) == 2
        assert "R_list" in capsys.readouterr().err
        doc["params"]["grid_size"] = 12
        assert run_main(doc, tmp_path) == 0

    def test_circumscription_estimator_optional(self):
        config.validate({"kind": "minimize", "seed": 1,
                         "params": {"body": SQUARE, "j": 2, "N": 4, "estimator": "exact-2d"}})
        config.validate({"kind": "schneider", "seed": 1,
                         "params": {"body": CUBE_3D, "j": 3, "N": 4,
                                    "estimator": "exact-hull-3d"}})

    def test_three_dimensional_points_need_samples(self):
        config.validate({"kind": "gorbovickis", "seed": 1, "params": {
            "points": [[0, 0, 0], [1, 0, 0]], "R": 10.0, "samples": 100}})

    def test_minus_infinity_accepted(self):
        config.validate(moments_doc(["-inf", float("-inf"), -1, 2.5]))
        config.validate(gorbovickis_doc([10, 20.0]))

    @pytest.mark.parametrize("doc, fragment", BAD_CONFIGS)
    def test_bad_config_exits_2(self, doc, fragment, tmp_path, capsys):
        assert run_main(doc, tmp_path) == 2
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("density", [
        {"type": "uniform-box", "lo": [0.0, -1.0], "hi": [1.0, 0.0]},
        {"type": "uniform-ball", "radius": 0.5, "center": [0.1, 0.0], "n": 2},
        {"type": "radial-step", "radii": [1.0], "heights": [1.0 / math.pi]},
        {"type": "product", "factors": [{"type": "uniform-box", "side": 1.0}, UNIT_BOX]},
    ])
    def test_density_specs_accepted(self, density):
        config.validate(smoke_with("dominance-ball", density=density))

    @pytest.mark.parametrize("out", ["file", "file/out"])
    def test_unusable_out_exits_2_before_the_run(self, out, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        # The last --out wins over the one run_main passes.
        assert run_main(smoke_doc("selftest"), tmp_path, "--out", str(tmp_path / out)) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "running" not in err

    @pytest.mark.parametrize("argv, env", [
        (["--workers", "0"], None), (["--workers", "-3"], None), ([], "abc"), ([], "0"),
    ])
    def test_bad_workers_exits_2(self, argv, env, tmp_path, capsys, monkeypatch):
        if env is not None:
            monkeypatch.setenv("BALLPOLY_WORKERS", env)
        assert run_main({"kind": "selftest", "seed": 0}, tmp_path, *argv) == 2
        assert "workers" in capsys.readouterr().err

    def test_overrides_are_validated_with_the_document(self, tmp_path, capsys):
        doc = smoke_doc("minimize")
        assert run_main(doc, tmp_path, "--kind", "simplex-bound") == 2
        assert "unknown key 'j'" in capsys.readouterr().err
        assert run_main(doc, tmp_path, "--kind", "schneider", "--seed", "-2") == 2
        assert "key 'seed'" in capsys.readouterr().err


def _keys_read(fn) -> set:
    """Constant keys of ``p`` read in a function: p[k], p.get(k, ...), k in p."""
    def is_p(node):
        return isinstance(node, ast.Name) and node.id == "p"

    keys = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript) and is_p(node.value):
            keys.add(node.slice.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and is_p(node.func.value)):
            keys.add(node.args[0].value)
        elif isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.In) \
                and is_p(node.comparators[0]):
            keys.add(node.left.value)
    return keys


class TestSchemaTables:
    # Declared keys no runner reads: the circumscription estimator is only
    # checked against the body's dimension, and a Wulff kind's grid_size
    # is consumed by validation, which builds f on that grid.
    UNREAD = {"minimize": {"estimator"}, "schneider": {"estimator"},
              "simplex-bound": {"estimator"},
              "wulff-convergence": {"grid_size"}, "vr-asymptotics": {"grid_size"}}

    def test_runners_read_exactly_the_declared_keys(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "_RUNNERS"]
        runners = {}
        for key, value in zip(table.keys, table.values):
            call = value.body if isinstance(value, ast.Lambda) else value
            runners[key.value] = functions[getattr(call, "func", call).id]
        assert set(runners) == set(config.PARAMS) == set(config.KINDS)
        for kind, fn in runners.items():
            read, declared = _keys_read(fn), set(config.PARAMS[kind])
            assert read <= declared, f"{kind}: {fn.name} reads undeclared {read - declared}"
            assert declared - read == self.UNREAD.get(kind, set()), f"{kind}: unread keys"


class TestBuildOnce:
    @pytest.mark.parametrize("name", ["moments", "minimize", "vr-asymptotics", "hull-bridge"])
    def test_validate_and_run_build_each_spec_once(self, name, monkeypatch):
        built = Counter()
        depth = [0]  # a builder's own nested builds are part of its one build

        def counting(builder):
            def wrapper(spec, *args):
                if depth[0] == 0:
                    built[json.dumps(spec, sort_keys=True)] += 1
                depth[0] += 1
                try:
                    return builder(spec, *args)
                finally:
                    depth[0] -= 1
            return wrapper

        for family, (tables, builder) in list(config._SPECS.items()):
            monkeypatch.setitem(config._SPECS, family, (tables, counting(builder)))
        for module in (config, cli):
            for attr in ("build_density", "build_body", "build_spherical_function"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, counting(getattr(module, attr)))
        cli.run(config.validate(smoke_doc(name)))
        specs = [v for v in SMOKE[name].values() if isinstance(v, dict)]
        assert built == Counter(json.dumps(spec, sort_keys=True) for spec in specs)


class TestMoments:
    def test_margins_match_per_p_compare(self):
        # The CLI scores every p from one set of trials; each p must
        # equal a separate moment_compare run bit for bit.
        p_list = [-1, 2, "-inf"]
        cfg = config.validate(moments_doc(p_list))
        record = cli.run(cfg)
        body = build_body(cfg.params["body"])
        expected = [
            dm.moment_compare(body, R=6.0, N=3, j=2, p=float(p), trials=200, seed=23)
            for p in p_list
        ]
        assert record.metrics["margins"] == [r.margin for r in expected]
        assert record.metrics["combined_stderrs"] == [r.combined_stderr for r in expected]
        assert record.failed_trials == 0

    def test_workers_give_the_same_metrics(self, tmp_path, monkeypatch):
        # Trial values depend only on the seed and the trial index, so a
        # forked run must reproduce the single-process metrics bit for bit.
        contexts = []
        get_context = dm.mp.get_context

        def spy(method=None):
            contexts.append(method)
            return get_context(method)

        monkeypatch.setattr(dm.mp, "get_context", spy)
        metrics = {}
        for workers in (1, 2):
            out = tmp_path / str(workers)
            out.mkdir()
            assert run_main(moments_doc([1, -1, "-inf"]), out, "--workers", str(workers)) == 0
            (summary,) = (out / "out").glob("*.summary.yaml")
            metrics[workers] = yaml.safe_load(summary.read_text())["record"]["metrics"]
            assert contexts == (["fork", "fork"] if workers == 2 else [])
        assert metrics[2] == metrics[1]


class TestRecord:
    def test_summary_carries_rng_contract(self, tmp_path):
        assert RNG_CONTRACT == 2
        assert run_main({"kind": "selftest", "seed": 0}, tmp_path) == 0
        (summary,) = (tmp_path / "out").glob("*.summary.yaml")
        doc = yaml.safe_load(summary.read_text())
        assert doc["record"]["rng_contract"] == 2


class TestSmoke:
    @pytest.mark.parametrize("name", sorted(SMOKE))
    def test_kind_runs_end_to_end(self, name, tmp_path, capsys):
        assert run_main(smoke_doc(name), tmp_path) == 0
        (summary,) = (tmp_path / "out").glob("*.summary.yaml")
        doc = yaml.safe_load(summary.read_text())
        assert doc["record"]["rng_contract"] == 2
        reloaded = config.validate(config.read_document(str(summary)))
        assert results.config_hash(reloaded) == doc["record"]["config_hash"]
        err = capsys.readouterr().err
        for key in doc["record"]["metrics"]:
            assert f"{key}=" in err

    def test_repeated_point_leaves_gorbovickis_unchanged(self, tmp_path):
        # A repeated centre is the same disk: it must not count twice in
        # the planar volume.
        metrics = []
        for i, points in enumerate(([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                                    [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])):
            doc = {"kind": "gorbovickis", "seed": 1,
                   "params": {"points": points, "R_list": [10.0]}}
            (tmp_path / str(i)).mkdir()
            assert run_main(doc, tmp_path / str(i)) == 0
            (summary,) = (tmp_path / str(i) / "out").glob("*.summary.yaml")
            metrics.append(yaml.safe_load(summary.read_text())["record"]["metrics"])
        assert metrics[1].keys() == metrics[0].keys()
        for key, value in metrics[0].items():
            if isinstance(value, float):
                assert metrics[1][key] == pytest.approx(value, rel=1e-12, abs=1e-12), key
            else:
                assert metrics[1][key] == value, key


# Kinds that call neither Nelder-Mead nor Qhull, so a run of one must not
# import scipy, which more than doubles a cold start's time and memory.
SCIPY_FREE = ["dominance-ball", "dominance-cube", "moments", "gorbovickis", "hull-bridge",
              "vr-asymptotics", "vr-asymptotics/constant"]

SCIPY_PROBE = textwrap.dedent("""
    import importlib, json, pkgutil, sys
    import ballpoly
    from ballpoly import cli
    for module in pkgutil.iter_modules(ballpoly.__path__):
        importlib.import_module("ballpoly." + module.name)
    for i, path in enumerate(sys.argv[1:]):
        assert cli.main([path, "--out", f"out{i}"]) == 0, path
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
""")


class TestColdStart:
    def test_scipy_free_kinds_do_not_import_scipy(self, tmp_path):
        # A fresh interpreter: this test process has scipy loaded already.
        paths = []
        for name in SCIPY_FREE:
            path = tmp_path / (name.replace("/", "-") + ".yaml")
            path.write_text(yaml.safe_dump(smoke_doc(name)))
            paths.append(str(path))
        src = str(Path(ballpoly.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *paths], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []


class TestDigest:
    def test_one_sha256_per_config_over_the_record(self, capsys):
        spec = importlib.util.spec_from_file_location(
            "digest", Path(__file__).resolve().parent.parent / "tools" / "digest.py")
        digest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digest)
        names = ["gorbovickis", "vr-asymptotics/constant"]
        assert digest.main(names) == 0
        lines = [line.split("  ") for line in capsys.readouterr().out.splitlines()]
        assert [name for _, name in lines] == names
        assert all(len(d) == 64 and set(d) <= set("0123456789abcdef") for d, _ in lines)
        record = cli.run(config.validate(smoke_doc("gorbovickis")))
        assert digest.digest(record) == lines[0][0]
        # One ulp in one metric changes the digest.
        record.metrics["volume"] = math.nextafter(record.metrics["volume"], math.inf)
        assert digest.digest(record) != lines[0][0]
