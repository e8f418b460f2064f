"""The command line: config validation exit codes, the moments kind, the
written result record, every kind run end to end on a tiny budget, and
the kinds that run without importing scipy."""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import math
import multiprocessing
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
from ballpoly import extremal as ex
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

# One tiny config per kind, plus the 3-D circumscription kinds, the
# simplex case of ``schneider``, a constant boundary function (a ball's
# support function), a 3-D boundary function, a 3-D ``gorbovickis``, a
# circumscription search whose restarts end in different rounds, and
# configs that set the keys and spec types no other smoke config or
# benchmark workload sets, each run through ``cli.main``.
SMOKE = {
    "dominance-ball": {"n": 2, "N": 3, "R": 3.0, "j": 2, "trials": 100,
                       "density": {"type": "uniform-box", "side": 1.0}},
    # 3-D trials scored by the expansion-volume fit, centres uniform on
    # the volume-one ball.
    "dominance-ball/steiner-3d": {"n": 3, "N": 3, "R": 1.0, "j": 3, "trials": 100,
                                  "estimator": "steiner-fit", "fit_samples": 2000,
                                  "density": {"type": "uniform-ball", "n": 3,
                                              "radius": (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)}},
    "dominance-cube": {"n": 2, "N": 3, "R": 3.0, "j": 2, "trials": 100,
                       "density": {"type": "product", "factors": [UNIT_BOX, UNIT_BOX]}},
    "moments": {"body": SQUARE, "R": 6.0, "N": 3, "j": 2, "p_list": [1, -1], "trials": 100},
    "wulff-convergence": {"f": {"type": "cube", "side": 1.0, "grid_size": 64},
                          "R_list": [5.0, 10.0], "probe_size": 256},
    "vr-asymptotics": {"f": {"type": "cube", "side": 1.0, "grid_size": 256},
                       "R_list": [5.0, 10.0]},
    "minimize": {"body": SQUARE, "j": 2, "N": 3, "restarts": 2, "max_fev": 40},
    # Six restarts in lockstep; one converges after 293 evaluations, the
    # others spend the budget of 400.
    "minimize/lockstep": {"body": SQUARE, "j": 1, "N": 4, "restarts": 6, "max_fev": 400},
    "schneider": {"body": SQUARE, "j": 2, "N": 4, "restarts": 1},
    "gorbovickis": {"points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], "R_list": [10.0, 20.0]},
    # In 3-D the volume is a hit-or-miss estimate.
    "gorbovickis/3d": {"points": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                  [0.0, 0.0, 1.0]],
                       "R_list": [10.0, 20.0], "samples": 20000},
    "hull-bridge": {"N": 3, "trials": 100, "R": 10.0,
                    "density_a": {"type": "uniform-box", "side": 1.0},
                    "density_b": {"type": "uniform-ball", "radius": 0.5}},
    "minimize/exact-hull-3d": {"body": CUBE_3D, "j": 3, "N": 4, "estimator": "exact-hull-3d",
                               "restarts": 1, "max_fev": 40},
    "minimize/3d-j2": {"body": CUBE_3D, "j": 2, "N": 4, "restarts": 1, "max_fev": 40},
    "schneider/3d": {"body": CUBE_3D, "j": 3, "N": 4, "restarts": 1},
    # j = n, N = n + 1: the minimal circumscribed simplex against its
    # closed-form bound.
    "schneider/simplex": {"body": SQUARE, "j": 2, "N": 3, "restarts": 1},
    "vr-asymptotics/constant": {"f": {"type": "ball", "radius": 1.0, "grid_size": 256},
                                "R_list": [5.0, 10.0]},
    "vr-asymptotics/3d": {"f": CUBE_3D, "R_list": [5.0, 10.0]},
    # Two shells of mass 0.2 pi and 1 - 0.2 pi.
    "dominance-ball/radial-step": {
        "n": 2, "N": 3, "R": 3.0, "j": 1, "trials": 100, "alpha": 0.1,
        "density": {"type": "radial-step", "radii": [0.5, 1.0],
                    "heights": [0.8, (1.0 - 0.2 * math.pi) / (0.75 * math.pi)], "n": 2}},
    "hull-bridge/lo-hi-center": {
        "N": 3, "trials": 100, "R": 10.0,
        "density_a": {"type": "uniform-box", "lo": [-0.5, -0.5], "hi": [0.5, 0.5], "n": 2},
        "density_b": {"type": "uniform-ball", "radius": 0.5, "center": [0.1, 0.0]}},
    "moments/steiner-3d": {"body": {"type": "ball", "radius": 0.5, "n": 3, "grid_size": 256},
                           "R": 3.0, "N": 3, "j": 3, "p_list": [1], "trials": 100,
                           "estimator": "steiner-fit", "fit_samples": 1000},
    "minimize/polytope": {"body": {"type": "polytope", "vertices": [[-0.5, -0.5], [1.0, 0.0],
                                                                    [0.0, 1.0]],
                                   "grid_size": 256},
                          "j": 2, "N": 3, "restarts": 1, "max_fev": 40},
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
    pytest.param(smoke_with("wulff-convergence", f={**SQUARE, "grid_size": "x"}), "grid_size",
                 id="grid-size-string"),
    # The planar hull's mean width is exact, so hull-bridge has no grid.
    pytest.param(smoke_with("hull-bridge", grid_size=0), "unknown key 'grid_size'",
                 id="grid-size-zero"),
    # These used to fail mid-run: a ZeroDivisionError (exit 1) drawing
    # size // 2 = 0 directions in 4-D, and Qhull (exit 3) on an unbounded
    # Wulff shape.
    pytest.param(smoke_with("minimize", body={"type": "cube", "side": 1, "n": 4, "grid_size": 1}),
                 "grid_size", id="4d-body-grid-size-1"),
    *[pytest.param(smoke_with("wulff-convergence", f={**SQUARE, "grid_size": g}),
                   "params.f: key 'grid_size'", id=f"wulff-grid-size-{g}") for g in (1, 2)],
    # f is a body spec, on the spec's own grid: the old params-level
    # grid_size and boundary-function types are unknown.
    *[pytest.param(smoke_with(kind, grid_size=256), "params: unknown key 'grid_size'",
                   id=f"{kind}-params-grid-size")
      for kind in ("wulff-convergence", "vr-asymptotics")],
    pytest.param(smoke_with("vr-asymptotics", f={"type": "support-cube", "side": 1.0}),
                 "params.f: body spec must be a mapping with 'type' one of", id="old-f-type"),
    # Exited 3 mid-run (UnsupportedDimension); vr-asymptotics runs a 3-D f.
    pytest.param(smoke_with("wulff-convergence", f=CUBE_3D), "wulff-convergence is planar",
                 id="wulff-3d-f"),
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
    pytest.param(smoke_with("dominance-ball", density={"type": "uniform-ball", "radius": 0.5,
                                                       "n": 3}),
                 "params.density: dimension 3, the run needs 2", id="3d-density-n2"),
    pytest.param(smoke_with("dominance-ball", n=3, density={"type": "uniform-ball", "radius": 0.5}),
                 "'estimator' 'exact-2d'", id="exact-2d-n3"),
    # ExperimentConfig checks alpha; 2.0 used to give a band of 0.0 and
    # 3.0 a math domain error when the library was called directly.
    *[pytest.param(smoke_with("dominance-ball", alpha=alpha), "params: alpha must satisfy",
                   id=f"alpha-{alpha}") for alpha in (0, 1.0, 2.0, 3.0)],
    pytest.param(smoke_with("moments", body={"type": "cube", "side": 1.0, "n": 4}),
                 "'estimator' 'exact-2d'", id="exact-2d-4d-body"),
    pytest.param(smoke_with("moments", j=3), "j must satisfy", id="moments-j-above-n"),
    # The lower bounds on j and trials: the run's constructor checks them,
    # except for hull-bridge, which has none and keeps its table bound.
    *[pytest.param(smoke_with(kind, j=0), "j must satisfy", id=f"{kind}-j-0")
      for kind in ("dominance-ball", "moments", "minimize", "schneider")],
    *[pytest.param(smoke_with(kind, trials=99), "trials must be at least 100", id=f"{kind}-trials-99")
      for kind in ("dominance-ball", "moments")],
    pytest.param(smoke_with("hull-bridge", trials=99), "key 'trials'", id="hull-bridge-trials-99"),
    pytest.param(smoke_with("dominance-cube", density={"type": "uniform-box", "side": 1.0}),
                 "product density", id="cube-needs-product"),
    pytest.param(smoke_with("hull-bridge", density_a={"type": "uniform-ball", "radius": 0.5, "n": 3}),
                 "params.density_a: dimension", id="hull-bridge-3d-density"),
    pytest.param(smoke_with("wulff-convergence", probe_size=-4), "probe_size",
                 id="probe-size-negative"),
    pytest.param(smoke_with("wulff-convergence", f={"type": "cube", "side": "x"}),
                 "key 'side'", id="support-cube-side-string"),
    pytest.param(smoke_with("vr-asymptotics", probe_size=256), "unknown key 'probe_size'",
                 id="vr-probe-size-ignored"),
    pytest.param(smoke_with("vr-asymptotics", f={"type": "ball", "radius": 1.0, "side": 2.0}),
                 "unknown key 'side'", id="support-ball-side-ignored"),
    pytest.param(smoke_with("gorbovickis", R=10.0), "unknown key 'R'", id="R-and-R-list"),
    pytest.param({**smoke_doc("gorbovickis"), "seed": -1}, "key 'seed'", id="seed-negative"),
    pytest.param({"kind": "selftest", "seed": 0}, "key 'kind'", id="selftest-kind"),
    pytest.param(smoke_with("dominance-ball", density={"type": "uniform-ball", "radius": 10**400}),
                 "key 'radius'", id="radius-beyond-float"),
    # A radius whose ball volume omega_n R^n is no finite float: these
    # used to fail mid-run (an OverflowError, a ZeroDivisionError, curves
    # on different s-grids) or write infinite residuals. Every kind whose
    # table takes a radius is covered; 1e110 overflows only in 3-D.
    *[pytest.param(smoke_with(kind, **{key: [1e200, 1e201] if key == "R_list" else 1e200}),
                   f"params: key '{key}': the volume of a ball of radius 1e+200 in dimension",
                   id=f"{kind}-{key}-overflow")
      for kind, table in config.PARAMS.items() for key in ("R", "R_list") if key in table],
    # Radii at which the planar deficit had lost its digits: the bridge
    # read deficit_mean 5.8e7 for a mean width of 0.5, and gorbovickis a
    # coefficient of 0.0, both with exit 0.
    pytest.param(smoke_with("hull-bridge", R=1e12),
                 "params: key 'R': radius 1000000000000.0 is above 1e+07 times 1/sqrt(sup)",
                 id="hull-bridge-R-beyond-deficit-digits"),
    pytest.param(smoke_with("gorbovickis", R_list=[1e110, 2e110]),
                 "params: key 'R_list': radius 2e+110 is above 1e+07 times the points' diameter",
                 id="gorbovickis-R-list-beyond-deficit-digits"),
    pytest.param(smoke_with("gorbovickis/3d", R_list=[10.0, 1e110]),
                 "params: key 'R_list': the volume of a ball of radius 1e+110 in dimension 3",
                 id="gorbovickis-3d-R-list-overflow"),
    # Off the plane the deficit is a hit-or-miss estimate: with 20,000
    # samples no sample missed at R = 1e5, and the run exited 0 with a
    # deficit of 0.0 +- 0.0.
    pytest.param(smoke_with("gorbovickis/3d", R_list=[100000.0]),
                 "params: key 'R_list': radius 100000.0 leaves about 0.212 expected hit-or-miss "
                 "misses", id="gorbovickis-3d-R-list-beyond-misses"),
    # R against the largest value of the boundary function (or support
    # function) on the grid the run builds: these used to exit 3 mid-run.
    pytest.param({"kind": "vr-asymptotics", "seed": 1, "params": {
        "f": {"type": "cube", "side": 1.0}, "R_list": [0.1, 0.2]}},
        "key 'R_list'", id="vr-R-below-max-f"),
    pytest.param({"kind": "wulff-convergence", "seed": 1, "params": {
        "f": {"type": "cube", "side": 1.0}, "R_list": [0.5, 10.0]}},
        "key 'R_list'", id="wulff-R-below-max-f"),
    pytest.param(smoke_with("moments", body={"type": "polytope", "vertices": [[1, 1], [2, 1], [1, 2]]}),
                 "params.body: the body must contain the origin", id="moments-origin-outside"),
    pytest.param(smoke_with("moments", body={"type": "cube", "side": 1.0, "n": 2}, R=0.5),
                 "key 'R'", id="moments-R-below-max-support"),
    # A boundary function that vanishes somewhere (a centred segment's
    # support function reads 3e-17 at its normals on the grid): the
    # Wulff run used to exit 3 in Qhull, and the moments run ran with
    # the origin on the body's boundary.
    pytest.param(smoke_with("wulff-convergence", f={"type": "polytope",
                                                    "vertices": [[-0.5, 0.0], [0.5, 0.0]]}),
                 "params.f: the body must contain the origin", id="wulff-segment-f"),
    pytest.param(smoke_with("moments", body={"type": "polytope",
                                             "vertices": [[-0.5, 0.0], [0.5, 0.0]]}),
                 "params.body: the body must contain the origin", id="moments-segment-body"),
    # The planar deficit is exact; a sample budget used to switch it to
    # a Monte-Carlo estimate.
    pytest.param(smoke_with("gorbovickis", samples=100), "key 'samples'",
                 id="planar-gorbovickis-samples"),
    # Repeated radii: the slope used to come from a rank-deficient fit.
    pytest.param(smoke_with("wulff-convergence", R_list=[5.0, 5.0]), "key 'R_list'",
                 id="wulff-R-list-repeated"),
    pytest.param(smoke_with("vr-asymptotics", R_list=[5.0, 5.0]), "key 'R_list'",
                 id="vr-R-list-repeated"),
]


def numbered(number, kind, params, key):
    """A ``test_bad_circumscription_exits_2`` case whose id carries a
    fixed number, so that deleting a case renames no other."""
    return pytest.param(kind, params, key, id=f"{kind}-params{number}-{key}")


class TestValidation:
    @pytest.mark.parametrize("p_list", [
        pytest.param([], id="p_list0"),
        pytest.param([0], id="p_list1"),
        pytest.param(["abc"], id="p_list2"),
        pytest.param([1.0, float("inf")], id="p_list3"),
        pytest.param([float("nan")], id="p_list4"),
        pytest.param([True], id="p_list5"),
    ])
    def test_bad_p_list_exits_2(self, p_list, tmp_path, capsys):
        assert run_main(moments_doc(p_list), tmp_path) == 2
        assert "p_list" in capsys.readouterr().err

    @pytest.mark.parametrize("R_list", [
        pytest.param([], id="R_list0"),
        pytest.param([-1.0], id="R_list1"),
        pytest.param([10.0, "x"], id="R_list2"),
    ])
    def test_bad_R_list_exits_2(self, R_list, tmp_path, capsys):
        assert run_main(gorbovickis_doc(R_list), tmp_path) == 2
        assert "R_list" in capsys.readouterr().err

    @pytest.mark.parametrize("points, R", [
        ([[0.0, 0.0], [3.0, 4.0]], 5e7),  # 1e7 times the diameter
        ([[1.0, 2.0], [1.0, 2.0]], 1e100),  # coincident points: no deficit to lose
    ])
    def test_deficit_radius_bound_is_inclusive_and_scaled(self, points, R):
        config.validate({"kind": "gorbovickis", "seed": 1,
                         "params": {"points": points, "R_list": [R]}})

    @pytest.mark.parametrize("params", [
        pytest.param({"points": [[0, 0], [1]]}, id="params0"),
        pytest.param({"points": [[0, 0], [1, "x"]]}, id="params1"),
        pytest.param({"points": [[]]}, id="params2"),
        pytest.param({"points": [1.0, 2.0]}, id="params3"),
        pytest.param({"points": [[0.0, 0.0], [1.0, float("nan")]]}, id="params4"),
        pytest.param({"points": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]}, id="params5"),
        pytest.param({"points": [[0.0, 0.0], [True, 0.0]]}, id="params6"),
    ])
    def test_bad_points_exits_2(self, params, tmp_path, capsys):
        doc = {"kind": "gorbovickis", "seed": 1, "params": {**params, "R_list": [10.0]}}
        assert run_main(doc, tmp_path) == 2
        assert "points" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["x", -1, 2.5, True])
    def test_bad_samples_exits_2(self, samples, tmp_path, capsys):
        doc = {"kind": "gorbovickis", "seed": 1,
               "params": {"points": [[0.0, 0.0], [1.0, 0.0]], "R_list": [10.0],
                          "samples": samples}}
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
        numbered(0, "minimize", {"body": CUBE_3D, "j": 2, "N": 4, "estimator": "steiner-fit"},
                 "'estimator' must be 'exact-hull-3d'"),
        numbered(1, "minimize", {"body": SQUARE, "j": 2, "N": 4, "estimator": "steiner-fit"},
                 "'estimator' must be 'exact-2d'"),
        numbered(2, "minimize", {"body": CUBE_3D, "j": 2, "N": 4, "fit_samples": 2000},
                 "fit_samples"),
        numbered(3, "schneider", {"body": SQUARE, "j": 2, "N": 4, "final_samples": 4000},
                 "final_samples"),
        numbered(4, "minimize", {"body": CUBE_3D, "j": 3, "N": 4, "estimator": "exact-2d"},
                 "'estimator' must be 'exact-hull-3d'"),
        # The simplex case of schneider (j = n, N = n + 1) names j and N
        # and passes the same checks as any other.
        numbered(5, "schneider", {"body": SQUARE, "j": 2, "N": 3, "estimator": "exact-hull-3d"},
                 "'estimator' must be 'exact-2d'"),
        numbered(6, "minimize", {"body": {"type": "cube", "side": 1.0, "n": 4}, "j": 2, "N": 5},
                 "dimension"),
        numbered(7, "minimize", {"body": {"type": "cube", "side": 1.0, "n": "3"}, "j": 2, "N": 4},
                 "key 'n'"),
        numbered(8, "minimize", {"body": SQUARE, "j": 3, "N": 4}, "j must satisfy"),
        numbered(9, "minimize", {"body": CUBE_3D, "j": 2, "N": 3}, "N must exceed"),
        numbered(10, "minimize", {"body": SQUARE, "j": 2, "N": 4, "max_fev": "x"}, "max_fev"),
        numbered(11, "minimize", {"body": SQUARE, "j": 2, "N": 4, "max_fev": 0}, "max_fev"),
        numbered(12, "minimize", {"body": SQUARE, "j": 2, "N": 4, "max_fev": True}, "max_fev"),
        numbered(13, "schneider", {"body": SQUARE, "j": 2, "N": 4, "max_fev": 40}, "max_fev"),
        numbered(14, "schneider", {"body": SQUARE, "N": 3}, "missing required key 'j'"),
        numbered(15, "minimize", {"body": SQUARE, "j": 2, "N": 4, "grid_size": 256}, "grid_size"),
        numbered(16, "schneider", {"body": SQUARE, "j": 2, "N": 4, "grid_size": 256},
                 "grid_size"),
        numbered(17, "schneider", {"body": SQUARE, "j": 2}, "missing required key 'N'"),
        numbered(18, "minimize", {"body": SQUARE, "j": 2, "N": 4, "restarts": True},
                 "'restarts' must be int"),
        numbered(19, "minimize", {"body": SQUARE, "j": 2, "N": True}, "'N' must be int"),
        numbered(20, "schneider", {"body": SQUARE, "j": True, "N": 4}, "'j' must be int"),
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
            "f": {"type": "cube", "side": 1.0}, "R_list": [0.69, 1.0]}}
        assert run_main(doc, tmp_path) == 2
        assert "R_list" in capsys.readouterr().err
        doc["params"]["f"]["grid_size"] = 12
        assert run_main(doc, tmp_path) == 0

    def test_circumscription_estimator_optional(self):
        config.validate({"kind": "minimize", "seed": 1,
                         "params": {"body": SQUARE, "j": 2, "N": 4, "estimator": "exact-2d"}})
        config.validate({"kind": "schneider", "seed": 1,
                         "params": {"body": CUBE_3D, "j": 3, "N": 4,
                                    "estimator": "exact-hull-3d"}})

    def test_expected_misses_bound_scales_with_samples(self):
        # 0.75 x samples x sqrt(2) / R is just above 5 here.
        doc = smoke_with("gorbovickis/3d", R_list=[10.0, 4200.0])
        config.validate(doc)
        doc["params"]["samples"] = 19000
        with pytest.raises(config.SchemaError, match="radius 4200.0 leaves about 4.8 expected"):
            config.validate(doc)

    def test_three_dimensional_points_need_samples(self):
        config.validate({"kind": "gorbovickis", "seed": 1, "params": {
            "points": [[0, 0, 0], [1, 0, 0]], "R_list": [10.0], "samples": 100}})

    @pytest.mark.parametrize("p", ["-inf", -math.inf], ids=["string", "yaml"])
    def test_minus_infinity_exits_2(self, p, tmp_path, capsys):
        # Integers and floats pass as moment orders and radii; minus
        # infinity is no moment order (it would compare two sample minima).
        config.validate(moments_doc([-1, 2.5]))
        config.validate(gorbovickis_doc([10, 20.0]))
        assert run_main(moments_doc([-1, p]), tmp_path) == 2
        assert "key 'p_list'" in capsys.readouterr().err

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
        assert run_main(smoke_doc("gorbovickis"), tmp_path, "--out", str(tmp_path / out)) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "running" not in err

    @pytest.mark.parametrize("argv, env", [
        (["--workers", "0"], None), (["--workers", "-3"], None), ([], "abc"), ([], "0"),
    ])
    def test_bad_workers_exits_2(self, argv, env, tmp_path, capsys, monkeypatch):
        if env is not None:
            monkeypatch.setenv("BALLPOLY_WORKERS", env)
        doc = smoke_doc("gorbovickis")
        del doc["workers"]  # so that BALLPOLY_WORKERS is read
        assert run_main(doc, tmp_path, *argv) == 2
        assert "workers" in capsys.readouterr().err

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_bytes(b"\xff\xfe" + yaml.safe_dump(smoke_doc("gorbovickis")).encode())
        assert cli.main([str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"cannot parse {path}" in capsys.readouterr().err

    def test_overrides_are_validated_with_the_document(self, tmp_path, capsys):
        doc = smoke_doc("minimize")
        assert run_main(doc, tmp_path, "--kind", "gorbovickis") == 2
        assert "unknown key 'j'" in capsys.readouterr().err
        assert run_main(doc, tmp_path, "--kind", "schneider", "--seed", "-2") == 2
        assert "key 'seed'" in capsys.readouterr().err


def _keys_read(fn) -> set:
    """Constant keys of ``p`` read in a function: p[k], p.get(k, ...),
    k in p, the keys a ``given(..., k, ...)`` call names, and for a call
    that splats ``**p``, each parameter of the callee it does not pass
    by name."""
    def is_p(node):
        return isinstance(node, ast.Name) and node.id == "p"

    imports = {alias.asname or alias.name: node.module for node in ast.walk(fn)
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    keys = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript) and is_p(node.value):
            keys.add(node.slice.value)
        elif isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.In) \
                and is_p(node.comparators[0]):
            keys.add(node.left.value)
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr == "get" \
                    and is_p(node.func.value):
                keys.add(node.args[0].value)
            elif getattr(node.func, "id", None) == "given":
                keys.update(arg.value for arg in node.args[1:])
            elif any(k.arg is None and is_p(k.value) for k in node.keywords):
                module = imports[node.func.id]
                callee = getattr(importlib.import_module(f"ballpoly.{module}"), node.func.id)
                keys.update(set(inspect.signature(callee).parameters)
                            - {k.arg for k in node.keywords})
    return keys


def _branches(fn) -> dict:
    """kind -> the top-level ``if kind == ...`` or ``if kind in (...)``
    statement of ``fn`` that runs for it."""
    branches = {}
    for node in fn.body:
        if isinstance(node, ast.If):
            test = node.test.comparators[0]
            kinds = [e.value for e in test.elts] if isinstance(test, ast.Tuple) else [test.value]
            branches.update(dict.fromkeys(kinds, node))
    return branches


def _params_setting_names() -> dict:
    """(kind, key) -> the name of that params setting. Kinds whose tables
    hold one table whole (the shared ``_DOMINANCE``, ``_WULFF`` and
    ``_CIRCUMSCRIPTION``) share its keys, so such a key is one setting,
    named after all of those kinds."""
    names = {}
    for kind, table in config.PARAMS.items():
        for key, entry in table.items():
            shared = min((t for t in config.PARAMS.values()
                          if t.get(key) is entry and t.items() <= table.items()), key=len)
            kinds = [k for k, t in config.PARAMS.items() if shared.items() <= t.items()]
            names[kind, key] = f"{'|'.join(kinds)}.{key}"
    return names


def _all_settings() -> set:
    """Every key of a schema table and every spec type, but the top-level
    ``out``, a deployment path."""
    settings = {f"top.{key}" for key in config.TOP if key != "out"}
    settings.update(_params_setting_names().values())
    for family, (tables, _) in config._SPECS.items():
        for t, table in tables.items():
            settings.add(f"{family} {t}")
            settings.update(f"{family} {t}.{key}" for key in table)
    return settings


def _settings_set(doc) -> set:
    """The settings a config document sets, in ``_all_settings``'s names."""
    names = _params_setting_names()
    found = {f"top.{key}" for key in doc}

    def walk(types, value):
        if isinstance(types, list):
            for item in value:
                walk(types[0], item)
        elif isinstance(types, str):
            table = config._SPECS[types][0][value["type"]]
            found.add(f"{types} {value['type']}")
            for key, v in value.items():
                if key != "type":
                    found.add(f"{types} {value['type']}.{key}")
                    walk(table[key][0], v)

    for key, value in doc["params"].items():
        found.add(names[doc["kind"], key])
        walk(config.PARAMS[doc["kind"]][key][0], value)
    return found


def _unset_settings(monkeypatch) -> set:
    """The settings that no SMOKE config and no benchmark workload's
    config document sets."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    docs = [smoke_doc(name) for name in SMOKE]
    docs += [workload().doc(0) for workload in workloads.WORKLOADS.values()]
    return _all_settings() - set().union(*map(_settings_set, docs))


class TestSchemaTables:
    def test_every_setting_is_set_by_a_smoke_config_or_a_workload(self, monkeypatch):
        # An option that nothing sets is deleted, or gets a smoke config.
        assert _unset_settings(monkeypatch) == set()

    def test_a_key_nothing_sets_is_flagged_once_per_table(self, monkeypatch):
        monkeypatch.setitem(config._DOMINANCE, "s_grid", (list, None, config.OPT))
        monkeypatch.setitem(config.BODIES, "segment", {"a": (list, None, config.REQ)})
        assert _unset_settings(monkeypatch) == {"dominance-ball|dominance-cube.s_grid",
                                                "body segment", "body segment.a"}

    def test_runners_read_exactly_the_declared_keys(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "_RUNNERS"]
        runners = {}
        for key, value in zip(table.keys, table.values):
            call = value.body if isinstance(value, ast.Lambda) else value
            runners[key.value] = functions[getattr(call, "func", call).id]
        (run_object,) = [node for node in ast.parse(Path(config.__file__).read_text()).body
                         if isinstance(node, ast.FunctionDef) and node.name == "_run_object"]
        built = _branches(run_object)
        assert set(runners) == set(config.PARAMS) == set(config.KINDS)
        assert set(built) <= set(runners)
        for kind, fn in runners.items():
            read = _keys_read(fn) | (_keys_read(built[kind]) if kind in built else set())
            declared = set(config.PARAMS[kind])
            assert read <= declared, f"{kind}: {fn.name} reads undeclared {read - declared}"
            assert read == declared, f"{kind}: unread keys {declared - read}"


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
            for attr in ("build_density", "build_body"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, counting(getattr(module, attr)))
        cli.run(config.validate(smoke_doc(name)))
        specs = [v for v in SMOKE[name].values() if isinstance(v, dict)]
        assert built == Counter(json.dumps(spec, sort_keys=True) for spec in specs)


class TestMoments:
    def test_margins_match_per_p_compare(self):
        # The CLI scores every p from one set of trials; each p must
        # equal a separate moment_compare run bit for bit.
        p_list = [-1, 2]
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
        get_context = multiprocessing.get_context

        def spy(method=None):
            contexts.append(method)
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", spy)
        metrics = {}
        for workers in (1, 2):
            out = tmp_path / str(workers)
            out.mkdir()
            assert run_main(moments_doc([1, -1]), out, "--workers", str(workers)) == 0
            (summary,) = (out / "out").glob("*.summary.yaml")
            metrics[workers] = yaml.safe_load(summary.read_text())["record"]["metrics"]
            assert contexts == (["fork", "fork"] if workers == 2 else [])
        assert metrics[2] == metrics[1]


class TestRecord:
    def test_summary_carries_rng_contract(self, tmp_path):
        assert RNG_CONTRACT == 2
        assert run_main(smoke_doc("gorbovickis"), tmp_path) == 0
        (summary,) = (tmp_path / "out").glob("*.summary.yaml")
        doc = yaml.safe_load(summary.read_text())
        assert doc["record"]["rng_contract"] == 2

    @pytest.mark.parametrize("name", sorted(SMOKE))
    def test_libyaml_summary_matches_the_python_emitter(self, name, tmp_path, monkeypatch):
        with contextlib.redirect_stderr(io.StringIO()):
            record = cli.run(config.validate(smoke_doc(name)))
        texts = []
        for dumper in (results._SUMMARY_DUMPER, yaml.SafeDumper):
            monkeypatch.setattr(results, "_SUMMARY_DUMPER", dumper)
            (summary, *_) = results.write_results(record, str(tmp_path / dumper.__name__))
            texts.append(summary.read_text())
        assert texts[0] == texts[1]


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

    def test_gorbovickis_reports_the_largest_radius_in_any_order(self):
        records = [cli.run(config.validate(gorbovickis_doc(R_list)))
                   for R_list in ([10.0, 20.0, 15.0], [20.0, 15.0, 10.0])]
        assert records[1].metrics == records[0].metrics
        assert records[1].curves[0].rows == records[0].curves[0].rows
        assert [row[0] for row in records[0].curves[0].rows] == [10.0, 15.0, 20.0]
        largest = cli.run(config.validate(gorbovickis_doc([20.0])))
        assert records[0].metrics == largest.metrics

    def test_schneider_simplex_is_the_closed_form_bound(self):
        # The smallest triangle around a unit square has area 2; the
        # ball of the square's mean width w needs m(B) * (w/2)^2.
        cfg = config.validate(smoke_doc("schneider/simplex"))
        metrics = cli.run(cfg).metrics
        w = cfg.built["body"].mean_width()
        assert metrics["lhs"] == pytest.approx(2.0, abs=1e-9)
        assert metrics["rhs"] == ex.simplex_circumscription_minimum(2) * (w / 2.0) ** 2
        assert metrics["rhs_source"].startswith("closed-form regular simplex")
        assert metrics["margin"] == metrics["rhs"] - metrics["lhs"]


# Kinds that call no Qhull, so a run of one must not import scipy, which
# more than doubles a cold start's time and memory. The circumscription
# search and the planar clipper are plain floats, so the planar
# circumscription kinds and the Wulff shape qualify.
SCIPY_FREE = ["dominance-ball", "dominance-ball/steiner-3d", "dominance-ball/radial-step",
              "dominance-cube", "moments", "moments/steiner-3d", "gorbovickis", "gorbovickis/3d",
              "hull-bridge", "hull-bridge/lo-hi-center", "vr-asymptotics",
              "vr-asymptotics/constant", "vr-asymptotics/3d", "minimize", "minimize/lockstep",
              "minimize/polytope", "schneider", "schneider/simplex", "wulff-convergence"]

# Configs that build a hull with Qhull: 3-D circumscription.
QHULL = ["minimize/exact-hull-3d", "minimize/3d-j2", "schneider/3d"]

MODULES_PROBE = textwrap.dedent("""
    import importlib, json, pkgutil, sys
    import ballpoly
    from ballpoly import cli
    for module in pkgutil.iter_modules(ballpoly.__path__):
        importlib.import_module("ballpoly." + module.name)
    for i, path in enumerate(sys.argv[1:]):
        assert cli.main([path, "--out", f"out{i}"]) == 0, path
    print(json.dumps(sorted(sys.modules)))
""")


def probe_env() -> dict:
    src = str(Path(ballpoly.__file__).resolve().parent.parent)
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def modules_after(names, tmp_path) -> list:
    """The modules loaded by a fresh interpreter (this test process has
    scipy and multiprocessing loaded already) after it imports every
    ballpoly module and runs the smoke configs ``names``."""
    paths = []
    for name in names:
        path = tmp_path / (name.replace("/", "-") + ".yaml")
        path.write_text(yaml.safe_dump(smoke_doc(name)))
        paths.append(str(path))
    proc = subprocess.run([sys.executable, "-c", MODULES_PROBE, *paths], cwd=tmp_path,
                          env=probe_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def in_package(modules, package) -> list:
    return [m for m in modules if m.split(".")[0] == package]


@pytest.fixture(scope="module")
def scipy_free_modules(tmp_path_factory) -> list:
    return modules_after(SCIPY_FREE, tmp_path_factory.mktemp("scipy-free"))


class TestColdStart:
    def test_every_smoke_config_is_listed_once(self):
        # A new smoke config must say whether it loads Qhull, so that it
        # cannot escape the cold-start check below.
        assert not set(SCIPY_FREE) & set(QHULL)
        assert set(SMOKE) == set(SCIPY_FREE) | set(QHULL)

    def test_scipy_free_kinds_do_not_import_scipy(self, scipy_free_modules):
        assert in_package(scipy_free_modules, "scipy") == []

    def test_single_process_runs_do_not_import_multiprocessing(self, scipy_free_modules):
        # Only the pool branch of run_trials (workers > 1) needs it.
        assert in_package(scipy_free_modules, "multiprocessing") == []

    def test_scipy_free_kinds_do_not_import_numpy_ma(self, scipy_free_modules):
        # np.quantile's np.unique step would load the masked-array
        # package; the dominance grid sorts its sample once instead.
        assert [m for m in scipy_free_modules if m.split(".")[:2] == ["numpy", "ma"]] == []

    def test_3d_circumscription_loads_qhull_only(self, tmp_path):
        modules = in_package(modules_after(["minimize/exact-hull-3d"], tmp_path), "scipy")
        assert "scipy.spatial" in modules
        assert not [m for m in modules if m.startswith("scipy.optimize")]


def digest_tool():
    spec = importlib.util.spec_from_file_location(
        "digest", Path(__file__).resolve().parent.parent / "tools" / "digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


class TestDigest:
    def test_one_sha256_per_config_over_the_record(self, capsys):
        digest = digest_tool()
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

    def test_against_a_matching_output_exits_0(self, tmp_path, capsys):
        digest = digest_tool()
        names = ["gorbovickis", "vr-asymptotics/constant"]
        assert digest.main(names) == 0
        saved = tmp_path / "parent.txt"
        saved.write_text(capsys.readouterr().out)
        assert digest.main(["--against", str(saved), *names]) == 0
        out = capsys.readouterr()
        assert out.out == saved.read_text() and out.err == ""

    def test_against_a_one_ulp_move_exits_1_naming_the_config(self, tmp_path, capsys):
        digest = digest_tool()
        record = cli.run(config.validate(smoke_doc("gorbovickis")))
        record.metrics["volume"] = math.nextafter(record.metrics["volume"], math.inf)
        (constant, d), = digest.digests(["vr-asymptotics/constant"])
        saved = tmp_path / "parent.txt"
        saved.write_text(f"{digest.digest(record)}  gorbovickis\n{d}  {constant}\n")
        assert digest.main(["--against", str(saved), "gorbovickis", constant]) == 1
        err = capsys.readouterr().err
        assert "moved against" in err and "gorbovickis" in err and constant not in err

    @pytest.mark.parametrize("text", [pytest.param(None, id="missing"),
                                      pytest.param("not a digest line\n", id="malformed")])
    def test_against_an_unreadable_file_exits_2_before_any_run(self, text, tmp_path, capsys):
        digest = digest_tool()
        saved = tmp_path / "parent.txt"
        if text is not None:
            saved.write_text(text)
        assert digest.main(["--against", str(saved), "gorbovickis"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "cannot read" in out.err

    def test_unknown_name_exits_2_listing_the_known_names(self, capsys):
        digest = digest_tool()
        assert digest.main(["gorbovickis", "no-such-config"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "unknown config no-such-config" in out.err
        assert all(name in out.err for name in SMOKE)
