"""The command line: config validation exit codes, the moments kind, the
written result record, and every kind run end to end on a tiny budget."""

import math

import pytest
import yaml

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


def run_main(doc, tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return cli.main([str(path), "--out", str(tmp_path / "out")])


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
    ])
    def test_bad_circumscription_exits_2(self, kind, params, key, tmp_path, capsys):
        assert run_main({"kind": kind, "seed": 1, "params": params}, tmp_path) == 2
        assert key in capsys.readouterr().err

    def test_moments_grid_size_exits_2(self, tmp_path, capsys):
        doc = moments_doc([1])
        doc["params"]["grid_size"] = 1024
        assert run_main(doc, tmp_path) == 2
        assert "grid_size" in capsys.readouterr().err

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
        assert results.config_hash(config.load_config(str(summary))) == doc["record"]["config_hash"]
        err = capsys.readouterr().err
        for key in doc["record"]["metrics"]:
            assert f"{key}=" in err
