"""The command line: config validation exit codes, the moments kind and
the written result record."""

import math

import pytest
import yaml

from ballpoly import cli, config
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
