"""The four benchmark workloads and their correctness gates.

Each workload is one experiment config a researcher would run and wait
for. The benchmark generates the config from the workload seed; the
program receives only that config. One *rep* is one experiment: the
config is validated, run and its result written, and that span is the
rep's wall time. A run repeats reps, each with its own seed derived
from the workload seed; their number is the run's time budget over
the workload's nominal rep cost.

A workload provides:

* ``setup(seed)``: the work before the first trial (config validation,
  densities, bodies, extremizers); the benchmark times it in fresh
  processes, where it also covers the imports.
* ``execute(seed, out)``: one rep, timed.
* ``check(seed, outcome)``: the rep's gate, untimed.
* ``finish(seed)``: gates over the whole run, untimed.
* ``rep_cost_s``: a rep's nominal seconds with its gate, untraced and
  traced: its median on a 2-core shared VM over nine tenths, so that
  a run's reps fill about nine tenths of its budget there.

Gate references and tolerances live in ``references.json`` next to
this file, each with a line saying where it came from.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

from ballpoly import cli, config, densities, dominance, extremal, intrinsic, results, rng, wulff
from ballpoly.errors import NonConvergence
from ballpoly.geometry import BallPolyhedron

REFERENCES = json.loads((Path(__file__).parent / "references.json").read_text())


def rep_seed(seed: int, rep: int) -> int:
    """Experiment seed of rep ``rep`` in a run with workload seed ``seed``."""
    return int(np.random.SeedSequence((seed, rep)).generate_state(1)[0])


@dataclass
class Check:
    """Outcome of a rep's gate: units attempted and failed, the
    estimator's reported standard error for the headline quantity, and
    a message for every violated condition."""

    units: int
    failed: int = 0
    est_stderr: float = 0.0
    problems: List[str] = field(default_factory=list)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def run_cli_config(doc: dict, out: Path):
    """Validate a config document and run it the way the CLI does,
    writing the summary and curves to ``out``."""
    cfg = config.validate(doc)
    record = cli.run(cfg)
    results.write_results(record, str(out))
    return record


# ---------------------------------------------------------------------------


class PlanarDominance:
    """``dominance-ball``, n=2, N=3, R=3, j=2, uniform unit square,
    exact planar arcs: the headline planar config."""

    name = "planar-dominance"
    trials = 4000
    units = 2 * trials  # test and extremizer sides
    rep_cost_s = (2.8, 5.2)

    def __init__(self):
        self.notes: List[str] = []
        self.test_values: Dict[int, np.ndarray] = {}  # rep seed -> test-side V2

    def doc(self, seed: int) -> dict:
        return {
            "kind": "dominance-ball", "seed": seed, "workers": 1,
            "params": {
                "n": 2, "N": 3, "R": 3.0, "j": 2, "trials": self.trials,
                "estimator": "exact-2d",
                "density": {"type": "uniform-box", "side": 1.0},
            },
        }

    def _experiment(self, seed: int) -> dominance.ExperimentConfig:
        p = config.validate(self.doc(seed)).params
        return dominance.ExperimentConfig(
            n=p["n"], N=p["N"], R=p["R"], j=p["j"], trials=p["trials"], seed=seed,
            density=config.build_density(p["density"], p["n"]),
        )

    def setup(self, seed: int) -> None:
        exp = self._experiment(rep_seed(seed, 0))
        for d in exp.densities():
            densities.ball_extremizer(exp.n, max(d.sup_bound, 1.0))

    def execute(self, seed: int, out: Path):
        return run_cli_config(self.doc(seed), out)

    def check(self, seed: int, record) -> Check:
        chk = Check(units=self.units)
        chk.require(record.metrics["verdict"] == "CONSISTENT",
                    f"verdict {record.metrics['verdict']}")
        chk.require(record.failed_trials == 0, f"{record.failed_trials} failed trials")
        # The record keeps only survival curves, so the test-side values
        # are recomputed from the same trial streams.
        if seed not in self.test_values:
            self.test_values[seed] = dominance.run_trials(self._experiment(seed)).values
        values = self.test_values[seed]
        chk.est_stderr = float(np.std(values, ddof=1) / math.sqrt(values.size))
        return chk

    def finish(self, seed: int) -> List[str]:
        # One test per run on the pooled reps: a per-rep test, repeated
        # over every run, would fail by chance.
        ref = REFERENCES[self.name]
        values = np.concatenate(list(self.test_values.values()))
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1) / math.sqrt(values.size))
        tol = ref["sigmas"] * math.hypot(se, ref["mean_v2_error"])
        if abs(mean - ref["mean_v2"]) > tol:
            return [f"mean V2 {mean:.6f} over {values.size} trials, reference "
                    f"{ref['mean_v2']:.6f}, tolerance {tol:.6f}"]
        return []


class MomentsStar:
    """``moments`` on the square of mean width 1, R=6, N=9, j=2: centres
    uniform on the tangent-centre star body versus its volume ball."""

    name = "moments-star"
    trials = 150
    p_list = [-1, 2]
    units = 2 * trials * len(p_list)  # both sides, recomputed for each p
    rep_cost_s = (1.9, 3.9)

    def __init__(self):
        self.notes: List[str] = []
        self.reports: Dict[int, dict] = {}  # rep seed -> record metrics

    def doc(self, seed: int) -> dict:
        return {
            "kind": "moments", "seed": seed, "workers": 1,
            "params": {
                "body": {"type": "cube", "side": math.pi / 4.0, "n": 2},
                "R": 6.0, "N": 9, "j": 2, "p_list": list(self.p_list),
                "trials": self.trials, "estimator": "exact-2d",
            },
        }

    def setup(self, seed: int) -> None:
        p = config.validate(self.doc(rep_seed(seed, 0))).params
        body = config.build_body(p["body"])
        f = wulff.SphericalFunction.from_support_body(body)
        star = wulff.build_A(f, p["R"])
        densities.UniformBody(star)
        densities.UniformBody(densities.BallRegion(np.zeros(2), wulff.volume_radius(star)))

    def execute(self, seed: int, out: Path):
        return run_cli_config(self.doc(seed), out)

    def check(self, seed: int, record) -> Check:
        m = record.metrics
        chk = Check(units=self.units)
        chk.require(all(map(math.isfinite, m["margins"] + m["combined_stderrs"])),
                    f"non-finite margins {m['margins']} or stderrs {m['combined_stderrs']}")
        self.reports[seed] = m
        chk.est_stderr = max(m["combined_stderrs"])
        return chk

    def finish(self, seed: int) -> List[str]:
        # The CLI's verdict is a 3-sigma test per p and rep, and the
        # margins sit near zero, so over many runs it flags some rep by
        # chance. The gate pools each p's margins over the run's reps.
        sigmas = REFERENCES[self.name]["pooled_sigmas"]
        reps = list(self.reports.values())
        flagged = sum(not m["all_consistent"] for m in reps)
        self.notes.append(f"CLI verdict all_consistent false on {flagged} of {len(reps)} reps")
        problems = []
        for k, p in enumerate(self.p_list):
            margin = statistics.fmean(m["margins"][k] for m in reps)
            se = math.sqrt(sum(m["combined_stderrs"][k] ** 2 for m in reps)) / len(reps)
            self.notes.append(f"p={p}: pooled margin {margin:.4f} +- {se:.4f}")
            if margin < -sigmas * se:
                problems.append(f"p={p}: pooled margin {margin:.4f} below -{sigmas} x {se:.4f}")
        return problems


class Steiner3D:
    """3-D ball-polyhedra of N=3 unit balls, centres uniform on the
    volume-one ball, each scored by the expansion-volume fit.

    The config is the CLI's ``dominance-ball`` with ``estimator:
    steiner-fit``. That CLI path aborts on every trial (it hands the
    fit a tuple seed, and the fit adds 1 to it), so the rep draws the
    centres as the CLI does, from ``rng.stream(seed, t, i)``, and calls
    the public ``intrinsic.fit_intrinsic_volumes`` with an integer seed
    derived from the same key. Each run notes whether the CLI path
    still aborts."""

    name = "steiner-3d"
    trials = 3  # per rep: heavy-tailed trial times, so short reps and a median
    fit_samples = 20_000
    units = trials
    rep_cost_s = (1.15, 2.45)

    def __init__(self):
        self.notes: List[str] = []
        self.bad: Dict[int, int] = {}  # rep seed -> failed trials and cross-check outliers

    def doc(self, seed: int) -> dict:
        return {
            "kind": "dominance-ball", "seed": seed, "workers": 1,
            "params": {
                # trials: the CLI's minimum; a rep scores the first few.
                "n": 3, "N": 3, "R": 1.0, "j": 3, "trials": 100,
                "estimator": "steiner-fit", "fit_samples": self.fit_samples,
                "density": {"type": "uniform-ball", "n": 3,
                            "radius": (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)},
            },
        }

    def _density(self, seed: int):
        p = config.validate(self.doc(seed)).params
        return p, config.build_density(p["density"], p["n"])

    @staticmethod
    def fit_seed(seed: int, t: int) -> int:
        return int(np.random.SeedSequence((seed, t, 10_000)).generate_state(1)[0])

    def _body(self, p: dict, density, seed: int, t: int) -> BallPolyhedron:
        centers = np.vstack([density.sample(rng.stream(seed, t, i), 1)[0] for i in range(p["N"])])
        return BallPolyhedron.from_arrays(centers, p["R"])

    def setup(self, seed: int) -> None:
        seed = rep_seed(seed, 0)
        p, density = self._density(seed)
        intrinsic.EpsilonGrid.default_for(self._body(p, density, seed, 0), samples=self.fit_samples)

    def execute(self, seed: int, out: Path):
        """The rep's fits, with None for a trial whose fit raised
        NonConvergence (Dykstra left a distance query unconverged)."""
        p, density = self._density(seed)
        fits = []
        for t in range(self.trials):
            P = self._body(p, density, seed, t)
            grid = intrinsic.EpsilonGrid.default_for(P, samples=p["fit_samples"])
            try:
                fits.append(intrinsic.fit_intrinsic_volumes(P, grid, seed=self.fit_seed(seed, t)))
            except NonConvergence:
                fits.append(None)
        # Not a CLI kind: the record is written with the workload's own
        # name and the parameters actually run.
        run = config.RunConfig(kind=self.name, seed=seed,
                               params={**p, "trials": self.trials})
        done = [V for V in fits if V is not None]
        record = results.make_record(run, results.now_iso(), {
            "V3": [float(V.values[3]) for V in done],
            "V3_stderr": [float(V.stderr[3]) for V in done],
            "V3_crosscheck": [list(map(float, V.vn_crosscheck)) for V in done],
        }, failed_trials=len(fits) - len(done))
        results.write_results(record, str(out))
        return fits

    def check(self, seed: int, fits) -> Check:
        sigmas = REFERENCES[self.name]["crosscheck_sigmas"]
        chk = Check(units=self.units)
        bad = 0
        for t, V in enumerate(fits):
            if V is None:
                # The CLI's trial loop likewise counts a raising trial as
                # failed; the key lets it be replayed.
                chk.failed += 1
                bad += 1
                if seed not in self.bad:  # a traced run checks each rep twice
                    self.notes.append(f"trial {t} of rep seed {seed} raised NonConvergence "
                                      f"(centres from rng.stream({seed}, {t}, i))")
                continue
            chk.require(V.vn_crosscheck is not None, f"trial {t}: empty intersection")
            if V.vn_crosscheck is not None:
                est, se = V.vn_crosscheck
                bad += abs(V.values[3] - est) > sigmas * math.hypot(V.stderr[3], se)
        self.bad[seed] = bad
        chk.est_stderr = statistics.median(float(V.stderr[3]) for V in fits if V is not None)
        return chk

    def finish(self, seed: int) -> List[str]:
        ref = REFERENCES[self.name]
        problems = []
        self.notes.append(f"CLI steiner-fit path: {self.cli_path_status(seed)}")
        bad = sum(self.bad.values())
        trials = self.trials * len(self.bad)
        allowed = max(1, int(ref["max_bad_fraction"] * trials))
        if bad > allowed:
            problems.append(f"{bad} of {trials} trials failed or disagree with their hit-or-miss "
                            f"cross-check by more than {ref['crosscheck_sigmas']} sigma")
        # Reference body: a two-ball lens, whose volume is closed form.
        gen = rng.stream(seed, 20_000)
        d = float(gen.uniform(*ref["lens_distance_range"]))
        R = 1.0
        lens = BallPolyhedron.from_arrays([[0.0, 0.0, 0.0], [d, 0.0, 0.0]], R)
        grid = intrinsic.EpsilonGrid.default_for(lens, samples=self.fit_samples)
        V = intrinsic.fit_intrinsic_volumes(lens, grid, seed=self.fit_seed(seed, 20_000))
        exact = math.pi * (4 * R + d) * (2 * R - d) ** 2 / 12.0
        if abs(V.values[3] - exact) > ref["lens_sigmas"] * V.stderr[3]:
            problems.append(f"lens d={d:.4f}: fitted V3 {V.values[3]:.5f} +- {V.stderr[3]:.5f}, "
                            f"closed form {exact:.5f}")
        return problems

    def cli_path_status(self, seed: int) -> str:
        """Run one trial through the CLI's steiner-fit trial function."""
        p, density = self._density(seed)
        exp = dominance.ExperimentConfig(
            n=p["n"], N=p["N"], R=p["R"], j=p["j"], density=density, trials=p["trials"],
            seed=seed, estimator=p["estimator"], fit_samples=p["fit_samples"])
        try:
            dominance._trial_value(exp, exp.densities(), exp.radii, 0)
        except TypeError as exc:
            return f"aborts with TypeError ({exc}); known defect, scored through the public fit"
        return "runs; the workload can move onto the CLI path (a benchmark change of its own)"


class Circumscribe:
    """``minimize`` around the unit square with N=4, j=2, exact polygon
    geometry: the only workload through ``extremal`` and ``polytope``."""

    name = "circumscribe"
    restarts = 32
    units = restarts
    rep_cost_s = (3.5, 6.4)

    def __init__(self):
        self.notes: List[str] = []

    def doc(self, seed: int) -> dict:
        return {
            "kind": "minimize", "seed": seed, "workers": 1,
            "params": {
                "body": {"type": "cube", "side": 1.0, "n": 2},
                "j": 2, "N": 4, "estimator": "exact-2d", "restarts": self.restarts,
            },
        }

    def setup(self, seed: int) -> None:
        p = config.validate(self.doc(rep_seed(seed, 0))).params
        extremal.CircumscriptionProblem(config.build_body(p["body"]), j=p["j"], N=p["N"],
                                        estimator=p["estimator"])

    def execute(self, seed: int, out: Path):
        return run_cli_config(self.doc(seed), out)

    def check(self, seed: int, record) -> Check:
        ref = REFERENCES[self.name]
        m = record.metrics
        chk = Check(units=self.units)
        chk.require(abs(m["value"] - ref["value"]) <= ref["value_tolerance"],
                    f"minimum {m['value']!r}, closed form {ref['value']}")
        chk.require(m["feasibility_margin"] >= ref["min_feasibility_margin"],
                    f"feasibility margin {m['feasibility_margin']!r}")
        chk.est_stderr = float(m["stderr"])
        return chk

    def finish(self, seed: int) -> List[str]:
        return []


WORKLOADS = {w.name: w for w in (PlanarDominance, MomentsStar, Steiner3D, Circumscribe)}
