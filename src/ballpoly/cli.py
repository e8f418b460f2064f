"""Command-line harness: run one configured experiment.

    ballpoly <config.yaml> [--seed S] [--workers W] [--out DIR] [--kind K]

Exit codes: 0 success, 2 configuration error, 3 experiment failure.
The overrides are laid over the parsed document before it is validated,
so they pass the same checks as the file. A configuration error (an
unreadable file, bad YAML, a key outside or against its schema table, a
spec its builder rejects, an output directory that cannot be created)
always exits 2 with a message, never with a traceback, before the run.
Progress goes to stderr; metrics and curve files to the output
directory (CSV curves plus a YAML summary that reloads as a config).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, given, read_document, validate
from .errors import BallPolyError, ParseError, SchemaError
from .results import CurveTable, make_record, now_iso, write_results


def _log(msg: str):
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# Kind runners: each returns (metrics, curves, failed_trials). They read
# what validation built, p = {**params, **built}, and under "run" the
# object the run executes; library calls get only the keys the config sets.


def _survival_curve_table(name, test_curve, extremal_curve):
    rows = [
        (float(s), float(pt), float(pe), float(test_curve.band), float(extremal_curve.band))
        for s, pt, pe in zip(test_curve.s, test_curve.p, extremal_curve.p)
    ]
    return CurveTable(name, ["s", "p_test", "p_extremal", "band_test", "band_extremal"], rows)


def _run_dominance(cfg: RunConfig, cube: bool):
    from . import dominance as dm

    exp = cfg.built["run"]
    rep = dm.check_cube_extremizer(exp) if cube else dm.check_ball_extremizer(exp)
    v = rep.verdict
    metrics = {
        "verdict": v.label,
        "worst_gap": v.gap,
        "gap_tolerance": v.tolerance,
        "violation_s": v.violation_s,
        "alpha": exp.alpha,
        "band_test": rep.test_curve.band,
        "band_extremal": rep.extremal_curve.band,
        "extremizer": "uniform-cube" if cube else "uniform-ball",
    }
    curve = _survival_curve_table("survival", rep.test_curve, rep.extremal_curve)
    return metrics, [curve], rep.failed_trials


def _run_moments(cfg: RunConfig):
    from . import dominance as dm

    p = cfg.params
    lhs, rhs = dm.moment_samples(cfg.built["run"])
    rows = []
    all_ok = True
    for pw in map(float, p["p_list"]):
        rep = dm.moment_report(lhs.values, rhs.values, pw)
        ok = rep.lhs <= rep.rhs + 3.0 * rep.combined_stderr
        all_ok &= ok
        rows.append((pw, rep.lhs, rep.rhs, rep.lhs_stderr, rep.rhs_stderr,
                     rep.margin, rep.combined_stderr))
    metrics = {
        "all_consistent": bool(all_ok),
        "p_values": [float(r[0]) for r in rows],
        "margins": [float(r[5]) for r in rows],
        "combined_stderrs": [float(r[6]) for r in rows],
    }
    table = CurveTable("moments", ["p", "lhs", "rhs", "lhs_stderr", "rhs_stderr",
                                   "margin", "combined_stderr"], rows)
    return metrics, [table], lhs.failed + rhs.failed


def _run_wulff_convergence(cfg: RunConfig):
    from . import wulff

    p = {**cfg.params, **cfg.built}
    rep = wulff.convergence_rate(p["f"], p["R_list"], **given(p, "probe_size"))
    rows = [(float(r), float(d), 0.0) for r, d in zip(rep.radii, rep.residuals)]
    metrics = {"slope": rep.slope, "grid_size": rep.grid_size,
               "probe_size": rep.probe_size,
               "residuals": [float(x) for x in rep.residuals]}
    return metrics, [CurveTable("residuals", ["R", "residual", "stderr"], rows)], 0


def _run_vr_asymptotics(cfg: RunConfig):
    from . import wulff

    p = {**cfg.params, **cfg.built}
    rep = wulff.vr_asymptotics(p["f"], p["R_list"])
    rows = [(float(r), float(d), 0.0) for r, d in zip(rep.radii, rep.residuals)]
    metrics = {
        "slope": rep.slope,
        "scaled_residuals": [float(x) for x in rep.scaled],
        "sphere_mean": p["f"].mean_width() / 2.0,
    }
    return metrics, [CurveTable("residuals", ["R", "residual", "stderr"], rows)], 0


def _run_minimize(cfg: RunConfig):
    from . import extremal as ex

    p = cfg.params
    res = ex.minimize_mjN(cfg.built["run"], seed=cfg.seed, **given(p, "restarts", "max_fev"))
    # The objective is exact, so "stderr" is 0.0; the key stays because
    # perfbench reads it as the run's estimator error.
    metrics = {
        "value": res.value, "stderr": 0.0,
        "restarts": len(res.trace), "best_restart": res.best_restart,
        "feasibility_margin": res.feasibility_margin,
        "evaluations": res.evaluations,
    }
    rows = [(i, float(v)) for i, v in enumerate(res.trace)]
    return metrics, [CurveTable("restarts", ["restart", "value"], rows)], 0


def _run_schneider(cfg: RunConfig):
    from . import extremal as ex

    rep = ex.schneider_check(cfg.built["run"], seed=cfg.seed, **given(cfg.params, "restarts"))
    metrics = {
        "lhs": rep.lhs, "rhs": rep.rhs, "margin": rep.margin,
        "rhs_source": rep.rhs_source,
        "consistent": bool(rep.margin >= 0.0),
    }
    return metrics, [], 0


def _run_gorbovickis(cfg: RunConfig):
    from . import extremal as ex

    p = cfg.params
    pts = np.asarray(p["points"], dtype=float)
    # Ascending, so the metrics are those of the largest R in any order.
    radii = sorted(p["R_list"])
    rows = []
    for R in radii:
        rep = ex.gorbovickis_deficit(pts, float(R), seed=cfg.seed, **given(p, "samples"))
        rows.append((float(R), rep.deficit_coefficient, rep.volume_stderr))
    metrics = {
        "deficit_coefficient": rows[-1][1],
        "width_functional": rep.width_functional,
        "volume": rep.volume, "volume_stderr": rep.volume_stderr,
        "normalization_note": ex.NORMALIZATION_NOTE,
        "warning": rep.warning,
    }
    return metrics, [CurveTable("deficits", ["R", "residual", "stderr"], rows)], 0


def _run_hull_bridge(cfg: RunConfig):
    from . import extremal as ex

    p = {**cfg.params, **cfg.built}
    rep = ex.hull_dominance_bridge(
        p["density_a"], p["density_b"], N=p["N"], trials=p["trials"], R=p["R"], seed=cfg.seed)
    metrics = {
        "direct_mean": rep.direct_mean, "deficit_mean": rep.deficit_mean,
        "direct_stderr": rep.direct_stderr,
        "dominance_margin": rep.dominance_margin,
        "dominance_sigma": rep.dominance_sigma,
        "agreement": rep.agreement,
    }
    return metrics, [], 0


_RUNNERS = {
    "dominance-ball": lambda cfg: _run_dominance(cfg, cube=False),
    "dominance-cube": lambda cfg: _run_dominance(cfg, cube=True),
    "moments": _run_moments,
    "wulff-convergence": _run_wulff_convergence,
    "vr-asymptotics": _run_vr_asymptotics,
    "minimize": _run_minimize,
    "schneider": _run_schneider,
    "gorbovickis": _run_gorbovickis,
    "hull-bridge": _run_hull_bridge,
}


def run(cfg: RunConfig):
    """Dispatch a validated config; returns the ResultRecord."""
    started = now_iso()
    _log(f"running {cfg.kind} (seed={cfg.seed}, workers={cfg.workers})")
    metrics, curves, failed = _RUNNERS[cfg.kind](cfg)
    record = make_record(cfg, started, metrics, curves, failed)
    _log(f"finished {cfg.kind}: " + ", ".join(f"{k}={v}" for k, v in metrics.items()))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ballpoly",
        description="Run a configured ball-polyhedron experiment.",
    )
    parser.add_argument("config", help="path to the YAML run configuration")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--workers", type=int, help="override the worker count")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--kind", help="override the experiment kind")
    args = parser.parse_args(argv)

    overrides = {"seed": args.seed, "workers": args.workers, "out": args.out, "kind": args.kind}
    try:
        doc = read_document(args.config)
        if isinstance(doc, dict):
            doc = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
        cfg = validate(doc)
        Path(cfg.out).mkdir(parents=True, exist_ok=True)  # before the run, not after it
    except (ParseError, SchemaError, OSError) as exc:
        _log(f"configuration error: {exc}")
        return 2

    try:
        record = run(cfg)
        paths = write_results(record, cfg.out)
    except (BallPolyError, RuntimeError, ValueError) as exc:
        _log(f"experiment failed: {exc}")
        return 3
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
