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

from .config import RunConfig, read_document, validate
from .errors import BallPolyError, ParseError, SchemaError
from .results import CurveTable, make_record, now_iso, write_results


def _log(msg: str):
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# Kind runners: each returns (metrics, curves, failed_trials). They read
# the objects validation built under their keys: p = {**params, **built}.


def _survival_curve_table(name, test_curve, extremal_curve):
    rows = [
        (float(s), float(pt), float(pe), float(test_curve.band), float(extremal_curve.band))
        for s, pt, pe in zip(test_curve.s, test_curve.p, extremal_curve.p)
    ]
    return CurveTable(name, ["s", "p_test", "p_extremal", "band_test", "band_extremal"], rows)


def _run_dominance(cfg: RunConfig, cube: bool):
    from . import dominance as dm

    p = {**cfg.params, **cfg.built}
    exp = dm.ExperimentConfig(
        n=p["n"], N=p["N"], R=p["R"], j=p["j"], density=p["density"],
        trials=p["trials"], seed=cfg.seed,
        s_grid=np.asarray(p["s_grid"], float) if "s_grid" in p else None,
        s_points=p.get("s_points", 20), alpha=p.get("alpha", 0.05),
        estimator=p.get("estimator", "exact-2d"),
        fit_samples=p.get("fit_samples", 20_000), workers=cfg.workers,
    )
    rep = dm.check_cube_extremizer(exp) if cube else dm.check_ball_extremizer(exp)
    v = rep.verdict
    metrics = {
        "verdict": v.label,
        "worst_gap": v.gap,
        "gap_tolerance": v.tolerance,
        "violation_s": v.violation_s,
        "alpha": v.alpha,
        "band_test": rep.test_curve.band,
        "band_extremal": rep.extremal_curve.band,
        "extremizer": rep.extremizer,
    }
    curve = _survival_curve_table("survival", rep.test_curve, rep.extremal_curve)
    return metrics, [curve], rep.failed_trials


def _run_moments(cfg: RunConfig):
    from . import dominance as dm

    p = {**cfg.params, **cfg.built}
    lhs, rhs = dm.moment_samples(
        p["body"], R=p["R"], N=p["N"], j=p["j"], trials=p["trials"],
        seed=cfg.seed, estimator=p.get("estimator", "exact-2d"),
        fit_samples=p.get("fit_samples", 20_000), workers=cfg.workers,
    )
    rows = []
    all_ok = True
    for pw in p["p_list"]:
        rep = dm.moment_report(lhs.values, rhs.values, float(pw))
        ok = rep.lhs <= rep.rhs + 3.0 * rep.combined_stderr
        all_ok &= ok
        rows.append((rep.p, rep.lhs, rep.rhs, rep.lhs_stderr, rep.rhs_stderr,
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
    rep = wulff.convergence_rate(p["f"], p["R_list"], probe_size=p.get("probe_size", 4096))
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

    p = {**cfg.params, **cfg.built}
    prob = ex.CircumscriptionProblem(p["body"], j=p["j"], N=p["N"])
    res = ex.minimize_mjN(prob, restarts=p.get("restarts", 32), seed=cfg.seed,
                          max_fev=p.get("max_fev", 400))
    # The objective is exact, so "stderr" (and "lhs_stderr" of schneider)
    # is 0.0; the keys stay for readers of the record, perfbench among them.
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

    p = {**cfg.params, **cfg.built}
    rep = ex.schneider_check(p["body"], j=p["j"], N=p["N"],
                             restarts=p.get("restarts", 32), seed=cfg.seed)
    metrics = {
        "lhs": rep.lhs, "rhs": rep.rhs, "margin": rep.margin,
        "lhs_stderr": 0.0, "rhs_source": rep.rhs_source,
        "consistent": bool(rep.margin >= 0.0),
    }
    return metrics, [], 0


def _run_simplex_bound(cfg: RunConfig):
    from . import extremal as ex

    p = {**cfg.params, **cfg.built}
    rep = ex.simplex_bound_check(p["body"], restarts=p.get("restarts", 32), seed=cfg.seed)
    metrics = {
        "simplex_value": rep.simplex_value, "bound": rep.bound,
        "mean_width": rep.mean_width, "margin": rep.margin,
        "stderr": 0.0, "note": rep.note,
        "consistent": bool(rep.margin >= 0.0),
    }
    return metrics, [], 0


def _run_gorbovickis(cfg: RunConfig):
    from . import extremal as ex

    p = cfg.params
    pts = np.asarray(p["points"], dtype=float)
    radii = p.get("R_list", [p["R"]] if "R" in p else [])
    rows = []
    for R in radii:
        rep = ex.gorbovickis_deficit(pts, float(R), samples=p.get("samples", 0),
                                     seed=cfg.seed)
        rows.append((float(R), rep.deficit_coefficient, rep.volume_stderr))
    metrics = {
        "deficit_coefficient": rows[-1][1],
        "width_functional": rep.width_functional,
        "volume": rep.volume, "volume_stderr": rep.volume_stderr,
        "normalization_note": rep.note,
        "warning": rep.warning,
    }
    return metrics, [CurveTable("deficits", ["R", "residual", "stderr"], rows)], 0


def _run_hull_bridge(cfg: RunConfig):
    from . import extremal as ex
    from .geometry import DirectionGrid

    p = {**cfg.params, **cfg.built}
    rep = ex.hull_dominance_bridge(
        p["density_a"], p["density_b"], N=p["N"], trials=p["trials"], R=p["R"], seed=cfg.seed,
        grid=DirectionGrid.uniform_2d(p.get("grid_size", 512)),
    )
    metrics = {
        "direct_mean": rep.direct_mean, "deficit_mean": rep.deficit_mean,
        "direct_stderr": rep.direct_stderr,
        "dominance_margin": rep.dominance_margin,
        "dominance_sigma": rep.dominance_sigma,
        "agreement": rep.agreement, "radius": rep.radius,
    }
    return metrics, [], 0


def _run_selftest(cfg: RunConfig):
    """Quick closed-form checks across all modules; raises on failure."""
    import math

    from . import exact2d, polytope, wulff
    from .geometry import (
        BallPolyhedron, DirectionGrid, SupportBody, project_points_onto_ballpoly,
        support_function,
    )
    from .intrinsic import omega, unit_ball_intrinsic

    checks = []

    def check(name, ok):
        checks.append((name, bool(ok)))
        _log(f"  {'ok' if ok else 'FAIL'}  {name}")

    lens = BallPolyhedron.from_arrays([[0.5, 0.0], [-0.5, 0.0]], 1.0)
    area, perim = exact2d.exact_disk_intersection_2d(lens)
    check("lens area", abs(area - (2 * math.pi / 3 - math.sqrt(3) / 2)) < 1e-12)
    check("lens perimeter", abs(perim - 4 * math.pi / 3) < 1e-12)
    proj, ok = project_points_onto_ballpoly(
        BallPolyhedron.from_arrays([[2.0, 0.0]], 1.0), np.array([[0.0, 0.0]]))
    check("single-ball projection", ok[0] and np.allclose(proj[0], [1.0, 0.0], atol=1e-12))
    check("omega_2", abs(omega(2) - math.pi) < 1e-15)
    check("omega_3", abs(omega(3) - 4 * math.pi / 3) < 1e-15)
    check("V_1 of planar unit ball", abs(unit_ball_intrinsic(2, 1) - math.pi) < 1e-12)
    g = DirectionGrid.uniform_2d(2048)
    sq = SupportBody.cube(1.0, 2, g)
    check("square mean width", abs(sq.mean_width() - 4 / math.pi) < 1e-4)
    W = wulff.wulff_shape(sq)
    probe = DirectionGrid.uniform_2d(256).directions
    check("Wulff of a cube support", np.max(np.abs(W.support(probe) - sq.support(probe))) < 1e-9)
    reg = exact2d.region_of(lens)
    check("lens support (exact arcs)",
          abs(exact2d.support_from_region(reg, np.array([[0.0, 1.0]]))[0]
              - math.sqrt(3) / 2) < 1e-12)
    lens3 = BallPolyhedron.from_arrays([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]], 1.0)
    check("3-D lens support (exact candidates)",
          abs(support_function(lens3, np.array([0.0, 0.6, 0.8])) - math.sqrt(3) / 2) < 1e-12)
    unit_cube = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], float)
    check("unit cube hull intrinsic volumes",
          np.allclose(polytope.hull_intrinsic_volumes(unit_cube), [1, 3, 3, 1], atol=1e-12))
    bad = [name for name, ok in checks if not ok]
    if bad:
        raise RuntimeError(f"selftest failures: {', '.join(bad)}")
    return {"checks": len(checks), "failures": 0}, [], 0


_RUNNERS = {
    "dominance-ball": lambda cfg: _run_dominance(cfg, cube=False),
    "dominance-cube": lambda cfg: _run_dominance(cfg, cube=True),
    "moments": _run_moments,
    "wulff-convergence": _run_wulff_convergence,
    "vr-asymptotics": _run_vr_asymptotics,
    "minimize": _run_minimize,
    "schneider": _run_schneider,
    "simplex-bound": _run_simplex_bound,
    "gorbovickis": _run_gorbovickis,
    "hull-bridge": _run_hull_bridge,
    "selftest": _run_selftest,
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
