"""Experiment configuration: a single YAML document per run.

Top level:

    kind: dominance-ball | dominance-cube | moments | wulff-convergence
          | vr-asymptotics | minimize | schneider | gorbovickis
          | hull-bridge
    seed: 42            # mandatory; reproducibility is not optional
    workers: 4          # optional, default from BALLPOLY_WORKERS or 1
    out: results        # optional output directory
    params: {...}       # kind-specific block, schema-checked

The schema tables below are the single list of accepted keys: ``TOP``
for the top level, ``PARAMS`` for each kind's block, and ``DENSITIES``
and ``BODIES`` for each spec ``type`` of the two spec families. A table
maps a key to (types, domain, required); a key outside its table is
rejected, and all violations are reported at once. Each density and
body spec that passes its table is then built by its builder, and the
few rules that no library constructor checks read the built objects.
A Wulff kind's boundary function ``f`` is a body spec: f is the support
function of the ``SupportBody`` it builds, on the spec's ``grid_size``
or else on the run's default grid (``WULFF_GRID_SIZE``). One rule checks
that f, or a ``moments`` body, is positive and below R;
``wulff-convergence`` also needs a planar f on at least three
directions, while ``vr-asymptotics`` takes f in any dimension. Another
checks that every ``R`` or ``R_list`` entry keeps the ball volume
omega_n R^n a finite float in the run's dimension.
Validation then builds the object the run executes, an
``ExperimentConfig`` or a ``CircumscriptionProblem``: its constructor is
the one place that checks the rules between its keys and fills in the
defaults of keys left out. Builder and constructor errors become schema
errors. The run uses the objects validation built (``RunConfig.built``)
and passes the library only the keys the config sets (``given``). Only
``dominance-*`` and ``moments`` fork ``workers`` processes.

A previously written summary document (which echoes its config under a
``config`` key) loads directly, so archived runs re-run as-is.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np
import yaml

from .errors import BallPolyError, ParseError, RadiusTooSmall, SchemaError
from .geometry import DEFAULT_GRID_SIZE

# Default grid of each Wulff kind's f, for an f spec without ``grid_size``.
WULFF_GRID_SIZE = {"wulff-convergence": 720, "vr-asymptotics": 4096}


@dataclass
class RunConfig:
    kind: str
    seed: int
    params: Dict[str, Any]
    workers: int = 1
    out: str = "results"
    # The objects validation built from ``params``, under their keys,
    # and under "run" the object the run executes; runners read these.
    built: Dict[str, Any] = field(default_factory=dict, init=False)

    def canonical(self) -> Dict[str, Any]:
        """The semantically meaningful part (hash input): worker count
        and output directory do not affect results."""
        return {"kind": self.kind, "seed": self.seed, "params": self.params}


# ---------------------------------------------------------------------------
# Builders: config dicts to library objects


def build_density(spec: dict, n_hint: Optional[int] = None):
    from .densities import (
        BallRegion, Box, Box1DStep, Product1D, RadialStep, UniformBody,
    )

    t = spec["type"]
    if t == "uniform-box":
        if {"side", "lo", "hi"} & spec.keys() not in ({"side"}, {"lo", "hi"}):
            raise SchemaError("uniform-box needs 'side' or 'lo'+'hi'")
        if "side" in spec:
            n = int(spec.get("n", n_hint or 2))
            return UniformBody(Box.centered_cube(float(spec["side"]), n))
        return UniformBody(Box(np.asarray(spec["lo"], float), np.asarray(spec["hi"], float)))
    if t == "uniform-ball":
        n = int(spec.get("n", n_hint or 2))
        center = np.asarray(spec.get("center", np.zeros(n)), dtype=float)
        return UniformBody(BallRegion(center, float(spec["radius"])))
    if t == "radial-step":
        n = int(spec.get("n", n_hint or 2))
        return RadialStep(spec["radii"], spec["heights"], n)
    if t == "box1d-step":
        return Box1DStep(spec["breaks"], spec["heights"])
    if t == "product":
        return Product1D([build_density(f, 1) for f in spec["factors"]])
    raise SchemaError(f"unknown density type {t!r}")


def build_body(spec: dict):
    from .geometry import DirectionGrid, SupportBody

    t = spec["type"]
    size = int(spec.get("grid_size", DEFAULT_GRID_SIZE))
    if t == "ball":
        n = int(spec.get("n", 2))
        grid = DirectionGrid.for_dimension(n, size)
        return SupportBody.ball(np.zeros(n), float(spec["radius"]), grid)
    if t == "cube":
        n = int(spec.get("n", 2))
        grid = DirectionGrid.for_dimension(n, size)
        return SupportBody.cube(float(spec["side"]), n, grid)
    if t == "polytope":
        verts = np.asarray(spec["vertices"], dtype=float)
        grid = DirectionGrid.for_dimension(verts.shape[1], size)
        return SupportBody.polytope(verts, grid)
    if t == "segment":
        a = np.asarray(spec["a"], dtype=float)
        b = np.asarray(spec["b"], dtype=float)
        grid = DirectionGrid.for_dimension(a.shape[0], size)
        return SupportBody.polytope(np.vstack([a, b]), grid)
    raise SchemaError(f"unknown body type {t!r}")


# ---------------------------------------------------------------------------
# Schema tables: key -> (types, domain, required). ``types`` is a type or
# a tuple of types (booleans never pass, although bool subclasses int),
# the name of a spec family in ``_SPECS``, or a one-element list holding
# such a name for a nonempty list of specs. ``domain`` is None or a
# predicate on a value of the right type.

REQ, OPT = True, False
_NUM = (int, float)


def _finite(v) -> bool:
    """A number that converts to a finite float (bool excluded)."""
    return isinstance(v, _NUM) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _positive(v) -> bool:
    return 0 < v <= sys.float_info.max


def _at_least(k):
    return lambda v: v >= k


def _numbers(v) -> bool:
    return all(map(_finite, v))


def _points(v) -> bool:
    """Nonempty, equal-length lists of finite numbers."""
    return len(v) >= 1 and all(
        isinstance(x, list) and len(x) >= 1 and len(x) == len(v[0]) and _numbers(x) for x in v)


def _is_moment_order(v) -> bool:
    """A p of ``p_list``: a finite, nonzero number."""
    return _finite(v) and v != 0


_COUNT = (int, _at_least(1), OPT)
# The estimator, j and the trial count of the runs that build an
# ExperimentConfig or a CircumscriptionProblem are checked by that
# constructor (the estimator names one it knows, 1 <= j <= n,
# trials >= 100), so the tables check only their types.
_ESTIMATOR = (str, None, OPT)
_J = (int, None, REQ)
_TRIALS = (int, None, REQ)

DENSITIES = {
    "uniform-box": {"side": (_NUM, _finite, OPT), "lo": (list, _numbers, OPT),
                    "hi": (list, _numbers, OPT), "n": _COUNT},
    "uniform-ball": {"radius": (_NUM, _finite, REQ), "center": (list, _numbers, OPT),
                     "n": _COUNT},
    "radial-step": {"radii": (list, _numbers, REQ), "heights": (list, _numbers, REQ),
                    "n": _COUNT},
    "box1d-step": {"breaks": (list, _numbers, REQ), "heights": (list, _numbers, REQ)},
    "product": {"factors": (["density"], None, REQ)},
}

BODIES = {
    "ball": {"radius": (_NUM, _positive, REQ), "n": _COUNT, "grid_size": _COUNT},
    "cube": {"side": (_NUM, _positive, REQ), "n": _COUNT, "grid_size": _COUNT},
    "polytope": {"vertices": (list, _points, REQ), "grid_size": _COUNT},
    "segment": {"a": (list, _numbers, REQ), "b": (list, _numbers, REQ), "grid_size": _COUNT},
}

# Each builder takes the spec and a hint: the run's dimension for a
# density, the run's default grid size (None: DEFAULT_GRID_SIZE) for a
# body that sets no ``grid_size``.
_SPECS = {
    "density": (DENSITIES, build_density),
    "body": (BODIES, lambda spec, hint: build_body({"grid_size": hint, **spec} if hint else spec)),
}

_DOMINANCE = {
    "n": (int, _at_least(1), REQ),
    "N": (int, _at_least(1), REQ),
    "R": (_NUM, _positive, REQ),
    "j": _J,
    "trials": _TRIALS,
    "alpha": (_NUM, lambda v: 0 < v < 1, OPT),
    "s_points": (int, _at_least(2), OPT),
    "s_grid": (list, _numbers, OPT),
    "estimator": _ESTIMATOR,
    "fit_samples": _COUNT,
    "density": ("density", None, REQ),
}

_WULFF = {
    "f": ("body", None, REQ),
    # A slope needs two distinct radii.
    "R_list": (list, lambda v: _numbers(v) and len(set(v)) >= 2, REQ),
}

# The circumscription objective is exact, so ``estimator`` only has to
# name the one for the body's dimension.
_CIRCUMSCRIPTION = {
    "body": ("body", None, REQ),
    "j": _J,
    "N": (int, _at_least(2), REQ),
    "estimator": _ESTIMATOR,
    "restarts": _COUNT,
}

PARAMS = {
    "dominance-ball": _DOMINANCE,
    "dominance-cube": _DOMINANCE,
    "moments": {
        "body": ("body", None, REQ),
        "R": (_NUM, _positive, REQ),
        "N": (int, _at_least(1), REQ),
        "j": _J,
        "p_list": (list, lambda v: len(v) >= 1 and all(map(_is_moment_order, v)), REQ),
        "trials": _TRIALS,
        "estimator": _ESTIMATOR,
        "fit_samples": _COUNT,
    },
    "wulff-convergence": {**_WULFF, "probe_size": _COUNT},
    "vr-asymptotics": _WULFF,
    "minimize": {**_CIRCUMSCRIPTION, "max_fev": _COUNT},
    "schneider": _CIRCUMSCRIPTION,
    "gorbovickis": {
        "points": (list, _points, REQ),
        "R_list": (list, lambda v: len(v) >= 1 and _numbers(v) and all(map(_positive, v)), REQ),
        "samples": (int, _at_least(0), OPT),
    },
    "hull-bridge": {
        "N": (int, _at_least(2), REQ),
        "trials": (int, _at_least(100), REQ),
        "R": (_NUM, _positive, REQ),
        "density_a": ("density", None, REQ),
        "density_b": ("density", None, REQ),
    },
}
KINDS = tuple(PARAMS)

TOP = {
    "kind": (str, lambda v: v in KINDS, REQ),
    "seed": (int, _at_least(0), REQ),
    "workers": _COUNT,
    "out": (str, None, OPT),
    "params": (dict, None, OPT),
}


# ---------------------------------------------------------------------------
# The walker: every violation of a block is appended to ``errors``.


def _check_block(block, table: dict, where: str, errors: List[str],
                 hint: Optional[int] = None) -> Dict[str, Any]:
    """Check a mapping against its table; returns the objects built from
    its spec-valued keys whose specs passed."""
    if not isinstance(block, dict):
        errors.append(f"{where}: must be a mapping")
        return {}
    errors.extend(f"{where}: unknown key '{k}'" for k in block if k not in table)
    built = {}
    for key, (types, domain, required) in table.items():
        if key not in block:
            if required:
                errors.append(f"{where}: missing required key '{key}'")
            continue
        v = block[key]
        if isinstance(types, str):
            obj = _check_spec(v, types, f"{where}.{key}", errors, hint)
            if obj is not None:
                built[key] = obj
        elif isinstance(types, list):
            if not isinstance(v, list) or not v:
                errors.append(f"{where}: key '{key}' must be a nonempty list of specs")
                continue
            for i, item in enumerate(v):
                _check_spec(item, types[0], f"{where}.{key}[{i}]", errors, build=False)
        elif isinstance(v, bool) or not isinstance(v, types):
            names = types.__name__ if isinstance(types, type) else "/".join(k.__name__ for k in types)
            errors.append(f"{where}: key '{key}' must be {names}, got {type(v).__name__}")
        elif domain is not None and not domain(v):
            errors.append(f"{where}: key '{key}' value {v!r} out of domain")
    return built


def _check_spec(spec, family: str, where: str, errors: List[str],
                hint: Optional[int] = None, build: bool = True):
    """Check a spec against the table of its ``type``, then build it;
    returns the built object, or None when the spec is rejected (or
    ``build`` is off: a product builds its factors itself)."""
    tables, builder = _SPECS[family]
    t = spec.get("type") if isinstance(spec, dict) else None
    if not (isinstance(t, str) and t in tables):
        errors.append(f"{where}: {family} spec must be a mapping with 'type' one of "
                      f"{', '.join(tables)}")
        return None
    before = len(errors)
    _check_block(spec, {"type": (str, None, REQ), **tables[t]}, where, errors)
    if not build or len(errors) > before:
        return None
    try:
        obj = builder(spec, hint)
    except (ValueError, BallPolyError) as exc:
        errors.append(f"{where}: {exc}")
        return None
    if "n" in spec and spec["n"] != obj.dimension:
        errors.append(f"{where}: key 'n' is {spec['n']}, but the {family} has "
                      f"dimension {obj.dimension}")
        return None
    return obj


def _ball_volume_is_finite(R: float, n: int) -> bool:
    """Whether omega_n R^n is a finite float (a float power raises on overflow)."""
    from .intrinsic import omega

    try:
        return math.isfinite(omega(n) * float(R) ** n)
    except OverflowError:
        return False


def _relations(kind: str, p: dict, built: dict) -> List[str]:
    """Rules between the keys of a params block that passed its table
    and that no library constructor checks; dimensions and the boundary
    function's values are read from built objects."""
    from .densities import Product1D
    from .wulff import _check_boundary

    errors = []
    # The runs compute the ball volume omega_n R^n of every radius in the
    # run's dimension: that of its built specs (a density against the
    # run's n is checked below), or of the gorbovickis points.
    for R_key in ("R", "R_list"):
        if R_key in p:
            n = (len(p["points"][0]) if kind == "gorbovickis"
                 else max(obj.dimension for obj in built.values()))
            for R in np.atleast_1d(p[R_key]).tolist():
                if not _ball_volume_is_finite(R, n):
                    errors.append(f"params: key '{R_key}': the volume of a ball of radius "
                                  f"{R!r} in dimension {n} is not a finite float")
                    break
    if kind == "moments" or kind in WULFF_GRID_SIZE:
        # The run's boundary function (the body's h_K, or f on the run's
        # grid) against the smallest R the run uses.
        key, R_key = ("body", "R") if kind == "moments" else ("f", "R_list")
        try:
            _check_boundary(built[key], min(np.atleast_1d(p[R_key])))
        except RadiusTooSmall as exc:
            errors.append(f"params: key '{R_key}': {exc} (max over the "
                          f"{len(built[key].grid)}-direction grid of '{key}')")
        except ValueError as exc:
            errors.append(f"params.{key}: {exc}")
    for key, want in (("density", p.get("n")), ("density_a", 2), ("density_b", 2)):
        if key in built and built[key].dimension != want:
            errors.append(f"params.{key}: dimension {built[key].dimension}, the run needs {want}")
    if "s_grid" in p and "s_points" in p:
        errors.append("params: keys 's_grid' and 's_points' exclude each other")
    if kind == "dominance-cube" and not isinstance(built["density"], Product1D):
        errors.append("params.density: dominance-cube needs a product density")
    if kind == "gorbovickis":
        planar, samples = len(p["points"][0]) == 2, p.get("samples", 0)
        if not planar and samples < 1:
            errors.append("params: key 'points' off the plane needs 'samples' >= 1")
        if planar and samples != 0:
            errors.append(f"params: key 'samples' must be 0 or omitted for planar 'points' "
                          f"(the planar volume is exact), got {samples}")
    if kind == "wulff-convergence":
        f = built["f"]
        if f.dimension != 2:
            errors.append(f"params.f: dimension {f.dimension}, the run needs 2 "
                          f"(wulff-convergence is planar)")
        elif len(f.grid) < 3:
            errors.append(f"params.f: key 'grid_size' is {len(f.grid)}, but W(f) is unbounded "
                          f"on fewer than three directions")
    return errors


def given(p: dict, *keys: str) -> Dict[str, Any]:
    """The entries of ``keys`` that ``p`` sets; the callee's defaults fill in the rest."""
    return {k: p[k] for k in keys if k in p}


def _run_object(kind: str, p: dict, seed: int, workers: int):
    """The object a run executes, built from p = {**params, **built} by
    the library constructor, which checks the rules between its keys and
    fills in the defaults of keys left out; None for the other kinds."""
    if kind in ("dominance-ball", "dominance-cube"):
        from .dominance import ExperimentConfig
        return ExperimentConfig(**p, seed=seed, workers=workers)
    if kind == "moments":
        from .dominance import moment_experiment
        return moment_experiment(p["body"], p["R"], p["N"], p["j"], p["trials"], seed,
                                 **given(p, "estimator", "fit_samples"), workers=workers)
    if kind in ("minimize", "schneider"):
        from .extremal import CircumscriptionProblem
        return CircumscriptionProblem(p["body"], p["j"], p["N"], **given(p, "estimator"))
    return None


def validate(doc: dict) -> RunConfig:
    """Validate a parsed config document; raises SchemaError listing
    every violation. ``params`` is returned as given, without defaults."""
    if not isinstance(doc, dict):
        raise SchemaError("config root must be a mapping")
    errors: List[str] = []
    _check_block(doc, TOP, "top level", errors)
    workers = doc.get("workers")
    if "workers" not in doc:
        env = os.environ.get("BALLPOLY_WORKERS", "1")
        try:
            workers = int(env)
        except ValueError:
            workers = env
        _check_block({"workers": workers}, {"workers": TOP["workers"]}, "BALLPOLY_WORKERS", errors)
    kind, params = doc.get("kind"), doc.get("params", {})
    built: Dict[str, Any] = {}
    if isinstance(kind, str) and kind in PARAMS and isinstance(params, dict):
        # The builders' hint (see _SPECS); a bad n, reported by its
        # key's check, gives none.
        hint = WULFF_GRID_SIZE.get(kind, params.get("n"))
        if isinstance(hint, bool) or not isinstance(hint, int) or hint < 1:
            hint = None
        before = len(errors)
        built = _check_block(params, PARAMS[kind], "params", errors, hint)
        if len(errors) == before:
            errors.extend(_relations(kind, params, built))
    if not errors:
        try:
            built["run"] = _run_object(kind, {**params, **built}, doc["seed"], workers)
        except (ValueError, BallPolyError) as exc:
            errors.append(f"params: {exc}")
    if errors:
        raise SchemaError("; ".join(errors))
    cfg = RunConfig(kind=kind, seed=doc["seed"], params=params,
                    workers=workers, out=doc.get("out") or "results")
    cfg.built.update(built)
    return cfg


def read_document(path: str):
    """Parse a config file, or the config echo of a previously written
    summary document, without validating it."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ParseError(f"cannot parse {path}{loc}: {exc}") from exc
    if isinstance(doc, dict) and "config" in doc and "record" in doc:
        doc = doc["config"]
    return doc
