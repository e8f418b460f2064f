"""Experiment configuration: a single YAML document per run.

Top level:

    kind: dominance-ball | dominance-cube | moments | wulff-convergence
          | vr-asymptotics | minimize | schneider | simplex-bound
          | gorbovickis | hull-bridge | selftest
    seed: 42            # mandatory; reproducibility is not optional
    workers: 4          # optional, default from BALLPOLY_WORKERS or 1
    out: results        # optional output directory
    params: {...}       # kind-specific block, schema-checked

Unknown keys are rejected and all violations are reported at once.
A previously written summary document (which echoes its config under a
``config`` key) loads directly, so archived runs re-run as-is.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np
import yaml

from .errors import ParseError, SchemaError

KINDS = (
    "dominance-ball", "dominance-cube", "moments", "wulff-convergence",
    "vr-asymptotics", "minimize", "schneider", "simplex-bound",
    "gorbovickis", "hull-bridge", "selftest",
)

DEFAULT_GRID_SIZE = 4096


@dataclass
class RunConfig:
    kind: str
    seed: int
    params: Dict[str, Any]
    workers: int = 1
    out: str = "results"

    def canonical(self) -> Dict[str, Any]:
        """The semantically meaningful part (hash input): worker count
        and output directory do not affect results."""
        return {"kind": self.kind, "seed": self.seed, "params": self.params}


# ---------------------------------------------------------------------------
# Schema machinery: validators collect every violation before failing.


class _Check:
    def __init__(self, errors: List[str]):
        self.errors = errors

    def fail(self, msg: str):
        self.errors.append(msg)

    def require(self, block: dict, key: str, kinds, where: str, domain=None):
        if key not in block:
            self.fail(f"{where}: missing required key '{key}'")
            return None
        return self.typed(block, key, kinds, where, domain)

    def typed(self, block: dict, key: str, kinds, where: str, domain=None):
        if key not in block:
            return None
        v = block[key]
        # No key takes a boolean, and bool subclasses int: reject it here.
        if isinstance(v, bool) or not isinstance(v, kinds):
            names = kinds.__name__ if isinstance(kinds, type) else "/".join(k.__name__ for k in kinds)
            self.fail(f"{where}: key '{key}' must be {names}, got {type(v).__name__}")
            return None
        if domain is not None and not domain(v):
            self.fail(f"{where}: key '{key}' value {v!r} out of domain")
            return None
        return v

    def only(self, block: dict, allowed, where: str):
        for k in block:
            if k not in allowed:
                self.fail(f"{where}: unknown key '{k}'")


_NUM = (int, float)


def _is_number(v) -> bool:
    return isinstance(v, _NUM) and not isinstance(v, bool)


def _is_moment_order(v) -> bool:
    """A p of ``p_list``: a nonzero finite number, or minus infinity
    (the string "-inf" or a YAML ``-.inf``)."""
    if v == "-inf":
        return True
    return _is_number(v) and v != 0 and (math.isfinite(v) or v == -math.inf)


DENSITY_KEYS = {
    "uniform-box": {"side", "lo", "hi", "n"},
    "uniform-ball": {"radius", "center", "n"},
    "radial-step": {"radii", "heights", "n"},
    "box1d-step": {"breaks", "heights"},
    "product": {"factors"},
}

BODY_KEYS = {
    "ball": {"radius", "n"},
    "cube": {"side", "n"},
    "polytope": {"vertices"},
    "segment": {"a", "b"},
}


def _check_density(spec, where: str, ck: _Check, n: Optional[int]):
    if not isinstance(spec, dict):
        ck.fail(f"{where}: density spec must be a mapping")
        return
    t = ck.require(spec, "type", str, where, lambda v: v in DENSITY_KEYS)
    if t is None:
        return
    ck.only(spec, DENSITY_KEYS[t] | {"type"}, where)
    if t == "uniform-box":
        if "side" not in spec and not ("lo" in spec and "hi" in spec):
            ck.fail(f"{where}: uniform-box needs 'side' or 'lo'+'hi'")
        ck.typed(spec, "side", _NUM, where, lambda v: v > 0)
    elif t == "uniform-ball":
        ck.require(spec, "radius", _NUM, where, lambda v: v > 0)
    elif t == "radial-step":
        ck.require(spec, "radii", list, where)
        ck.require(spec, "heights", list, where)
    elif t == "box1d-step":
        ck.require(spec, "breaks", list, where)
        ck.require(spec, "heights", list, where)
    elif t == "product":
        factors = ck.require(spec, "factors", list, where)
        if factors is not None:
            for i, f in enumerate(factors):
                _check_density(f, f"{where}.factors[{i}]", ck, 1)


def _check_body(spec, where: str, ck: _Check):
    if not isinstance(spec, dict):
        ck.fail(f"{where}: body spec must be a mapping")
        return
    t = ck.require(spec, "type", str, where, lambda v: v in BODY_KEYS)
    if t is None:
        return
    ck.only(spec, BODY_KEYS[t] | {"type", "grid_size"}, where)
    if t in ("ball", "cube"):
        ck.typed(spec, "n", int, where, lambda v: v >= 1)
    if t == "ball":
        ck.require(spec, "radius", _NUM, where, lambda v: v > 0)
    elif t == "cube":
        ck.require(spec, "side", _NUM, where, lambda v: v > 0)
    elif t == "polytope":
        ck.require(spec, "vertices", list, where)


def _check_dominance(params: dict, ck: _Check, kind: str):
    where = "params"
    ck.only(params, {"n", "N", "R", "j", "trials", "alpha", "s_points", "s_grid",
                     "estimator", "density", "fit_samples"}, where)
    n = ck.require(params, "n", int, where, lambda v: v >= 1)
    ck.require(params, "N", int, where, lambda v: v >= 1)
    ck.require(params, "R", _NUM, where, lambda v: v > 0)
    j = ck.require(params, "j", int, where)
    if j is not None and n is not None and not 1 <= j <= n:
        ck.fail(f"params: j must satisfy 1 <= j <= n (j={j}, n={n})")
    ck.require(params, "trials", int, where, lambda v: v >= 100)
    ck.typed(params, "alpha", _NUM, where, lambda v: 0 < v < 1)
    ck.typed(params, "s_points", int, where, lambda v: v >= 2)
    ck.typed(params, "s_grid", list, where)
    ck.typed(params, "estimator", str, where, lambda v: v in ("exact-2d", "steiner-fit"))
    ck.typed(params, "fit_samples", int, where, lambda v: v >= 1)
    dens = params.get("density")
    if dens is None:
        ck.fail("params: missing required key 'density'")
    else:
        _check_density(dens, "params.density", ck, n)


def _check_moments(params: dict, ck: _Check):
    where = "params"
    ck.only(params, {"body", "R", "N", "j", "p_list", "trials", "estimator",
                     "fit_samples"}, where)
    body = params.get("body")
    if body is None:
        ck.fail("params: missing required key 'body'")
    else:
        _check_body(body, "params.body", ck)
    ck.require(params, "R", _NUM, where, lambda v: v > 0)
    ck.require(params, "N", int, where, lambda v: v >= 1)
    ck.require(params, "j", int, where, lambda v: v >= 1)
    ck.require(params, "trials", int, where, lambda v: v >= 100)
    ck.require(params, "p_list", list, where,
               lambda v: len(v) >= 1 and all(map(_is_moment_order, v)))
    ck.typed(params, "estimator", str, where, lambda v: v in ("exact-2d", "steiner-fit"))
    ck.typed(params, "fit_samples", int, where, lambda v: v >= 1)


def _check_spherical(params: dict, ck: _Check, kind: str):
    where = "params"
    allowed = {"f", "R_list", "grid_size", "probe_size"}
    ck.only(params, allowed, where)
    f = params.get("f")
    if f is None:
        ck.fail("params: missing required key 'f'")
    elif isinstance(f, dict):
        t = ck.require(f, "type", str, "params.f",
                       lambda v: v in ("constant", "support-cube", "support-ball", "support-segment"))
        if t == "constant":
            ck.require(f, "value", _NUM, "params.f", lambda v: v > 0)
            ck.only(f, {"type", "value"}, "params.f")
        elif t is not None:
            ck.only(f, {"type", "side", "radius", "length"}, "params.f")
    else:
        ck.fail("params.f: must be a mapping")
    ck.require(params, "R_list", list, where,
               lambda v: len(v) >= 2 and all(map(_is_number, v)))


def _body_dimension(spec) -> Optional[int]:
    """Ambient dimension a body spec declares, or None when it is not
    readable (the body check reports the spec itself)."""
    if not isinstance(spec, dict):
        return None
    t = spec.get("type")
    if t in ("ball", "cube"):
        n = spec.get("n", 2)
    elif t == "polytope" and isinstance(spec.get("vertices"), list) and spec["vertices"]:
        first = spec["vertices"][0]
        n = len(first) if isinstance(first, list) else None
    elif t == "segment" and isinstance(spec.get("a"), list):
        n = len(spec["a"])
    else:
        n = None
    return n if isinstance(n, int) and not isinstance(n, bool) else None


def _check_minimize(params: dict, ck: _Check, kind: str):
    from .extremal import CIRCUMSCRIPTION_ESTIMATORS

    where = "params"
    allowed = {"body", "j", "N", "estimator", "restarts"}
    if kind == "minimize":
        allowed |= {"max_fev"}
    if kind == "simplex-bound":
        allowed -= {"j", "N"}
    removed = {"fit_samples", "final_samples"}
    ck.only(params, allowed | removed, where)
    for key in sorted(removed & params.keys()):
        ck.fail(f"{where}: key '{key}' is not accepted: the objective is exact "
                "and draws no samples")
    body = params.get("body")
    if body is None:
        ck.fail("params: missing required key 'body'")
    else:
        _check_body(body, "params.body", ck)
    n = _body_dimension(body)
    expected = CIRCUMSCRIPTION_ESTIMATORS.get(n)
    if n is not None and expected is None:
        ck.fail(f"params.body: {kind} needs a body of dimension 2 or 3, got n={n}")
    if kind != "simplex-bound":
        j = ck.require(params, "j", int, where, lambda v: v >= 1)
        N = ck.require(params, "N", int, where, lambda v: v >= 2)
        if expected is not None and j is not None and j > n:
            ck.fail(f"params: j must satisfy 1 <= j <= n (j={j}, n={n})")
        if expected is not None and N is not None and N <= n:
            ck.fail(f"params: N must exceed n (N={N}, n={n})")
    ck.typed(params, "restarts", int, where, lambda v: v >= 1)
    ck.typed(params, "max_fev", int, where, lambda v: v >= 1)
    est = ck.typed(params, "estimator", str, where)
    if est is not None and expected is not None and est != expected:
        hint = " (steiner-fit was removed: the objective is exact)" if est == "steiner-fit" else ""
        ck.fail(f"{where}: key 'estimator' must be '{expected}' for a body of "
                f"dimension {n}, or omitted, got {est!r}{hint}")


def _is_point_set(v, samples) -> bool:
    """Equal-length lists of finite numbers; planar unless a Monte-Carlo
    sample budget is given."""
    if not v or not all(isinstance(x, list) for x in v):
        return False
    n = len(v[0])
    if n == 0 or (n != 2 and not (isinstance(samples, int) and samples >= 1)):
        return False
    return all(len(x) == n and all(_is_number(c) and math.isfinite(c) for c in x) for x in v)


def _check_gorbovickis(params: dict, ck: _Check):
    where = "params"
    ck.only(params, {"points", "R", "R_list", "samples"}, where)
    samples = ck.typed(params, "samples", int, where, lambda v: v >= 0)
    ck.require(params, "points", list, where, lambda v: _is_point_set(v, samples))
    if "R" not in params and "R_list" not in params:
        ck.fail("params: need 'R' or 'R_list'")
    ck.typed(params, "R", _NUM, where, lambda v: v > 0)
    ck.typed(params, "R_list", list, where,
             lambda v: len(v) >= 1 and all(_is_number(x) and 0 < x < math.inf for x in v))


def _check_hull_bridge(params: dict, ck: _Check):
    where = "params"
    ck.only(params, {"N", "trials", "R", "density_a", "density_b", "grid_size"}, where)
    ck.require(params, "N", int, where, lambda v: v >= 2)
    ck.require(params, "trials", int, where, lambda v: v >= 100)
    ck.require(params, "R", _NUM, where, lambda v: v > 0)
    for key in ("density_a", "density_b"):
        d = params.get(key)
        if d is None:
            ck.fail(f"params: missing required key '{key}'")
        else:
            _check_density(d, f"params.{key}", ck, 2)


def validate(doc: dict) -> RunConfig:
    """Validate a parsed config document; raises SchemaError listing
    every violation."""
    errors: List[str] = []
    ck = _Check(errors)
    if not isinstance(doc, dict):
        raise SchemaError("config root must be a mapping")
    ck.only(doc, {"kind", "seed", "workers", "out", "params"}, "top level")
    kind = ck.require(doc, "kind", str, "top level", lambda v: v in KINDS)
    seed = ck.require(doc, "seed", int, "top level")
    if "seed" not in doc:
        errors[-1] += " (seeds are mandatory for reproducibility)"
    workers = ck.typed(doc, "workers", int, "top level", lambda v: v >= 1)
    out = ck.typed(doc, "out", str, "top level")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        ck.fail("top level: 'params' must be a mapping")
        params = {}
    elif kind is not None:
        if kind in ("dominance-ball", "dominance-cube"):
            _check_dominance(params, ck, kind)
        elif kind == "moments":
            _check_moments(params, ck)
        elif kind in ("wulff-convergence", "vr-asymptotics"):
            _check_spherical(params, ck, kind)
        elif kind in ("minimize", "schneider", "simplex-bound"):
            _check_minimize(params, ck, kind)
        elif kind == "gorbovickis":
            _check_gorbovickis(params, ck)
        elif kind == "hull-bridge":
            _check_hull_bridge(params, ck)
        else:  # selftest
            ck.only(params, set(), "params")
    if errors:
        raise SchemaError("; ".join(errors))
    if workers is None:
        workers = int(os.environ.get("BALLPOLY_WORKERS", "1"))
    return RunConfig(kind=kind, seed=seed, params=params,
                     workers=workers, out=out if out else "results")


def load_config(path: str) -> RunConfig:
    """Load and validate a config file (or a previously written summary
    document, whose config echo round-trips)."""
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError:
        raise
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ParseError(f"cannot parse {path}{loc}: {exc}") from exc
    if isinstance(doc, dict) and "config" in doc and "record" in doc:
        doc = doc["config"]
    return validate(doc)


# ---------------------------------------------------------------------------
# Builders: config dicts to library objects


def build_density(spec: dict, n_hint: Optional[int] = None):
    from .densities import (
        BallRegion, Box, Box1DStep, Product1D, RadialStep, UniformBody,
    )

    t = spec["type"]
    if t == "uniform-box":
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


def build_body(spec: dict, default_grid: int = DEFAULT_GRID_SIZE):
    from .geometry import DirectionGrid, SupportBody

    t = spec["type"]
    size = int(spec.get("grid_size", default_grid))
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
        return SupportBody.segment(a, b, grid)
    raise SchemaError(f"unknown body type {t!r}")


def build_spherical_function(spec: dict, grid_size: int = 720):
    from .geometry import DirectionGrid, SupportBody
    from .wulff import SphericalFunction

    grid = DirectionGrid.uniform_2d(grid_size)
    t = spec["type"]
    if t == "constant":
        return SphericalFunction.constant(float(spec["value"]), grid)
    if t == "support-cube":
        return SphericalFunction.from_support_body(
            SupportBody.cube(float(spec.get("side", 1.0)), 2, grid))
    if t == "support-ball":
        return SphericalFunction.from_support_body(
            SupportBody.ball(np.zeros(2), float(spec.get("radius", 1.0)), grid))
    if t == "support-segment":
        length = float(spec.get("length", 1.0))
        return SphericalFunction.from_support_body(SupportBody.segment(
            np.array([-length / 2.0, 0.0]), np.array([length / 2.0, 0.0]), grid))
    raise SchemaError(f"unknown spherical function type {t!r}")
