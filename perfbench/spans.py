"""Span tracer for the traced benchmark run.

The tracer wraps public entry points of ``ballpoly`` modules from the
outside; nothing in the package changes. While installed, each wrapped
call records a span (layer, start, end, parent) in memory, and some
layers feed counters through an observer. A layer's self time is the
duration of its spans minus the time their direct child spans cover.

Functions that another module imports by name are wrapped under that
name too (``dominance.stream``, ``intrinsic.stream`` and so on), since
patching the defining module does not reach an existing binding.

``install`` patches and ``uninstall`` restores the original attributes,
so an untraced execution in the same process runs without wrappers.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

from ballpoly import (
    config, densities, dominance, exact2d, extremal, geometry, intrinsic,
    polytope, results, rng, wulff,
)
from ballpoly.errors import DegenerateTangency
from workloads import REFERENCES


class Tracer:
    """In-memory spans and per-layer aggregates for one traced process."""

    def __init__(self):
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[list] = []  # [span index, layer id, child seconds]
        self._patches: List[tuple] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)

    # -- aggregates ---------------------------------------------------------

    def reset_aggregates(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def current_layer(self) -> Optional[str]:
        return self.layers[self._stack[-1][1]] if self._stack else None

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    # -- wrapping -----------------------------------------------------------

    def span(self, layer: str, fn: Callable, observe: Optional[Callable] = None,
             on_error: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to record one ``layer`` span per call.

        ``observe(tracer, args, kwargs, result)`` runs after a normal
        return and ``on_error(tracer, exc)`` after an exception."""
        lid = self._layer_id(layer)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.span_start)
            parent = self._stack[-1] if self._stack else None
            self.span_layer.append(lid)
            self.span_parent.append(parent[0] if parent else -1)
            frame = [idx, lid, 0.0]
            self._stack.append(frame)
            start = perf()
            self.span_start.append(start)
            self.span_end.append(math.nan)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                end = perf()
                self._stack.pop()
                self.span_end[idx] = end
                dur = end - start
                self.self_s[layer] += dur - frame[2]
                self.calls[layer] += 1
                if parent is not None:
                    parent[2] += dur
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def hook(self, fn: Callable, observe: Callable) -> Callable:
        """``fn`` wrapped to feed counters only (no span)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(self, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, wrapped: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer entry point listed in ``_targets``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, owner, attr, observe, on_error in _targets():
            original = owner.__dict__[attr]
            if layer is None:
                self.patch(owner, attr, self.hook(original, observe))
            else:
                self.patch(owner, attr, self.span(layer, original, observe, on_error))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def save(self, path) -> None:
        """Write every recorded span to an ``.npz`` file."""
        np.savez(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.span_layer, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


# ---------------------------------------------------------------------------
# Observers: counters measured where the work happens


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _disk_region(tr: Tracer, args, kwargs, region) -> None:
    tr.counts["exact2d.disks"] += np.atleast_2d(_arg(args, kwargs, 0, "centers")).shape[0]
    tr.counts["exact2d.empty"] += bool(region.empty)


def _degenerate(tr: Tracer, exc: BaseException) -> None:
    if isinstance(exc, DegenerateTangency):
        tr.counts["exact2d.degenerate"] += 1


def _dykstra(tr: Tracer, args, kwargs, result) -> None:
    _, converged = result
    tr.counts["geometry.dykstra.points"] += converged.size
    tr.counts["geometry.dykstra.unconverged"] += converged.size - np.count_nonzero(converged)


def _fit(tr: Tracer, args, kwargs, V) -> None:
    # An outlier: V_n and the fit's own hit-or-miss volume disagree by
    # more than the steiner-3d gate allows.
    if V.vn_crosscheck is None:
        return
    n = V.dimension
    est, se = V.vn_crosscheck
    sigmas = REFERENCES["steiner-3d"]["crosscheck_sigmas"]
    if abs(V.values[n] - est) > sigmas * math.hypot(V.stderr[n], se):
        tr.counts["intrinsic.crosscheck.outliers"] += 1


def _sample(tr: Tracer, args, kwargs, out) -> None:
    # Outermost sampler calls only: a product density samples its factors.
    if tr.current_layer() == "densities.sample":
        return
    tr.counts["densities.returned"] += out.shape[0]
    density = args[0]
    rejection = isinstance(density, densities.UniformBody) and isinstance(
        density.region, (geometry.BallPolyhedron, geometry.StarBody))
    if not rejection:
        tr.counts["densities.proposed"] += out.shape[0]
        tr.counts["densities.accepted"] += out.shape[0]


def _membership(tr: Tracer, args, kwargs, mask) -> None:
    # UniformBody._contains inside a rejection sampler: one proposal batch.
    if tr.current_layer() == "densities.sample":
        tr.counts["densities.proposed"] += mask.shape[0]
        tr.counts["densities.accepted"] += int(np.count_nonzero(mask))


def _targets():
    """(layer, owner, attribute, observe, on_error) for every wrapped
    entry point; layer None marks a counter-only hook."""
    return [
        ("rng.stream", rng, "stream", None, None),
        ("rng.stream", dominance, "stream", None, None),
        ("rng.stream", intrinsic, "stream", None, None),
        ("rng.stream", densities, "stream", None, None),
        ("rng.stream", extremal, "stream", None, None),
        ("rng.stream", wulff, "stream", None, None),
        ("rng.draw", rng, "uniform_in_ball", None, None),
        ("rng.draw", rng, "uniform_on_sphere", None, None),
        ("rng.draw", intrinsic, "uniform_in_ball", None, None),
        ("rng.draw", densities, "uniform_in_ball", None, None),
        ("rng.draw", densities, "uniform_on_sphere", None, None),
        ("rng.draw", extremal, "uniform_in_ball", None, None),
        ("rng.draw", extremal, "uniform_on_sphere", None, None),
        ("rng.draw", dominance, "uniform_on_sphere", None, None),
        ("densities.sample", densities.UniformBody, "sample", _sample, None),
        ("densities.sample", densities.RadialStep, "sample", _sample, None),
        ("densities.sample", densities.Box1DStep, "sample", _sample, None),
        ("densities.sample", densities.Product1D, "sample", _sample, None),
        (None, densities.UniformBody, "_contains", _membership, None),
        ("exact2d.disk_region", exact2d, "disk_region", _disk_region, _degenerate),
        ("geometry.dykstra", geometry, "project_points_onto_ballpoly", _dykstra, None),
        ("geometry.contains", geometry.BallPolyhedron, "contains", None, None),
        ("geometry.radial", geometry.StarBody, "radial", None, None),
        ("geometry.support", geometry.SupportBody, "support", None, None),
        ("intrinsic.fit", intrinsic, "fit_intrinsic_volumes", _fit, None),
        ("intrinsic.fit", dominance, "fit_intrinsic_volumes", _fit, None),
        ("intrinsic.gls", intrinsic, "steiner_fit_from_distances", None, None),
        ("intrinsic.gls", extremal, "steiner_fit_from_distances", None, None),
        ("intrinsic.mc_volume", intrinsic, "mc_volume", None, None),
        ("intrinsic.mc_volume", extremal, "mc_volume", None, None),
        ("dominance.driver", dominance, "check_ball_extremizer", None, None),
        ("dominance.driver", dominance, "check_cube_extremizer", None, None),
        ("dominance.driver", dominance, "moment_compare", None, None),
        ("dominance.driver", dominance, "run_trials", None, None),
        ("dominance.trial", dominance, "_trial_value", None, None),
        ("extremal.objective", extremal._Objective, "__call__", None, None),
        ("extremal.search", extremal, "minimize_mjN", None, None),
        ("polytope.clip", polytope, "clip_polygon", None, None),
        ("polytope.area_perimeter", polytope, "polygon_area_perimeter", None, None),
        ("config.validate", config, "validate", None, None),
        ("results.write", results, "write_results", None, None),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> Dict[str, float]:
    """Per-layer metrics from the tracer's current aggregates.

    ``dominance.driver.self_s`` folds in the per-trial function's self
    time, whose call count is ``dominance.trials``."""
    s, c, k = tr.self_s, tr.calls, tr.counts
    out = {}
    for layer in ("rng.stream", "rng.draw", "densities.sample", "exact2d.disk_region",
                  "geometry.dykstra", "geometry.radial", "geometry.support",
                  "intrinsic.fit", "extremal.objective", "polytope.clip"):
        out[f"{layer}.calls"] = c[layer]
    for layer in ("rng.stream", "rng.draw", "densities.sample", "exact2d.disk_region",
                  "geometry.dykstra", "geometry.contains", "geometry.radial",
                  "geometry.support", "intrinsic.fit", "intrinsic.gls",
                  "intrinsic.mc_volume", "extremal.objective", "extremal.search",
                  "polytope.clip", "polytope.area_perimeter", "config.validate",
                  "results.write"):
        out[f"{layer}.self_s"] = s[layer]
    out["densities.accept_ratio"] = _ratio(k["densities.accepted"], k["densities.proposed"])
    out["densities.used_ratio"] = _ratio(k["densities.returned"], k["densities.proposed"])
    out["exact2d.disk_region.disks_mean"] = _ratio(k["exact2d.disks"], c["exact2d.disk_region"])
    out["exact2d.disk_region.empty_ratio"] = _ratio(k["exact2d.empty"], c["exact2d.disk_region"])
    out["exact2d.degenerate.calls"] = k["exact2d.degenerate"]
    out["geometry.dykstra.points"] = k["geometry.dykstra.points"]
    out["geometry.dykstra.unconverged_ratio"] = _ratio(
        k["geometry.dykstra.unconverged"], k["geometry.dykstra.points"])
    out["intrinsic.crosscheck.outliers"] = k["intrinsic.crosscheck.outliers"]
    out["dominance.trials"] = c["dominance.trial"]
    out["dominance.driver.self_s"] = s["dominance.driver"] + s["dominance.trial"]
    return out
