"""Result records and file emission.

Every run produces one ResultRecord: the config echo, a content hash of
the semantically meaningful config, timestamps, scalar metrics (each
stochastic metric paired with its uncertainty), and zero or more
tabular curves. Its summary file adds two package constants: the
artifact version and the RNG contract version (which fixes the samples
a seed gives). Records are append-only on disk:
re-running a config hash warns and writes a timestamped sibling rather
than overwriting.
"""

from __future__ import annotations

import csv
import datetime as _dt
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import yaml

from . import __version__
from .config import RunConfig
from .rng import RNG_CONTRACT

# libyaml's emitter when PyYAML was built with it: about four times
# faster than the pure-Python one, and the same text.
_SUMMARY_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


@dataclass
class CurveTable:
    """One tabular artifact: a header row plus numeric rows."""

    name: str
    header: List[str]
    rows: List[Sequence[float]]


@dataclass
class ResultRecord:
    kind: str
    config: Dict[str, Any]
    config_hash: str
    started: str
    finished: str
    metrics: Dict[str, Any]
    curves: List[CurveTable] = field(default_factory=list)
    failed_trials: int = 0


def config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(cfg.canonical(), sort_keys=True, default=float)
    return hashlib.sha256(blob.encode()).hexdigest()


def now_iso() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")


def make_record(cfg: RunConfig, started: str, metrics: Dict[str, Any],
                curves: Optional[List[CurveTable]] = None,
                failed_trials: int = 0) -> ResultRecord:
    return ResultRecord(
        kind=cfg.kind,
        config=cfg.canonical(),
        config_hash=config_hash(cfg),
        started=started,
        finished=now_iso(),
        metrics=metrics,
        curves=curves or [],
        failed_trials=failed_trials,
    )


def _unique_path(base: Path) -> Path:
    if not base.exists():
        return base
    stamp = _dt.datetime.now().strftime("%Y%m%dT%H%M%S%f")
    print(f"warning: {base} exists; writing timestamped sibling", file=sys.stderr)
    return base.with_name(f"{base.stem}-{stamp}{base.suffix}")


def write_results(record: ResultRecord, out_dir: str) -> List[Path]:
    """Emit the summary document and one CSV per curve; returns paths.

    The summary echoes the config under ``config`` so the file itself
    reloads as a runnable configuration."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{record.kind}-{record.config_hash[:12]}"
    path = _unique_path(out / f"{stem}.summary.yaml")
    doc = {
        "config": record.config,
        "record": {
            "config_hash": record.config_hash,
            "version": __version__,
            "rng_contract": RNG_CONTRACT,
            "started": record.started,
            "finished": record.finished,
            "failed_trials": record.failed_trials,
            "metrics": record.metrics,
        },
    }
    with open(path, "w") as fh:
        yaml.dump(doc, fh, Dumper=_SUMMARY_DUMPER, sort_keys=False, default_flow_style=False)
    written = [path]
    for curve in record.curves:
        path = _unique_path(out / f"{stem}-{curve.name}.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(curve.header)
            for row in curve.rows:
                w.writerow([repr(float(x)) if isinstance(x, float) else x for x in row])
        written.append(path)
    return written
