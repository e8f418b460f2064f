"""Digests of the CLI smoke configs: one sha256 per run's results.

Usage: python3 tools/digest.py [NAME ...]   (default: every config)

Runs each named config of ``tests/test_cli.py::SMOKE`` in process (no
files are written) and prints ``<sha256>  <name>``; a name outside
``SMOKE`` exits 2, listing the known names, before any config runs.
The digest covers the record's metrics, every curve's name, header and
rows, and the config hash; timestamps are left out. Run it before and
after a change that must not move any result: identical lines mean
identical outputs.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMOKE_MODULE = ROOT / "tests" / "test_cli.py"


@functools.lru_cache(maxsize=None)
def _smoke_module():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("_smoke_configs", SMOKE_MODULE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _plain(x):
    """numpy scalars as their Python values, for JSON."""
    if hasattr(x, "item"):
        return x.item()
    raise TypeError(f"cannot digest {type(x).__name__}")


def digest(record) -> str:
    """sha256 over a ResultRecord's metrics, curves and config hash."""
    blob = json.dumps({
        "metrics": record.metrics,
        "curves": [[c.name, c.header, [list(row) for row in c.rows]] for c in record.curves],
        "config_hash": record.config_hash,
    }, sort_keys=True, default=_plain)
    return hashlib.sha256(blob.encode()).hexdigest()


def digests(names=None):
    """(name, digest) for each named smoke config, in the given order
    (default: every config, sorted)."""
    smoke = _smoke_module()
    from ballpoly import cli, config

    out = []
    for name in names or sorted(smoke.SMOKE):
        with contextlib.redirect_stderr(io.StringIO()):
            record = cli.run(config.validate(smoke.smoke_doc(name)))
        out.append((name, digest(record)))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    known = _smoke_module().SMOKE
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"digest: unknown config {', '.join(unknown)}; known: {', '.join(sorted(known))}",
              file=sys.stderr)
        return 2
    for name, d in digests(argv):
        print(f"{d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
