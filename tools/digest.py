"""Digests of the CLI smoke configs: one sha256 per run's results.

Usage: python3 tools/digest.py [--against FILE] [NAME ...]
       (default: every config)

Runs each named config of ``tests/test_cli.py::SMOKE`` in process (no
files are written) and prints ``<sha256>  <name>``; a name outside
``SMOKE`` exits 2, listing the known names, before any config runs.
The digest covers the record's metrics, every curve's name, header and
rows, and the config hash; timestamps are left out. Run it before and
after a change that must not move any result: identical lines mean
identical outputs.

With ``--against FILE``, a saved output of this tool, each line is also
compared with FILE's line for the same config: the tool exits 1 naming
every config whose digest moved or that FILE lacks, and exits 2 before
any config runs when FILE cannot be read or holds a line of another form.
"""

from __future__ import annotations

import argparse
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


def read_digests(path) -> dict:
    """{name: digest} from a saved output of this tool; raises ValueError
    on a line that is not ``<sha256>  <name>``."""
    saved = {}
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        d, _, name = line.partition("  ")
        if len(d) != 64 or set(d) - set("0123456789abcdef") or not name:
            raise ValueError(f"line {number} is not '<sha256>  <name>': {line!r}")
        saved[name] = d
    return saved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="digest", description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME")
    parser.add_argument("--against", metavar="FILE", help="a saved output to compare with")
    args = parser.parse_args(argv)
    known = _smoke_module().SMOKE
    unknown = [name for name in args.names if name not in known]
    if unknown:
        print(f"digest: unknown config {', '.join(unknown)}; known: {', '.join(sorted(known))}",
              file=sys.stderr)
        return 2
    saved = None
    if args.against is not None:
        try:
            saved = read_digests(args.against)
        except (OSError, UnicodeDecodeError, ValueError) as exc:
            print(f"digest: cannot read {args.against}: {exc}", file=sys.stderr)
            return 2
    moved = []
    for name, d in digests(args.names):
        print(f"{d}  {name}")
        if saved is not None and saved.get(name) != d:
            moved.append(name)
    if moved:
        print(f"digest: moved against {args.against}: {', '.join(moved)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
