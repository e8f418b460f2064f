"""Size of the library's surface: source lines and settable parameters.

Usage: python3 tools/surface.py [PACKAGE_DIR]   (default: src/ballpoly)

Prints the line count of PACKAGE_DIR/*.py and the count of settable
library parameters, with and without defaults. A settable parameter is
a parameter of a public function, of a public method or of the
``__init__`` of a public class, minus ``self``/``cls``, or a field of a
public dataclass that its generated ``__init__`` sets (fields declared
with ``field(init=False)`` are not). Names starting with ``_`` are
private; ``__init__`` is the one dunder counted.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterable, Tuple

DEFAULT_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ballpoly"


def _name(node) -> str:
    """Last component of a name or attribute, else ''."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _function_params(fn, is_method: bool) -> Iterable[bool]:
    """One flag per settable parameter of ``fn``: True when it has a default."""
    a = fn.args
    positional = a.posonlyargs + a.args
    defaulted = [False] * (len(positional) - len(a.defaults)) + [True] * len(a.defaults)
    static = any(_name(d) == "staticmethod" for d in fn.decorator_list)
    if is_method and not static:
        defaulted = defaulted[1:]
    yield from defaulted
    yield from (d is not None for d in a.kw_defaults)
    if a.vararg:
        yield False
    if a.kwarg:
        yield False


def _dataclass_fields(cls: ast.ClassDef) -> Iterable[bool]:
    """One flag per field the dataclass ``__init__`` sets: True when it has a default."""
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and _name(value) == "field":
            kw = {k.arg: k.value for k in value.keywords}
            if isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False:
                continue
            yield "default" in kw or "default_factory" in kw
        else:
            yield value is not None


def module_params(tree: ast.Module) -> Iterable[bool]:
    """Flags (has a default) for every settable parameter of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield from _function_params(node, is_method=False)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if any(_name(d) == "dataclass" for d in node.decorator_list):
                yield from _dataclass_fields(node)
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and (item.name == "__init__" or not item.name.startswith("_"))):
                    yield from _function_params(item, is_method=True)


def surface(package: Path) -> Tuple[int, int, int]:
    """(source lines, settable parameters, those with a default)."""
    lines = params = defaults = 0
    for path in sorted(Path(package).glob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        for has_default in module_params(ast.parse(text)):
            params += 1
            defaults += has_default
    return lines, params, defaults


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else DEFAULT_PACKAGE
    lines, params, defaults = surface(package)
    print(f"lines: {lines}")
    print(f"settable parameters: {params} ({defaults} with defaults, "
          f"{params - defaults} without)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
