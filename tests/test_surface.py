"""tools/surface.py counts source lines and settable parameters, and
every public name of the library has a reader outside the tests."""

import ast
import importlib.util
import textwrap
from pathlib import Path

SURFACE = Path(__file__).resolve().parent.parent / "tools" / "surface.py"

FIXTURE = textwrap.dedent('''
    from dataclasses import dataclass, field
    from typing import ClassVar


    def public(a, b=1, *args, c, d=2, **kwargs):
        def nested(x, y=0):
            return x
        return a


    def _private(a, b=1):
        return a


    class Public:
        def __init__(self, x, y=0.5):
            self.x = x

        def method(self, u, v=None):
            return u

        @staticmethod
        def static(p):
            return p

        @classmethod
        def build(cls, q, r=3):
            return cls(q)

        @property
        def size(self):
            return 1

        def _helper(self, z):
            return z

        def __call__(self, w):
            return w


    class _Private:
        def __init__(self, a, b=1):
            self.a = a

        def method(self, c):
            return c


    @dataclass(frozen=True)
    class Record:
        kind: str
        count: int = 0
        tags: list = field(default_factory=list)
        cached: dict = field(init=False)
        width: float = field(default=1.0)
        LIMIT: ClassVar[int] = 9
        plain = 4

        def scaled(self, k):
            return k
''')


def _load():
    spec = importlib.util.spec_from_file_location("surface", SURFACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_a_fixture_module(tmp_path, capsys):
    (tmp_path / "fixture.py").write_text(FIXTURE)
    (tmp_path / "empty.py").write_text("")
    surface = _load()
    # public: a, b, *args, c, d, **kwargs (6; b and d defaulted).
    # Public: x, y; u, v; p; q, r (7; y, v and r defaulted).
    # Record: kind, count, tags, width, then scaled's k (5; 3 defaulted).
    assert surface.surface(tmp_path) == (len(FIXTURE.splitlines()), 18, 8)
    assert surface.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"lines: {len(FIXTURE.splitlines())}",
        "settable parameters: 18 (8 with defaults, 10 without)",
    ]


# ---------------------------------------------------------------------------
# Every public name of the library is reached from the library or the
# benchmark, not only from tests.

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ballpoly"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _is_dataclass(cls) -> bool:
    return any(ast.unparse(d).split("(")[0] == "dataclass" for d in cls.decorator_list)


def _public_definitions(tree):
    """(name, owner class or None, node) for each public top-level
    function and class, each public method of a public class and each
    field of a public dataclass."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, None, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item.name, node.name, item
                    elif (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                          and _is_dataclass(node)):
                        yield item.target.id, node.name, item


def _references(tree, classes, strings):
    """(name, qualifier, line) for each use of a name in code. A bare
    name can only reach a top-level definition (qualifier ""); an
    attribute is qualified by the class it is read from when that is a
    library class; a constructor keyword is not a use of its field. With
    ``strings``, a string constant, which is how the benchmark names
    what it patches, reaches any definition (qualifier None); the
    library itself names nothing by string, and its strings (config
    keys, messages) would hide dead names. Comments and docstrings are
    not code, and import statements bind names without using them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, "", node.lineno
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            yield node.attr, owner if owner in classes else None, node.lineno
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, None, node.lineno


def unreferenced_names(package=PACKAGE, readers=PERFBENCH):
    """Public names of ``package`` that nothing in the package (its
    ``__init__`` re-exports aside) or in ``readers/*.py`` uses outside
    the name's own definition."""
    sources = {p: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))
               if p.name != "__init__.py"}
    definitions = [(path, name, owner, node) for path, tree in sources.items()
                   for name, owner, node in _public_definitions(tree)]
    classes = {name for _, name, _, node in definitions if isinstance(node, ast.ClassDef)}
    uses = [(path, ref) for path, tree in sources.items()
            for ref in _references(tree, classes, strings=False)]
    uses += [(path, ref) for path in sorted(readers.glob("*.py"))
             for ref in _references(ast.parse(path.read_text()), classes, strings=True)]
    missing = []
    for path, name, owner, node in definitions:
        if not any(n == name and (q is None or q == (owner or ""))
                   and not (p == path and node.lineno <= line <= node.end_lineno)
                   for p, (n, q, line) in uses):
            missing.append(f"{owner}.{name}" if owner else name)
    return missing


def test_every_public_name_is_reached():
    assert unreferenced_names() == []


def test_guard_finds_names_only_tests_reach(tmp_path):
    package, readers = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    readers.mkdir()
    (package / "__init__.py").write_text("from .mod import Body, helper\n")
    (package / "mod.py").write_text(textwrap.dedent('''
        from dataclasses import dataclass


        def helper(x):
            return helper(x - 1) if x else 0


        def patched():
            return 0


        class Body:
            def size(self):
                return 1

            def ball(self):
                return 2

            def lonely(self):
                # lonely is named in this comment only
                return "lonely value"


        class Other:
            def ball(self):
                return 3


        @dataclass
        class Report:
            value: float
            spare: int


        def run():
            return Body().size() + Other.ball(None) + Report(1.0, spare=2).value
    '''))
    (readers / "bench.py").write_text(
        "import mod\n\nTARGETS = [(mod, \"patched\")]\nmod.run()\n")
    # helper calls only itself and is re-exported; Body.ball loses to the
    # qualified Other.ball; lonely appears in a comment and inside a
    # string; Report.spare is only passed to the constructor.
    assert unreferenced_names(package, readers) == ["helper", "Body.ball", "Body.lonely",
                                                    "Report.spare"]
