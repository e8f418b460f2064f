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


def _class_names(annotation, classes) -> frozenset:
    """The library classes an annotation names; a string annotation is
    parsed first."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval")
    names = (n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(annotation)
             if isinstance(n, (ast.Name, ast.Attribute))) if annotation else ()
    return frozenset(name for name in names if name in classes)


def _value_classes(value, bound, returns) -> frozenset:
    """The library classes an assigned value may be: a name's bindings,
    a call's return annotation (a class's own name for a constructor),
    either branch of a conditional expression."""
    if isinstance(value, ast.Name):
        return bound.get(value.id, frozenset())
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        return returns.get(name, frozenset())
    if isinstance(value, ast.IfExp):
        return _value_classes(value.body, bound, returns) | _value_classes(value.orelse, bound,
                                                                              returns)
    return frozenset()


def _scope(fn, outer, classes, returns, owner):
    """Names bound from library classes in a function: its annotated
    parameters, ``self`` or ``cls`` of a method of the class ``owner``,
    and names assigned from a bound name or a call (flow-insensitive,
    as the union over all the function's assignments)."""
    bound = dict(outer)
    params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
    for i, arg in enumerate(params):
        types = _class_names(arg.annotation, classes)
        if i == 0 and owner in classes:
            types = frozenset([owner])
        if types:
            bound[arg.arg] = types
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            types = _value_classes(node.value, bound, returns)
            for target in node.targets:
                if isinstance(target, ast.Name) and types:
                    bound[target.id] = bound.get(target.id, frozenset()) | types
    return bound


def _attribute_owners(node, bound, classes, returns, owner=None):
    """(attribute node, classes its object is bound from or None) for
    each attribute read on a name, each in its own function's scope."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inner = _scope(child, bound, classes, returns, owner)
            yield from _attribute_owners(child, inner, classes, returns)
            continue
        if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
            name = child.value.id
            yield child, frozenset([name]) if name in classes else bound.get(name)
        yield from _attribute_owners(child, bound, classes, returns,
                                     child.name if isinstance(child, ast.ClassDef) else None)


def _references(tree, classes, returns, strings):
    """(name, qualifier, line) for each use of a name in code. A bare
    name can only reach a top-level definition (qualifier ""); an
    attribute read on a name is qualified by the library classes that
    name is bound from (the class itself, an annotated parameter,
    ``self``, or a variable assigned a constructor call or the call of
    a function whose return annotation names the class), else None; a
    constructor keyword is not a use of its field. With ``strings``, a
    string constant, which is how the benchmark names what it patches,
    reaches any definition (qualifier None); the library itself names
    nothing by string, and its strings (config keys, messages) would
    hide dead names. Comments and docstrings are not code, and import
    statements bind names without using them."""
    owners = {id(node): q for node, q in _attribute_owners(tree, {}, classes, returns)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, "", node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, owners.get(id(node)), node.lineno
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, None, node.lineno


def _reaches(qualifier, owner, strict) -> bool:
    """Whether a use qualified so reaches a definition of class ``owner``
    (None: top level). ``strict``: only a read through a name bound from
    ``owner`` does, as for a field whose name another class carries."""
    if qualifier == "":
        return owner is None
    if qualifier is None:
        return not strict
    return owner in qualifier


def unreferenced_names(package=PACKAGE, readers=PERFBENCH):
    """Public names of ``package`` that nothing in the package (its
    ``__init__`` re-exports aside) or in ``readers/*.py`` uses outside
    the name's own definition. A dataclass field whose name another
    public class also carries must be read through a name bound from
    its own class (see ``_references``)."""
    sources = {p: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))
               if p.name != "__init__.py"}
    definitions = [(path, name, owner, node) for path, tree in sources.items()
                   for name, owner, node in _public_definitions(tree)]
    classes = {name for _, name, _, node in definitions if isinstance(node, ast.ClassDef)}
    returns = {name: frozenset([name]) for name in classes}
    for tree in sources.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
                returns[node.name] = (returns.get(node.name, frozenset())
                                      | _class_names(node.returns, classes))
    carriers = {}
    for _, name, owner, _ in definitions:
        if owner:
            carriers.setdefault(name, set()).add(owner)
    uses = [(path, ref) for path, tree in sources.items()
            for ref in _references(tree, classes, returns, strings=False)]
    uses += [(path, ref) for path in sorted(readers.glob("*.py"))
             for ref in _references(ast.parse(path.read_text()), classes, returns, strings=True)]
    missing = []
    for path, name, owner, node in definitions:
        strict = isinstance(node, ast.AnnAssign) and len(carriers[name]) > 1
        if not any(n == name and _reaches(q, owner, strict)
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


def test_guard_needs_a_bound_read_of_a_shared_field_name(tmp_path):
    package, readers = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    readers.mkdir()
    (package / "mod.py").write_text(textwrap.dedent('''
        from dataclasses import dataclass


        @dataclass
        class Config:
            j: int
            seed: int


        @dataclass
        class Batch:
            values: list
            j: int
            seed: int


        @dataclass
        class Report:
            seed: int


        def draw(cfg: Config) -> "Batch":
            return Batch([cfg.j], cfg.j, 0)


        def report(flag, cfg: Config):
            rep = Report(1) if flag else draw(cfg)
            other = rep
            return draw(cfg).values, other.seed, cfg.seed
    '''))
    (readers / "bench.py").write_text(
        "import mod\n\n\ndef read(prob):\n    return prob.j, mod.report(True, None)\n")
    # Batch.j is read only as cfg.j and prob.j, on other classes' names;
    # Batch.seed and Report.seed are reached through the conditional's
    # two branches, Config.seed through the annotated parameter.
    assert unreferenced_names(package, readers) == ["Batch.j"]
