"""tools/surface.py counts source lines and settable parameters."""

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
