"""Project model: per-module functions and their owned scopes."""

import ast
import textwrap

from repro.analyze.model import Project, owned_nodes


def load(**sources):
    return Project.from_sources(
        {path: textwrap.dedent(src) for path, src in sources.items()}
    )


def fn(project, qualname):
    hits = [f for m in project.modules for f in m.functions if f.qualname == qualname]
    assert len(hits) == 1, f"{qualname}: {hits}"
    return hits[0]


def yields(fi):
    return any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in owned_nodes(fi.node))


def test_qualnames_and_generators():
    p = load(**{"m.py": """
        def plain():
            return 1

        def gen():
            yield 1

        def outer():
            def inner():
                yield 2
            return inner

        class C:
            def method(self):
                pass
    """})
    assert [f.qualname for f in p.modules[0].functions] == [
        "plain", "gen", "outer", "outer.<locals>.inner", "C.method",
    ]
    assert not yields(fn(p, "plain"))
    assert yields(fn(p, "gen"))
    # the nested generator's yield does not leak into its owner
    assert not yields(fn(p, "outer"))
    assert yields(fn(p, "outer.<locals>.inner"))
