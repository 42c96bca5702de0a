"""Project model: symbol tables and call resolution."""

import ast
import textwrap

from repro.analyze.model import Project


def load(**sources):
    return Project.from_sources(
        {path: textwrap.dedent(src) for path, src in sources.items()}
    )


def fn(project, qualname):
    hits = [f for f in project.functions if f.qualname == qualname]
    assert len(hits) == 1, f"{qualname}: {hits}"
    return hits[0]


def callees(project, fi):
    """What each call in ``fi``'s body (lambdas included) resolves to."""
    return [project.resolve_call(fi, node.func)
            for node in ast.walk(fi.node) if isinstance(node, ast.Call)]


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
    assert not fn(p, "plain").is_generator
    assert fn(p, "gen").is_generator
    # the nested generator's yield does not leak into its owner
    assert not fn(p, "outer").is_generator
    assert fn(p, "outer.<locals>.inner").is_generator
    assert fn(p, "C.method").cls == "C"


def test_resolve_bare_name_and_import_edge():
    p = load(**{
        "pkg/util.py": """
            def helper():
                return 1
        """,
        "pkg/use.py": """
            from pkg.util import helper as h

            def caller():
                return h()
        """,
    })
    caller = fn(p, "caller")
    helper = fn(p, "helper")
    assert callees(p, caller) == [helper]


def test_resolve_self_method_and_lambda_fold():
    p = load(**{"m.py": """
        def free():
            return 0

        class C:
            def a(self):
                return self.b()

            def b(self):
                cb = lambda: free()
                return cb
    """})
    a, b, free = fn(p, "C.a"), fn(p, "C.b"), fn(p, "free")
    assert callees(p, a) == [b]
    assert callees(p, b) == [free]          # a lambda's call resolves in its owner


def test_unresolvable_calls_are_unknown():
    p = load(**{"m.py": """
        def caller(obj):
            obj.anything()
            unknown_name()
    """})
    assert callees(p, fn(p, "caller")) == [None, None]
