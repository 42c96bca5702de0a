"""Every code object under ``src/repro`` has its own profiler key.

cProfile and ``pstats`` key a function by ``(co_filename, co_firstlineno,
co_name)``.  Two code objects with one key (two comprehensions or two
lambdas opening on one line) fold into one row, and which of them the row
keeps depends on the hash seed, so a per-run call count moves between
processes of one commit.
"""

from collections import Counter
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _code_objects(const)


def test_no_two_code_objects_share_a_profiler_key():
    keys = Counter(
        (code.co_filename, code.co_firstlineno, code.co_name)
        for path in sorted(SRC.rglob("*.py"))
        for code in _code_objects(compile(path.read_text(), str(path), "exec"))
    )
    assert len(keys) > 1000
    assert [key for key, n in keys.items() if n > 1] == []
