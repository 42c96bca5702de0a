"""Each repo-invariant rule fires (positive) and stays quiet (negative)
when driven through the analyzer on a core module."""

import textwrap

from .conftest import rules_of

CASES = [
    ("wallclock",
     "import time\n\ndef f():\n    return time.monotonic()\n",
     "def f(now):\n    return now\n"),
    ("raw-units",
     "DELAY = 1e-6\n",
     "from repro.units import us\nDELAY = us(1)\n"),
    ("dropped-return",
     "def body():\n    yield 1\n    return 42\n\n"
     "def go(engine):\n    engine.process(body())\n",
     "def body():\n    yield 1\n    return 42\n\n"
     "def go(engine):\n    ev = engine.process(body())\n    return ev\n"),
    ("module-ownership",
     "def f(x):\n    print(x)\n",
     "def f(obs, x):\n    obs.instant('lane', 'msg', 0)\n"),
    ("eager-obs-payload",
     "def f(engine, x):\n    engine.trace(f'value {x}')\n",
     "def f(engine, x):\n"
     "    obs = engine.obs\n"
     "    if obs is not None:\n"
     "        obs.instant('lane', f'value {x}', 0)\n"),
    ("module-ownership",
     "def f(fabric, desc):\n    fabric.start_transfer(desc)\n",
     "def f(fabric, desc):\n    fabric.dataplane.put(desc)\n"),
]


def test_each_invariant_rule_positive_and_negative(analyze):
    for rule, bad, good in CASES:
        core = "src/repro/sim/mod.py"
        hits = analyze({core: textwrap.dedent(bad)}, only=[rule])
        assert rules_of(hits) == [rule], f"{rule}: expected a finding"
        clean = analyze({core: textwrap.dedent(good)}, only=[rule])
        assert clean == [], f"{rule}: false positive on {clean}"
