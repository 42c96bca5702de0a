"""The determinism lint family."""

import textwrap

from .conftest import FIXTURES, rules_of


def src(body):
    return {"src/repro/sim/m.py": textwrap.dedent(body)}


def test_for_over_set_flagged(analyze):
    findings = analyze(src("""
        def pick(n):
            lanes = {i * 2 for i in range(n)}
            for lane in lanes:
                return lane
    """), only=["det-unordered-iter"])
    assert rules_of(findings) == ["det-unordered-iter"]


def test_set_pop_flagged(analyze):
    findings = analyze(src("""
        def one(xs):
            s = set(xs)
            return s.pop()
    """), only=["det-unordered-iter"])
    assert rules_of(findings) == ["det-unordered-iter"]


def test_order_sinks_over_sets_flagged(analyze):
    findings = analyze(src("""
        def sinks(xs):
            s = set(xs)
            a = list(s)
            b = min(s)
            return a, b
    """), only=["det-unordered-iter"])
    assert len(findings) == 2


def test_sorted_set_membership_and_dict_iteration_clean(analyze):
    findings = analyze(src("""
        def ok(xs, table):
            s = set(xs)
            ordered = sorted(s)
            hit = 3 in s
            eq = s == set(ordered)
            for key in table:          # dict: insertion-ordered, fine
                pass
            lst = [1, 2]
            lst.pop()                  # list.pop is deterministic
            return ordered, hit, eq
    """))
    assert findings == []


def test_set_algebra_keeps_setness(analyze):
    findings = analyze(src("""
        def diff(a, b):
            s = set(a)
            for x in s - set(b):
                return x
    """), only=["det-unordered-iter"])
    assert rules_of(findings) == ["det-unordered-iter"]


def test_float_accum_over_set_flagged(analyze):
    findings = analyze(src("""
        def total(samples):
            seen = {float(s) for s in samples}
            direct = sum(seen)
            acc = 0.0
            for s in seen:
                acc += s
            return direct, acc
    """), only=["det-float-accum"])
    assert len(findings) == 2


def test_sum_over_list_clean(analyze):
    findings = analyze(src("""
        def total(samples):
            return sum([float(s) for s in samples])
    """), only=["det-float-accum"])
    assert findings == []


def test_fixture_route_selection_bugs(analyze_path):
    findings = analyze_path(FIXTURES / "determinism_bug.py")
    assert rules_of(findings) == [
        "det-float-accum", "det-unordered-iter",
    ]
