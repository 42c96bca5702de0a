"""One registry: ids, families, and the CLI listings that share it."""

from repro.analyze.registry import all_passes, all_rules, render_rules
from repro.analyze.rules import FAMILIES
from repro.san.cli import list_checks

EXPECTED_RULES = {
    # repo invariants
    "wallclock", "raw-units", "dropped-return", "eager-obs-payload",
    "module-ownership",
    # effects
    "effect-illegal-yield", "effect-leaked-waiter",
    # determinism
    "det-unordered-iter", "det-unseeded-random",
    "det-id-order", "det-float-accum",
    # static happens-before
    "hb-read-unordered", "hb-send-overwrite",
    # captured transfer graphs
    "graph-capture-mutation",
}


def test_registry_contents_and_families():
    rules = all_rules()
    assert set(rules) == EXPECTED_RULES
    assert {r.family for r in rules.values()} == set(FAMILIES)
    for p in all_passes():
        for rule in p.rules.values():
            assert rule.family == p.family


def test_san_list_checks_covers_every_static_rule():
    text = list_checks()
    for rule_id in EXPECTED_RULES:
        assert rule_id in text, f"{rule_id} missing from san --list-checks"
    for folded in ("fabric-bypass", "fabric-mutation-bypass", "shard-shared-state",
                   "workload-bypass", "obs-bypass"):
        assert folded not in text, f"{folded} is a module-ownership row now"


def test_analyze_list_prints_the_registry(capsys):
    from repro.analyze.cli import main as analyze_main

    assert analyze_main(["--list"]) == 0
    assert capsys.readouterr().out.strip() == render_rules()
