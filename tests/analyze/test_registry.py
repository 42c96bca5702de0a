"""One registry: ids, families, the CLI listings that share it, and the
DESIGN.md §13 audit table every rule must have a row in."""

import re

from repro.analyze.registry import all_passes, all_rules, render_rules
from repro.analyze.rules import FAMILIES
from repro.san.cli import list_checks

from .conftest import REPO_ROOT

EXPECTED_RULES = {
    # repo invariants
    "wallclock", "raw-units", "module-ownership",
    # determinism
    "det-unordered-iter", "det-float-accum",
}

#: Rules the audit deleted; none may come back without a new audit row.
DELETED_RULES = {
    "dropped-return", "eager-obs-payload", "effect-leaked-waiter",
    "det-unseeded-random", "det-id-order", "hb-read-unordered",
    "hb-send-overwrite", "graph-capture-mutation", "effect-illegal-yield",
}


def audit_rows():
    """``rule id -> verdict`` from the DESIGN.md §13 audit table."""
    text = (REPO_ROOT / "DESIGN.md").read_text()
    section = text[text.index("## 13."):text.index("## 14.")]
    table = section[section.index("| rule |"):].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines()[2:]:
        cells = [c.strip() for c in line.strip("|").split("|")]
        rule = re.fullmatch(r"`([a-z-]+)`", cells[0]).group(1)
        assert rule not in rows, f"{rule}: two audit rows"
        rows[rule] = cells[-1]
    return rows


def test_registry_contents_and_families():
    rules = all_rules()
    assert set(rules) == EXPECTED_RULES
    assert {r.family for r in rules.values()} == set(FAMILIES)
    for p in all_passes():
        for rule in p.rules.values():
            assert rule.family == p.family


def test_every_rule_has_an_audit_row():
    rows = audit_rows()
    assert {r for r, verdict in rows.items() if verdict == "kept"} == set(all_rules())
    assert {r for r, verdict in rows.items() if verdict == "deleted"} == DELETED_RULES
    assert len(rows) == len(EXPECTED_RULES | DELETED_RULES)


def test_san_list_checks_covers_every_static_rule():
    text = list_checks()
    for rule_id in EXPECTED_RULES:
        assert rule_id in text, f"{rule_id} missing from san --list-checks"
    for gone in DELETED_RULES | {"fabric-bypass", "fabric-mutation-bypass",
                                 "shard-shared-state", "workload-bypass", "obs-bypass"}:
        assert gone not in text, f"{gone} is not a static rule"


def test_analyze_list_prints_the_registry(capsys):
    from repro.analyze.cli import main as analyze_main

    assert analyze_main(["--list"]) == 0
    assert capsys.readouterr().out.strip() == render_rules()
