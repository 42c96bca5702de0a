"""The shipped examples must sanitize clean (zero findings)."""

from pathlib import Path

import pytest

from repro.san.cli import list_checks, main, resolve_target, sanitize_script

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


@pytest.mark.parametrize("name", ["quickstart", "jacobi_halo"])
def test_example_sanitizes_clean(name):
    report = sanitize_script(EXAMPLES / f"{name}.py")
    assert report.ok, report.render()
    assert report.findings == []
    assert len(report.trace) > 0


def test_cli_list_checks(capsys):
    assert main(["--list-checks"]) == 0
    out = capsys.readouterr().out
    for check in ("double-pready", "data-race", "send-overwrite", "wallclock"):
        assert check in out


def test_list_checks_covers_both_kinds():
    text = list_checks()
    assert "dynamic checks" in text and "static rules" in text
    # Static section comes from the unified analyzer registry.
    assert "det-unordered-iter" in text and "module-ownership" in text


def test_resolve_target_rejects_unknown():
    with pytest.raises(FileNotFoundError):
        resolve_target("no-such-example")


def test_cli_clean_run_exits_zero(capsys, monkeypatch):
    monkeypatch.chdir(EXAMPLES.parent)
    assert main(["quickstart"]) == 0
    assert "san: 0 findings" in capsys.readouterr().out
