"""End-to-end CLI behaviour: suppressions, exit codes, unparseable files."""

import textwrap

from repro.analyze.cli import main
from repro.analyze.suppress import scan_suppressions

from .conftest import FIXTURES


def write_buggy(tmp_path, name="buggy.py", suppress=""):
    src = textwrap.dedent(f"""
        def pick(n):
            lanes = {{i * 2 for i in range(n)}}
            for lane in lanes:{suppress}
                return lane
    """)
    path = tmp_path / name
    path.write_text(src)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def test_findings_exit_one_with_summary(capsys, tmp_path):
    path = write_buggy(tmp_path)
    code, out = run(capsys, path)
    assert code == 1
    assert "[det-unordered-iter]" in out
    assert "analyze: 1 finding(s)" in out


def test_inline_suppression_and_count(capsys, tmp_path):
    path = write_buggy(
        tmp_path, suppress="  # repro: ignore[det-unordered-iter]"
    )
    code, out = run(capsys, path)
    assert code == 0
    assert "1 suppressed" in out


def test_rule_filter_and_unknown_rule(capsys, tmp_path):
    path = write_buggy(tmp_path)
    code, _ = run(capsys, path, "--rule", "det-float-accum")
    assert code == 0                      # other rules not run
    assert main([str(path), "--rule", "no-such-rule"]) == 2


def test_unparseable_file_is_a_usage_error(capsys, tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("x = 1\ndef f(:\n")
    code = main([str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2
    [line] = err.splitlines()
    assert line.startswith(f"analyze: {bad}:2: ")
    assert "Traceback" not in out + err


def test_fixture_dir_reports_every_family(capsys):
    code, out = run(capsys, FIXTURES)
    assert code == 1
    for family_rule in ("effect-illegal-yield", "det-unordered-iter"):
        assert family_rule in out


def test_repo_analyzes_clean(capsys):
    from .conftest import REPRO_SRC

    code, out = run(capsys, REPRO_SRC)
    assert code == 0, out
    assert "analyze: 0 finding(s)" in out


# -- suppression scanner unit cases -----------------------------------------

def test_scan_suppressions_grammar():
    table = scan_suppressions(textwrap.dedent("""\
        x = 1  # repro: ignore[rule-a]
        y = 2  # repro: ignore[rule-a, rule-b]
        z = 3  # repro: ignore
        w = 4  # repro: ignore[]
        plain = 5
    """))
    assert table[1] == {"rule-a"}
    assert table[2] == {"rule-a", "rule-b"}
    assert table[3] is None
    assert table[4] is None
    assert 5 not in table


def test_suppression_on_line_above(analyze):
    findings = analyze({"src/repro/sim/m.py": textwrap.dedent("""
        def one(xs):
            s = set(xs)
            # repro: ignore[det-unordered-iter]
            return s.pop()
    """)}, only=["det-unordered-iter"])
    assert findings == []


def test_suppression_is_rule_specific(analyze):
    findings = analyze({"src/repro/sim/m.py": textwrap.dedent("""
        def one(xs):
            s = set(xs)
            return s.pop()  # repro: ignore[some-other-rule]
    """)}, only=["det-unordered-iter"])
    assert len(findings) == 1
