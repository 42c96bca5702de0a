"""End-to-end CLI behaviour: findings, exit codes, unparseable files."""

import textwrap

from repro.analyze.cli import main

from .conftest import FIXTURES


def write_buggy(tmp_path, name="buggy.py"):
    src = textwrap.dedent("""
        def pick(n):
            lanes = {i * 2 for i in range(n)}
            for lane in lanes:
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
    for family_rule in ("module-ownership", "det-unordered-iter"):
        assert family_rule in out


def test_repo_analyzes_clean(capsys):
    from .conftest import REPRO_SRC

    code, out = run(capsys, REPRO_SRC)
    assert code == 0, out
    assert "analyze: 0 finding(s)" in out

