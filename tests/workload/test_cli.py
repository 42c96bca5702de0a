"""CLI frontends report a failed cluster run as one error line."""

from pathlib import Path

from repro.workload.cli import main_fault, main_replay, main_sweep

SCHEDULES = Path(__file__).resolve().parents[2] / "examples" / "schedules"


def _one_error_line(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(f"{prefix} error: ") and "workers must be >= 1" in err
    assert "Traceback" not in err


def test_replay_reports_cluster_error(capsys):
    argv = [str(SCHEDULES / "llm16.jsonl"), "--machine", "fat-tree-16-n4-l2",
            "--shards", "0"]
    assert main_replay(argv) == 1
    _one_error_line(capsys, "replay")


def test_fault_reports_cluster_error(capsys):
    argv = [str(SCHEDULES / "faults_fattree512.jsonl"), "--workload", "halo",
            "--machine", "fat-tree-32-r2-l2", "--shards", "0"]
    assert main_fault(argv) == 1
    _one_error_line(capsys, "fault")


def test_sweep_reports_cluster_error(capsys):
    argv = ["--workloads", "halo", "--machines", "fat-tree-32-r2-l2",
            "--no-cache", "--shards", "0"]
    assert main_sweep(argv) == 1
    _one_error_line(capsys, "sweep")
