"""CLI frontends report bad input and a failed cluster run as one error line."""

from pathlib import Path

import pytest

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


@pytest.mark.parametrize("mb", ["0", "-1"])
def test_sweep_rejects_non_positive_cache_cap(capsys, tmp_path, mb):
    argv = ["--workloads", "halo", "--machines", "fat-tree-32-r2-l2",
            "--cache-dir", str(tmp_path / "cache"), "--cache-max-mb", mb]
    assert main_sweep(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("sweep error: --cache-max-mb must be > 0")
    assert not (tmp_path / "cache").exists()
