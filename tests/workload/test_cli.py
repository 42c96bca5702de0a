"""CLI frontends: result rows, and bad input or a failed cluster run as one
error line."""

import re
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


#: The popped / class / digest rows scripts/ci.sh's fault smoke parses,
#: for a World run (ledger rows) and two cluster runs (byte counts).
PINNED_ROWS = {
    "fault-world": (main_fault, [
        "faults_gh200.jsonl", "--workload", "pingpong", "--machine", "gh200-2x4",
    ], [
        "popped    5742",
        "  class am                   19200 bytes",
        "  class rndv                 819200 bytes",
        "  digest series             8db306e991e09c38",
    ]),
    "fault-cluster": (main_fault, [
        "faults_fattree512.jsonl", "--workload", "halo", "--machine",
        "fat-tree-32-r2-l2", "--param", "iters=2", "--param", "chunks=2",
    ], [
        "popped    801",
        "  class shard                134217728 bytes",
        "  digest msg                b0142af47d18c8d3",
        "  digest series             804ca7760ad3dcd2",
        "  digest steps_shard0       41ddede9415e53be",
        "  digest steps_shard1       3252afe0f8fa2766",
        "  digest steps_shard2       41ddede9415e53be",
        "  digest steps_shard3       7a655354e5968dcd",
    ]),
    "replay-cluster": (main_replay, [
        "llm16.jsonl", "--machine", "fat-tree-16-n4-l2",
    ], [
        "popped    246",
        "  class dp-allreduce         524288 bytes",
        "  class pp-activation        524288 bytes",
        "  class pp-gradient          524288 bytes",
        "  class replay-barrier       120 bytes",
        "  digest msg                698663424da876de",
        "  digest schedule           f195463793e9831f",
        "  digest series             c7636486ffcfa04a",
        "  digest steps_shard0       5db42f84a3b20ece",
        "  digest steps_shard1       f4e8c297071ba21f",
        "  digest steps_shard2       ce9bccfe2bad43ee",
        "  digest steps_shard3       0279df128d9ae110",
    ]),
}


@pytest.mark.parametrize("case", sorted(PINNED_ROWS))
def test_result_rows_pinned(capsys, case):
    main, argv, rows = PINNED_ROWS[case]
    assert main([str(SCHEDULES / argv[0])] + argv[1:]) == 0
    out = capsys.readouterr().out
    assert re.findall(r"^(?:popped|  class|  digest).*$", out, re.M) == rows


@pytest.mark.parametrize("main, prefix, argv", [
    (main_sweep, "sweep", ["--workloads", "pingpong", "--machines", "gh200-1x4",
                           "--no-cache", "--param", "foo=1"]),
    (main_fault, "fault", [str(SCHEDULES / "faults_fattree512.jsonl"), "--workload", "halo",
                           "--machine", "fat-tree-32-r2-l2", "--param", "bogus=2"]),
])
def test_unknown_param_is_one_error_line(capsys, main, prefix, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{prefix} error: workload ") and "has no parameter" in err
    assert "Traceback" not in err
