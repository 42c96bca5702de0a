"""Helpers for the analyzer test suite (the in-memory ``analyze`` fixture
lives in the top-level conftest, shared with tests/san)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analyze.model import Project
from repro.analyze.registry import all_passes
from repro.analyze.rules import run_passes

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
REPRO_SRC = REPO_ROOT / "src" / "repro"


@pytest.fixture
def analyze_path():
    """Analyze files/directories on disk; returns the findings."""

    def run(*paths, only=None):
        return run_passes(Project.load([Path(p) for p in paths]), all_passes(), only=only)

    return run


def rules_of(findings):
    return sorted({f.rule for f in findings})
