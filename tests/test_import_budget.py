"""Set-up imports only what a run uses (DESIGN.md §15, import boundaries).

Each check runs in a fresh interpreter, since the suite's own process has
long since imported everything.  The deferred modules load on first use:
the shard executor when a cluster workload runs, NCCL and the apps inside
the exhibits that measure them, the collective schedules (``repro.pcoll``)
when a rank first runs a collective, the sanitizer's analysis when a
``Sanitizer`` is built, the instrumentation bus when a run attaches one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages and modules that no set-up may load.
DEFERRED = (
    "repro.shard",
    "repro.nccl",
    "repro.pcoll",
    "repro.apps",
    "repro.bench.apps",
    "repro.bench.coll",
    "repro.bench.multipath",
    "repro.san.report",
    "repro.san.sanitizer",
    "repro.san.checks",
    "repro.san.hb",
    "repro.san.clocks",
    "repro.obs",
)


def _loaded(code: str) -> list:
    """``repro`` modules a fresh interpreter holds after running ``code``."""
    report = "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code + report], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _deferred(modules: list) -> list:
    return [m for m in modules
            if any(m == d or m.startswith(d + ".") for d in DEFERRED)]


def test_benchmark_setup_loads_no_deferred_module():
    # The imports, lookups and machine builds of the host-time benchmark's
    # set-up, for all of its workloads.
    modules = _loaded(
        "import repro.bench.p2p, repro.dataplane.graph, repro.hw.faults\n"
        "import repro.hw.spec.generators, repro.hw.topology, repro.mpi.world\n"
        "import repro.workload.generators, repro.workload.registry, repro.workload.replay\n"
        "from repro.hw.params import ONE_NODE\n"
        "from repro.hw.spec.generators import resolve_machine\n"
        "from repro.hw.topology import Fabric\n"
        "from repro.mpi.world import World\n"
        "from repro.sim.engine import Engine\n"
        "from repro.workload.registry import get\n"
        "for name in ('fig4', 'fig5', 'table1', 'fig6', 'fig8', 'allreduce-node', 'halo'):\n"
        "    get(name)\n"
        "World(ONE_NODE)\n"
        "Fabric(Engine(), resolve_machine('fat-tree-512'))\n"
    )
    assert "repro.workload.cluster" in modules  # the registry did load
    assert _deferred(modules) == []


def test_registry_names_cluster_workloads_without_the_shard_executor():
    modules = _loaded(
        "from repro.workload.registry import names\n"
        "assert {'halo', 'allreduce-node'} <= set(names()), names()\n"
    )
    assert _deferred(modules) == []


def test_sanitizer_exports_resolve_on_first_use():
    modules = _loaded(
        "import repro.san as san\n"
        "from repro.san import record  # noqa: F401\n"
        "assert 'Sanitizer' not in vars(san)\n"
        "from repro.san import Finding, Report, Sanitizer\n"
        "from repro.san.report import Finding as F, Report as R\n"
        "from repro.san.sanitizer import Sanitizer as S\n"
        "assert (Finding, Report, Sanitizer) == (F, R, S)\n"
        "assert san.Sanitizer is S\n"
    )
    assert "repro.san.sanitizer" in modules


def test_dataplane_imports_first_in_a_fresh_interpreter():
    # The hw package must not load hw.topology: topology imports the
    # dataplane, whose descriptor imports repro.hw, so that would close an
    # hw -> dataplane -> hw import cycle.
    assert "repro.dataplane" in _loaded("import repro.dataplane\n")
    hw = _loaded("import repro.hw\n")
    assert [m for m in hw if m.startswith(("repro.dataplane", "repro.hw.topology"))] == []
    root = _loaded("import repro\nfrom repro import RankCtx, World  # noqa: F401\n")
    assert "repro.mpi.world" in root
    assert "repro.mpi" not in _loaded("import repro\n")
