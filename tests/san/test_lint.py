"""The repo-invariant rules (the analyzer's ``invariant`` family):
determinism, unit literals, dropped returns, eager obs payloads, and
the table-driven ``module-ownership`` rule."""

from pathlib import Path

import pytest

from repro.analyze.cli import main
from repro.analyze.passes import invariants

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
INVARIANTS = list(invariants.RULES)


@pytest.fixture
def lint(analyze):
    """Invariant findings for one in-memory module at ``src/repro/<rel>``."""

    def run(src, rel):
        return analyze({f"src/repro/{rel}": src}, only=INVARIANTS)

    return run


def _rules(findings):
    return [f.rule for f in findings]


# -- wallclock ---------------------------------------------------------------

def test_wallclock_call_flagged(lint):
    src = "import time\n\ndef f():\n    return time.time()\n"
    assert "wallclock" in _rules(lint(src, "sim/x.py"))


def test_random_module_flagged(lint):
    src = "import random\n\ndef f():\n    return random.random()\n"
    assert _rules(lint(src, "sim/x.py")).count("wallclock") >= 1


def test_numpy_random_flagged(lint):
    src = "import numpy as np\n\ndef f():\n    return np.random.rand()\n"
    assert "wallclock" in _rules(lint(src, "sim/x.py"))


def test_wallclock_unscoped_files_exempt(lint):
    src = "import time\n\ndef f():\n    return time.time()\n"
    assert lint(src, "bench/x.py") == []


def test_engine_now_is_fine(lint):
    src = "def f(engine):\n    return engine.now\n"
    assert lint(src, "sim/x.py") == []


# -- raw-units ---------------------------------------------------------------

def test_raw_unit_float_flagged(lint):
    src = "LATENCY = 7.8 * 1e-6\n"
    findings = lint(src, "cuda/x.py")
    assert _rules(findings) == ["raw-units"]
    assert "repro.units.us" in findings[0].message


def test_raw_unit_pow_flagged(lint):
    src = "SIZE = 4 * 1024 ** 2\n"
    findings = lint(src, "cuda/x.py")
    assert _rules(findings) == ["raw-units"]
    assert "MiB" in findings[0].message


def test_non_unit_literals_pass(lint):
    src = "X = 0.5\nY = 1024\nZ = 2e-5\n"
    assert lint(src, "cuda/x.py") == []


# -- dropped-return ----------------------------------------------------------

DROPPED = """
def worker():
    yield 1
    return 42

def spawn(engine):
    engine.process(worker())
"""

BOUND = """
def worker():
    yield 1
    return 42

def spawn(engine):
    ev = engine.process(worker())
    return ev
"""

NO_VALUE = """
def worker():
    yield 1

def spawn(engine):
    engine.process(worker())
"""


def test_dropped_return_flagged(lint):
    findings = lint(DROPPED, "sim/x.py")
    assert _rules(findings) == ["dropped-return"]
    assert "'worker'" in findings[0].message


def test_bound_process_event_passes(lint):
    assert lint(BOUND, "sim/x.py") == []


def test_valueless_body_passes(lint):
    assert lint(NO_VALUE, "sim/x.py") == []


# -- module-ownership: print in the core -------------------------------------

def test_print_in_core_flagged(lint):
    src = "def f(x):\n    print(x)\n"
    findings = lint(src, "sim/x.py")
    assert _rules(findings) == ["module-ownership"]
    assert "repro.obs" in findings[0].message


def test_cli_modules_may_print(lint):
    src = "def main():\n    print('report')\n"
    assert lint(src, "hw/spec/cli.py") == []


def test_print_outside_core_passes(lint):
    src = "def f(x):\n    print(x)\n"
    assert lint(src, "bench/x.py") == []


def test_other_append_calls_pass(lint):
    src = "def f(items, x):\n    items.append(x)\n"
    assert lint(src, "sim/x.py") == []


# -- eager-obs-payload -------------------------------------------------------

EAGER = """
def f(engine, x):
    engine.trace(f"value={x}")
"""

GUARDED = """
def f(engine, x):
    obs = engine.obs
    if obs is not None:
        obs.instant("lane", f"value={x}", ("gpu", 0))
"""

GUARDED_DOTTED = """
def f(self, x):
    if self.engine.obs is not None:
        self.engine.obs.instant("lane", f"value={x}", ("gpu", 0))
"""

EAGER_KWARG = """
def f(obs, x):
    obs.span("lane", "name", ("gpu", 0), 0.0, 1.0, detail=f"x={x}")
"""

PLAIN_PAYLOAD = """
def f(engine, x):
    engine.trace("launch", grid=x)
"""

ELSE_BRANCH = """
def f(engine, x):
    if engine.obs is not None:
        pass
    else:
        engine.trace(f"value={x}")
"""


def test_eager_fstring_trace_flagged(lint):
    findings = lint(EAGER, "sim/x.py")
    assert _rules(findings) == ["eager-obs-payload"]
    assert "f-string" in findings[0].message


def test_guarded_fstring_passes(lint):
    assert lint(GUARDED, "cuda/x.py") == []


def test_guarded_dotted_obs_passes(lint):
    assert lint(GUARDED_DOTTED, "mpi/x.py") == []


def test_eager_fstring_kwarg_flagged(lint):
    assert _rules(lint(EAGER_KWARG, "sim/x.py")) == ["eager-obs-payload"]


def test_plain_payload_passes(lint):
    assert lint(PLAIN_PAYLOAD, "sim/x.py") == []


def test_else_branch_not_guarded(lint):
    assert _rules(lint(ELSE_BRANCH, "sim/x.py")) == ["eager-obs-payload"]


def test_eager_rule_unscoped_files_exempt(lint):
    assert lint(EAGER, "bench/x.py") == []


# -- module-ownership: start_transfer belongs to dataplane/hw ----------------

START_TRANSFER = (
    "from repro.hw.links import start_transfer\n\n"
    "def f(engine, route, n):\n"
    "    return start_transfer(engine, route, n, name='x')\n"
)


def test_direct_start_transfer_flagged(lint):
    findings = lint(START_TRANSFER, "ucx/x.py")
    assert _rules(findings) == ["module-ownership", "module-ownership"]
    assert "dataplane" in findings[0].message


def test_dataplane_submission_passes(lint):
    src = (
        "def f(rt, a, b, n):\n"
        "    rt.fabric.dataplane.put(a, b, traffic_class='coll', name='x')\n"
        "    rt.fabric.dataplane.rma_put(a, b)\n"
        "    return rt.fabric.dataplane.control(a, b, n)\n"
    )
    assert lint(src, "mpi/x.py") == []


def test_dataplane_and_hw_modules_exempt(lint):
    assert lint(START_TRANSFER, "dataplane/plane.py") == []
    assert lint(START_TRANSFER, "hw/topology.py") == []


def test_unrelated_transfer_methods_pass(lint):
    src = "def f(bank, a, b):\n    return bank.transfer(a, b)\n"
    assert lint(src, "mpi/x.py") == []


# -- module-ownership: link-health writes belong to hw -----------------------

def test_link_field_writes_flagged_outside_hw(lint):
    src = (
        "def f(link):\n"
        "    link.up = False\n"
        "    link.bandwidth *= 0.5\n"
    )
    findings = lint(src, "ucx/x.py")
    assert _rules(findings) == ["module-ownership", "module-ownership"]
    assert "LinkState API" in findings[0].message
    assert lint(src, "hw/links.py") == []


def test_dataplane_ledger_owns_outstanding_bytes(lint):
    src = "def charge(link, n):\n    link.outstanding_bytes += n\n"
    assert lint(src, "dataplane/ledger.py") == []
    assert _rules(lint(src, "mpi/x.py")) == ["module-ownership"]


def test_link_state_epoch_write_flagged_outside_hw(lint):
    src = "def bump(fabric):\n    fabric.link_state.epoch = 7\n"
    findings = lint(src, "ucx/x.py")
    assert _rules(findings) == ["module-ownership"]
    assert "fabric.link_state.epoch" in findings[0].message


def test_bare_epoch_write_not_flagged(lint):
    src = "class Req:\n    def start(self):\n        self.epoch = self.epoch + 1\n"
    assert lint(src, "partitioned/x.py") == []


# -- module-ownership: World/ClusterJob belong to workload/mpi/shard ---------

def test_direct_world_construction_flagged(lint):
    src = (
        "from repro.mpi.world import World\n\n"
        "def f(cfg, main):\n"
        "    return World(cfg).run(main, nprocs=2)\n"
    )
    findings = lint(src, "bench/x.py")
    assert _rules(findings) == ["module-ownership"]
    assert "run_ranks" in findings[0].message


def test_direct_cluster_job_flagged(lint):
    src = (
        "from repro.shard import ClusterJob\n\n"
        "def f(spec):\n"
        "    return ClusterJob(spec, 'halo').run()\n"
    )
    assert _rules(lint(src, "perf/x.py")) == ["module-ownership"]


def test_attribute_launcher_flagged(lint):
    src = "def f(mod, cfg):\n    return mod.World(cfg)\n"
    assert _rules(lint(src, "bench/x.py")) == ["module-ownership"]


def test_workload_owners_exempt_from_bypass(lint):
    src = "from repro.mpi.world import World\n\ndef f(cfg):\n    return World(cfg)\n"
    assert lint(src, "workload/runner.py") == []
    assert lint(src, "mpi/world.py") == []
    assert lint(src, "shard/workloads.py") == []


def test_run_ranks_passes_bypass(lint):
    src = (
        "from repro.workload import run_ranks\n\n"
        "def f(cfg, main):\n"
        "    return run_ranks(cfg, main, nprocs=2).results\n"
    )
    assert lint(src, "bench/x.py") == []


# -- module-ownership: shard internals belong to shard -----------------------

def test_shard_internal_access_flagged(lint):
    src = (
        "def f(shard, other_shard, shards, job):\n"
        "    shard.engine.run()\n"
        "    other_shard.mailbox.recv(0, 't')\n"
        "    shards[0].fabric.dataplane.put(None, None)\n"
        "    job.shard.bridge.drain()\n"
        "    shard._step_hash.update(b'x')\n"
    )
    assert _rules(lint(src, "perf/x.py")).count("module-ownership") == 5


def test_shard_public_surface_passes(lint):
    src = (
        "def f(shard):\n"
        "    shard.put(None, shard.remote(9, 8, 't'))\n"
        "    shard.recv(0, 't')\n"
        "    out = shard.step_window(1.0, [])\n"
        "    return shard.next_time(), shard.results(), shard.done\n"
    )
    assert lint(src, "perf/x.py") == []


def test_shard_package_modules_exempt(lint):
    src = "def f(shard):\n    return shard.engine.peek()\n"
    assert lint(src, "shard/cluster.py") == []
    assert lint(src, "shard/executor.py") == []


def test_non_shard_receivers_pass(lint):
    # 'engine' etc. on receivers that are not shard-shaped are fine.
    src = (
        "def f(world, self):\n"
        "    world.engine.run()\n"
        "    return self.fabric.dataplane\n"
    )
    assert lint(src, "mpi/x.py") == []


# -- the analyze CLI on files ------------------------------------------------

def test_seeded_wallclock_file_fails(tmp_path, capsys):
    bad = tmp_path / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\ndef now():\n    return time.time()\n")
    assert main([str(bad), "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "wallclock" in out and "bad.py" in out


def test_seeded_file_outside_core_passes(tmp_path, capsys):
    ok = tmp_path / "repro" / "bench" / "timer.py"
    ok.parent.mkdir(parents=True)
    ok.write_text("import time\n\ndef now():\n    return time.time()\n")
    assert main([str(ok), "--no-baseline"]) == 0


def test_real_tree_is_clean(capsys):
    rules = [arg for rid in INVARIANTS for arg in ("--rule", rid)]
    assert main([str(REPO_SRC), "--no-baseline", *rules]) == 0
    assert "analyze: 0 finding(s)" in capsys.readouterr().out
