"""``python -m repro profile``: end-to-end runs over real examples."""

import json
import textwrap

import pytest

from repro.obs.chrome import validate_trace
from repro.obs.cli import main, profile_script


def test_profile_quickstart_emits_valid_chrome_json(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["quickstart", "--chrome", str(out)]) == 0
    obj = json.loads(out.read_text())
    validate_trace(obj)
    names = {e["name"] for e in obj["traceEvents"]}
    assert names & {"launch", "put", "mem_map"}
    stdout = capsys.readouterr().out
    assert "profile:" in stdout and "trace events" in stdout


def test_profile_second_example_emits_valid_chrome_json(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["jacobi_halo", "--chrome", str(out)]) == 0
    obj = json.loads(out.read_text())
    validate_trace(obj)
    assert len(obj["traceEvents"]) > 0


def test_util_and_critical_path_reports_print(capsys):
    assert main(["quickstart", "--util", "--critical-path"]) == 0
    out = capsys.readouterr().out
    assert "utilization over" in out
    assert "critical path:" in out
    assert "gpu0.sm" in out


def test_steps_flag_includes_engine_instants(tmp_path):
    out = tmp_path / "trace.json"
    assert main(["quickstart", "--chrome", str(out), "--steps"]) == 0
    obj = json.loads(out.read_text())
    assert any(e.get("cat") == "engine" for e in obj["traceEvents"])


def test_missing_target_exits_2(capsys):
    assert main(["no_such_example"]) == 2
    assert "profile:" in capsys.readouterr().err


def test_crashing_target_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("raise RuntimeError('boom')\n")
    assert main([str(bad)]) == 2
    assert "boom" in capsys.readouterr().err


def test_profile_script_uninstalls_bus_on_crash(tmp_path):
    from repro.sim.run import current

    bad = tmp_path / "bad.py"
    bad.write_text("raise RuntimeError('boom')\n")
    with pytest.raises(RuntimeError):
        profile_script(str(bad))
    assert current().bus is None


def test_sanitizer_inside_profiled_script_shares_the_profiler_bus(tmp_path):
    """A Sanitizer opened by a profiled script subscribes to the profiler's
    bus rather than setting its own, and still reports its findings."""
    out = tmp_path / "findings.json"
    script = tmp_path / "seeded.py"
    script.write_text(textwrap.dedent(f"""
        import json
        from repro.cuda.device import Device
        from repro.cuda.kernel import BlockKernel
        from repro.cuda.timing import WorkSpec
        from repro.hw.params import ONE_NODE
        from repro.hw.topology import Fabric
        from repro.san import Sanitizer
        from repro.sim.engine import Engine
        from repro.sim.run import current

        profiler_bus = current().bus
        with Sanitizer(checks=["uninit-read"]) as san:
            assert current().bus is profiler_bus
            engine = Engine()
            gpu = Device(Fabric(engine, ONE_NODE), 0)
            buf = gpu.alloc(256)

            def body(blk):
                blk.note_read(buf)  # nothing ever wrote this allocation
                yield blk.compute(WorkSpec.vector_add())

            def host():
                yield from gpu.launch_h(BlockKernel(1, 256, body))
                yield from gpu.sync_h()

            engine.run(engine.process(host()))
        with open({str(out)!r}, "w") as fh:
            json.dump([f.check for f in san.findings], fh)
    """))
    events = profile_script(str(script))
    assert json.loads(out.read_text()) == ["uninit-read"]
    assert any(ev.cat == "san" and ev.name == "access" for ev in events)
    assert any(ev.cat == "kernel" for ev in events)
