"""Cross-cutting smaller surfaces: ops, units, facades, package root."""

import numpy as np
import pytest

import repro
from repro.hw.memory import Buffer, MemSpace
from repro.hw.params import ONE_NODE
from repro.mpi.errors import MpiUsageError
from repro.mpi.ops import BAND, BOR, LAND, LOR, NOP, SUM
from repro.mpi.world import World
from repro.units import GBps, fmt_bytes, fmt_time, us


# -- package root ----------------------------------------------------------

def test_package_exports():
    assert repro.__version__
    assert repro.World is World
    assert repro.ONE_NODE.n_gpus == 4


# -- ops -----------------------------------------------------------------------

def test_logical_and_bitwise_ops():
    a = np.array([1, 0, 1, 1], dtype=np.int64)
    b = np.array([1, 1, 0, 1], dtype=np.int64)
    acc = a.copy()
    LAND.reduce_into(acc, b)
    assert list(acc) == [1, 0, 0, 1]
    acc = a.copy()
    LOR.reduce_into(acc, b)
    assert list(acc) == [1, 1, 1, 1]
    acc = np.array([0b1100], dtype=np.int64)
    BAND.reduce_into(acc, np.array([0b1010], dtype=np.int64))
    assert acc[0] == 0b1000
    acc = np.array([0b1100], dtype=np.int64)
    BOR.reduce_into(acc, np.array([0b1010], dtype=np.int64))
    assert acc[0] == 0b1110


def test_reduce_into_shape_mismatch():
    with pytest.raises(ValueError):
        SUM.reduce_into(np.zeros(3), np.zeros(4))


def test_nop_refuses_to_reduce():
    with pytest.raises(RuntimeError):
        NOP.reduce_into(np.zeros(2), np.zeros(2))


def test_op_repr():
    assert repr(SUM) == "MPI_SUM"
    assert repr(NOP) == "NOP"


# -- units -----------------------------------------------------------------------

def test_fmt_time():
    assert fmt_time(0) == "0s"
    assert fmt_time(7.8e-6) == "7.80us"
    assert fmt_time(1.5e-3) == "1.50ms"
    assert fmt_time(2.0) == "2.000s"
    assert fmt_time(5e-9) == "5.0ns"


def test_fmt_bytes():
    assert fmt_bytes(512) == "512B"
    assert fmt_bytes(8 * 1024) == "8.0KiB"
    assert fmt_bytes(3 * 1024**2) == "3.00MiB"
    assert fmt_bytes(2 * 1024**3) == "2.00GiB"


def test_bandwidth_units():
    assert GBps == pytest.approx(1e9)


# -- communicator facade --------------------------------------------------------

def test_world_rank_of_bounds():
    def main(ctx):
        yield ctx.engine.timeout(0)
        with pytest.raises(MpiUsageError):
            ctx.comm.world_rank_of(5)
        assert ctx.comm.world_rank_of(1) == 1
        return True

    assert all(World(ONE_NODE).run(main, nprocs=2))


def test_virtual_buffer_properties():
    v = Buffer.alloc_virtual(1 << 20, gpu=0, node=0)
    assert v.nbytes == (1 << 20) * 8     # wire size is the logical size
    assert v.space is MemSpace.DEVICE
    p = v.partition(3, 8)
    assert len(p) == (1 << 17)


def test_fused_divisibility_error():
    def main(ctx):
        comm = ctx.comm
        with pytest.raises(MpiUsageError, match="divide"):
            w = ctx.gpu.alloc(10)
            yield from comm.pallreduce_init(w, w, 3, SUM, device=ctx.gpu, fused=True)
        return True

    assert all(World(ONE_NODE).run(main, nprocs=4))


def test_unknown_allreduce_algorithm():
    def main(ctx):
        with pytest.raises(MpiUsageError, match="algorithm"):
            w = ctx.gpu.alloc(64)
            yield from ctx.comm.pallreduce_init(w, w, partitions=2, algorithm="magic")
        return True

    assert all(World(ONE_NODE).run(main, nprocs=2))


def test_cli_list_and_registry():
    from repro.__main__ import main as cli_main

    assert cli_main(["list"]) == 0
    with pytest.raises(SystemExit):
        cli_main(["nonexistent"])


@pytest.mark.parametrize("name", [
    "san", "analyze", "topo", "profile", "bench", "sweep", "replay", "fault",
])
def test_cli_subcommand_help(name, capsys):
    from repro.__main__ import main as cli_main

    with pytest.raises(SystemExit) as exited:
        cli_main([name, "--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: python -m repro {name}")
