"""Every paper exhibit and bench micro-workload as a Workload.

This module builds the series; the measurement layers —
:mod:`repro.bench.p2p`, :mod:`repro.bench.coll`, :mod:`repro.bench.apps`,
:mod:`repro.bench.multipath` — own the methodology and launch ranks
through the :mod:`repro.workload.runner` choke point.  Only ``p2p`` is
imported here; the others load inside the exhibits that call them, so
that looking an exhibit up loads neither NCCL nor the apps (DESIGN.md
§15, import boundaries).  Run an exhibit as
``get("fig4").run(grids=...).series``; :data:`EXHIBIT_WORKLOADS` lists
the paper's exhibits in paper order.  Outputs are pinned entry-for-entry
against the pre-refactor seed (``tests/workload/fixtures/seed_outputs.json``).

Exhibits whose figure spans several canonical machines (fig4 intra-node
vs fig5 inter-node, fig6 one-node vs fig7 two-node) honour a ``machine``
override by running *all* their measurements on it; with no override
they bind the paper's machines exactly as before.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bench import p2p as p2p_bench
from repro.bench.series import Series
from repro.hw.params import ONE_NODE, PAPER_TESTBED
from repro.hw.spec.schema import MachineSpec
from repro.partitioned.aggregation import SignalMode
from repro.units import us, GBps, MiB, fmt_bytes
from repro.workload.base import ExecOutcome, Workload
from repro.workload.registry import register
from repro.workload.runner import run_ranks

FIG2_GRIDS = (1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 131072)
FIG3_THREADS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
FIG45_GRIDS = (1, 4, 16, 64, 256, 1024, 2048, 8192, 32768)
FIG67_GRIDS = (1024, 2048, 4096, 8192, 16384, 32768)
FIG89_MULTIPLIERS = (1, 2, 4, 8, 16, 32)
FIG1011_GRIDS = (256, 1024, 4096)


class ExhibitWorkload(Workload):
    """A paper exhibit: params are the sweep axes, result is one Series."""

    def _execute(self, machine: Optional[MachineSpec], shards, **params) -> ExecOutcome:
        return ExecOutcome(series=self._series(machine, **params))

    def _series(self, machine: Optional[MachineSpec], **params) -> Series:
        raise NotImplementedError


# --------------------------------------------------------------------------
# Figs 2/3: launch-sync motivation and Pready aggregation cost
# --------------------------------------------------------------------------

class Fig2(ExhibitWorkload):
    """Fig 2: cudaStreamSynchronize cost vs kernel launch+sync."""

    name = "fig2"
    defaults = {"grids": FIG2_GRIDS}

    def _series(self, machine, grids: Sequence[int]) -> Series:
        config = machine if machine is not None else ONE_NODE
        s = Series(
            "Fig 2",
            "cudaStreamSynchronize cost and launch+sync time (vector add, block=1024)",
            ["grid", "total_us", "sync_us", "sync_pct", "lost_overlap_us"],
        )
        for grid in grids:
            r = p2p_bench.measure_launch_sync(grid, config=config)
            sync = r["sync_only"]
            s.add(
                grid=grid,
                total_us=r["total"] / us,
                sync_us=sync / us,
                sync_pct=100.0 * sync / r["total"],
                lost_overlap_us=(r["total"] - r["launch_api"]) / us,
            )
        s.note("paper: sync 7.8us constant; 71.6-78.9% of total for grids <= 256; 0.8% at 128K")
        return s


class Fig3(ExhibitWorkload):
    """Fig 3: MPIX_Pready cost for thread/warp/block mappings."""

    name = "fig3"
    defaults = {"threads": FIG3_THREADS}

    def _series(self, machine, threads: Sequence[int]) -> Series:
        config = machine if machine is not None else ONE_NODE
        s = Series(
            "Fig 3",
            "Cost of mapping partitions to threads, warps and blocks (intra-node)",
            ["threads", "thread_us", "warp_us", "block_us"],
        )
        for n in threads:
            s.add(
                threads=n,
                thread_us=p2p_bench.measure_pready_cost(n, SignalMode.THREAD, config) / us,
                warp_us=p2p_bench.measure_pready_cost(n, SignalMode.WARP, config) / us,
                block_us=p2p_bench.measure_pready_cost(n, SignalMode.BLOCK, config) / us,
            )
        last = s.rows[-1]
        s.note(
            f"at 1024 threads: thread/block = {last['thread_us'] / last['block_us']:.1f}x "
            f"(paper 271.5x), warp/block = {last['warp_us'] / last['block_us']:.1f}x (paper 9.4x)"
        )
        return s


# --------------------------------------------------------------------------
# Figs 4/5: p2p goodput
# --------------------------------------------------------------------------

class Fig4(ExhibitWorkload):
    """Fig 4: intra-node goodput — Kernel Copy vs Progression Engine vs Send/Recv."""

    name = "fig4"
    defaults = {"grids": FIG45_GRIDS}

    def _series(self, machine, grids: Sequence[int]) -> Series:
        config = machine if machine is not None else ONE_NODE
        s = Series(
            "Fig 4",
            "Intra-node goodput, two GH200 on one node (GB/s)",
            ["grid", "sendrecv", "progression", "kernel_copy", "pe_speedup", "kc_speedup"],
        )
        for grid in grids:
            tr = p2p_bench.measure_p2p_goodput(grid, "sendrecv", config)
            pe = p2p_bench.measure_p2p_goodput(grid, "progression", config)
            kc = p2p_bench.measure_p2p_goodput(grid, "kernel_copy", config)
            s.add(
                grid=grid, sendrecv=tr / GBps, progression=pe / GBps,
                kernel_copy=kc / GBps, pe_speedup=pe / tr, kc_speedup=kc / tr,
            )
        s.note("paper: PE <= 1.28x (small), ~1.0x >= 2K grids; KC 2.34x small, 1.06x at 32K")
        return s


class Fig5(ExhibitWorkload):
    """Fig 5: inter-node goodput — Partitioned (PE) vs Send/Recv."""

    name = "fig5"
    defaults = {"grids": FIG45_GRIDS}

    def _series(self, machine, grids: Sequence[int]) -> Series:
        config = machine if machine is not None else p2p_bench.TWO_NODE_PAIR
        s = Series(
            "Fig 5",
            "Inter-node goodput, two GH200 on two nodes (GB/s)",
            ["grid", "sendrecv", "progression", "pe_speedup"],
        )
        for grid in grids:
            tr = p2p_bench.measure_p2p_goodput(grid, "sendrecv", config)
            pe = p2p_bench.measure_p2p_goodput(grid, "progression", config)
            s.add(grid=grid, sendrecv=tr / GBps, progression=pe / GBps, pe_speedup=pe / tr)
        s.note("paper: 2.80x at grid 1, 1.17x at the largest grid; 2 transport partitions best")
        return s


# --------------------------------------------------------------------------
# Figs 6/7 + Table I: collectives
# --------------------------------------------------------------------------

def _allreduce_series(exhibit: str, config, nprocs: int, grids: Sequence[int]) -> Series:
    from repro.bench import coll as coll_bench

    s = Series(
        exhibit,
        f"Allreduce kernel+communication time, {nprocs} GH200 ({config.n_nodes} node(s))",
        ["grid", "traditional_us", "partitioned_us", "nccl_us", "trad_over_part", "part_minus_nccl_us"],
    )
    for grid in grids:
        tr = coll_bench.measure_allreduce(grid, "traditional", config, nprocs)
        pa = coll_bench.measure_allreduce(grid, "partitioned", config, nprocs)
        nc = coll_bench.measure_allreduce(grid, "nccl", config, nprocs)
        s.add(
            grid=grid, traditional_us=tr / us, partitioned_us=pa / us, nccl_us=nc / us,
            trad_over_part=tr / pa, part_minus_nccl_us=(pa - nc) / us,
        )
    s.note("paper: partitioned orders of magnitude under MPI_Allreduce; NCCL best (~226us gap at 1K)")
    return s


class Fig6(ExhibitWorkload):
    """Fig 6: allreduce on four GH200 (one node)."""

    name = "fig6"
    defaults = {"grids": FIG67_GRIDS}

    def _series(self, machine, grids: Sequence[int]) -> Series:
        config = machine if machine is not None else ONE_NODE
        return _allreduce_series("Fig 6", config, 4, grids)


class Fig7(ExhibitWorkload):
    """Fig 7: allreduce on eight GH200 (two nodes, ranks 0-3 / 4-7 per node).

    Default sweep stops at 16K grids: eight ranks x 256 MiB working sets
    plus ring staging exceed a 16 GB host at 32K (simulator memory, not a
    modelled limit).
    """

    name = "fig7"
    defaults = {"grids": FIG67_GRIDS[:-1]}

    def _series(self, machine, grids: Sequence[int]) -> Series:
        config = machine if machine is not None else PAPER_TESTBED
        return _allreduce_series("Fig 7", config, 8, grids)


class Table1(ExhibitWorkload):
    """Table I: overheads of the partitioned API calls."""

    name = "table1"

    def _series(self, machine) -> Series:
        from repro.bench import coll as coll_bench

        config = machine if machine is not None else ONE_NODE
        o = coll_bench.measure_overheads(config=config)
        s = Series(
            "Table I",
            "Overheads for different MPI calls",
            ["call", "measured_us", "paper_us"],
        )
        s.add(call="MPI_Psend_init", measured_us=o["psend_init"] / us, paper_us=17.2)
        s.add(call="MPI_Precv_init", measured_us=o["precv_init"] / us, paper_us=17.2)
        s.add(call="MPIX_Pallreduce_init", measured_us=o["pallreduce_init"] / us, paper_us=62.3)
        s.add(call="MPIX_Prequest_create", measured_us=o["prequest_create"] / us, paper_us=110.7)
        s.add(call="MPIX_Pbuf_prepare (first)", measured_us=o["pbuf_prepare_first"] / us, paper_us=193.4)
        s.add(call="MPIX_Pbuf_prepare (avg)", measured_us=o["pbuf_prepare_avg"] / us, paper_us=3.4)
        return s


# --------------------------------------------------------------------------
# Figs 8-11: applications
# --------------------------------------------------------------------------

def _jacobi_series(exhibit: str, config, nprocs: int, multipliers: Sequence[int],
                   iters: int, base_tile: int) -> Series:
    from repro.bench import apps as app_bench

    s = Series(
        exhibit,
        f"Jacobi solver GFLOP/s, {nprocs} GH200 ({config.n_nodes} node(s))",
        ["multiplier", "traditional", "partitioned_pe", "partitioned_kc", "pe_speedup", "kc_speedup"],
    )
    for m in multipliers:
        tr = app_bench.measure_jacobi_gflops(m, "traditional", config, nprocs, base_tile, iters)
        pe = app_bench.measure_jacobi_gflops(m, "partitioned", config, nprocs, base_tile, iters, "pe")
        kc = app_bench.measure_jacobi_gflops(m, "partitioned", config, nprocs, base_tile, iters, "kc_auto")
        s.add(
            multiplier=m, traditional=tr, partitioned_pe=pe, partitioned_kc=kc,
            pe_speedup=pe / tr, kc_speedup=kc / tr,
        )
    s.note("paper: best 1.06x on one node, 1.30x on two nodes; gains shrink as size grows")
    s.note("we report both copy modes; the paper's figure lies inside the [PE, KC] envelope")
    return s


class Fig8(ExhibitWorkload):
    """Fig 8: Jacobi GFLOP/s on four GH200 (2x2 decomposition)."""

    name = "fig8"
    defaults = {"multipliers": FIG89_MULTIPLIERS, "iters": 150, "base_tile": 16}

    def _series(self, machine, multipliers, iters, base_tile) -> Series:
        config = machine if machine is not None else ONE_NODE
        return _jacobi_series("Fig 8", config, 4, multipliers, iters, base_tile)


class Fig9(ExhibitWorkload):
    """Fig 9: Jacobi GFLOP/s on eight GH200 (4x2 decomposition)."""

    name = "fig9"
    defaults = {"multipliers": FIG89_MULTIPLIERS, "iters": 150, "base_tile": 16}

    def _series(self, machine, multipliers, iters, base_tile) -> Series:
        config = machine if machine is not None else PAPER_TESTBED
        return _jacobi_series("Fig 9", config, 8, multipliers, iters, base_tile)


def _dl_series(exhibit: str, config, nprocs: int, grids: Sequence[int]) -> Series:
    from repro.bench import apps as app_bench

    s = Series(
        exhibit,
        f"Deep-learning kernel (BCE + gradient allreduce) per-step time, {nprocs} GH200",
        ["grid", "traditional_us", "partitioned_us", "nccl_us"],
    )
    for grid in grids:
        s.add(
            grid=grid,
            traditional_us=app_bench.measure_dl_step_time(grid, "traditional", config, nprocs) / us,
            partitioned_us=app_bench.measure_dl_step_time(grid, "partitioned", config, nprocs) / us,
            nccl_us=app_bench.measure_dl_step_time(grid, "nccl", config, nprocs) / us,
        )
    s.note("paper: partitioned well under MPI_Allreduce; NCCL still best (collective-bound)")
    return s


class Fig10(ExhibitWorkload):
    """Fig 10: DL kernel on four GH200."""

    name = "fig10"
    defaults = {"grids": FIG1011_GRIDS}

    def _series(self, machine, grids: Sequence[int]) -> Series:
        config = machine if machine is not None else ONE_NODE
        return _dl_series("Fig 10", config, 4, grids)


class Fig11(ExhibitWorkload):
    """Fig 11: DL kernel on eight GH200."""

    name = "fig11"
    defaults = {"grids": FIG1011_GRIDS}

    def _series(self, machine, grids: Sequence[int]) -> Series:
        config = machine if machine is not None else PAPER_TESTBED
        return _dl_series("Fig 11", config, 8, grids)


# --------------------------------------------------------------------------
# Bench micro-workloads: pingpong, single p2p point, striping
# --------------------------------------------------------------------------

def _pingpong_main(ctx, iters: int):
    comm = ctx.comm
    buf = ctx.gpu.alloc(1024)
    peer = 1 - ctx.rank
    for _ in range(iters):
        if ctx.rank == 0:
            yield from comm.send(buf, dest=peer, tag=1)
            yield from comm.recv(buf, source=peer, tag=2)
        else:
            yield from comm.recv(buf, source=peer, tag=1)
            yield from comm.send(buf, dest=peer, tag=2)


class Pingpong(Workload):
    """Two-rank host ping-pong: the bench suite's ledger smoke point."""

    name = "pingpong"
    default_machine = ONE_NODE
    defaults = {"iters": 50}

    def _execute(self, machine, shards, iters: int) -> ExecOutcome:
        run = run_ranks(machine, _pingpong_main, nprocs=2, args=(iters,))
        class_bytes = run.class_bytes
        s = Series("pingpong", "two-rank host ping-pong, per-class ledger",
                   ["traffic_class", "bytes", "transfers"])
        for cls in sorted(class_bytes):
            row = class_bytes[cls]
            s.add(traffic_class=cls, bytes=row["bytes"], transfers=row["transfers"])
        return ExecOutcome(
            series=s, class_bytes=class_bytes, extra={"t_end": run.t_end},
        )


class P2pPoint(Workload):
    """One (grid, model) goodput point — the Fig 5 131072-partition entry."""

    name = "p2p-point"
    default_machine = p2p_bench.TWO_NODE_PAIR
    defaults = {"grid": 131072, "model": "progression"}

    def _execute(self, machine, shards, grid: int, model: str) -> ExecOutcome:
        goodput = p2p_bench.measure_p2p_goodput(grid, model, machine)
        s = Series("p2p-point", "single p2p goodput point",
                   ["grid", "model", "goodput_GBps"])
        s.add(grid=grid, model=model, goodput_GBps=goodput / GBps)
        return ExecOutcome(series=s, extra={"goodput_Bps": goodput})


class Striping(Workload):
    """Single-path vs link-disjoint striped goodput over D2D transfer sizes.

    ``extra`` and ``class_bytes`` describe the last size (the striped run).
    """

    name = "striping"
    default_machine = ONE_NODE
    defaults = {"sizes": (64 * MiB,)}

    def _execute(self, machine, shards, sizes: Sequence[int]) -> ExecOutcome:
        from repro.bench import multipath

        s = Series(
            "Striping",
            "single-path vs link-disjoint striped goodput, D2D gpu0->gpu1",
            ["size", "single_GBps", "multi_GBps", "stripes", "speedup"],
        )
        for nbytes in sizes:
            single = multipath.measure_stripe_goodput(nbytes, "single", machine)
            multi = multipath.measure_stripe_goodput(nbytes, "multi", machine)
            extra = {
                "single_GBps": round(single["goodput_Bps"] / 1e9, 2),
                "multi_GBps": round(multi["goodput_Bps"] / 1e9, 2),
                "stripes": multi["stripes"],
                "stripe_speedup": round(multi["goodput_Bps"] / single["goodput_Bps"], 3),
            }
            s.add(size=fmt_bytes(nbytes), single_GBps=extra["single_GBps"],
                  multi_GBps=extra["multi_GBps"], stripes=extra["stripes"],
                  speedup=extra["stripe_speedup"])
        s.note("multi stripes across link-disjoint routes (MultiPathPolicy); "
               "below min_stripe_bytes the plans coincide")
        return ExecOutcome(series=s, class_bytes=multi["ledger"], extra=extra)


class FaultReroute(Workload):
    """Mid-run NVLink loss under a plan-cached D2D chunk pipeline (DESIGN.md §17)."""

    name = "fault-reroute"
    default_machine = ONE_NODE

    def _execute(self, machine, shards) -> ExecOutcome:
        from repro.bench import multipath

        r = multipath.measure_fault_reroute(config=machine)
        s = Series("fault-reroute", "chunked D2D pipeline, nvl0->1 lost mid-run",
                   ["run", "elapsed_us"])
        for run in ("healthy", "faulted", "single"):
            s.add(run=run, elapsed_us=r[f"{run}_s"] / us)
        extra = {f"{run}_us": round(r[f"{run}_s"] * 1e6, 3)
                 for run in ("healthy", "faulted", "single")}
        extra.update((k, r[k]) for k in
                     ("reroutes", "plan_hits", "replanned", "faults", "faulted_chunks"))
        return ExecOutcome(series=s, extra=extra)


class Congestion(Workload):
    """Concurrent same-pair D2D puts: congestion-aware vs single-path goodput."""

    name = "congestion"
    default_machine = ONE_NODE

    def _execute(self, machine, shards) -> ExecOutcome:
        from repro.bench import multipath

        s = Series("congestion", "concurrent same-pair D2D puts",
                   ["policy", "goodput_GBps"])
        extra, elapsed = {}, {}
        for policy in ("single", "congestion"):
            r = multipath.measure_congestion_goodput(policy, config=machine)
            extra[f"{policy}_GBps"] = round(r["goodput_Bps"] / 1e9, 2)
            elapsed[policy] = r["elapsed_s"]
            s.add(policy=policy, goodput_GBps=extra[f"{policy}_GBps"])
        extra["congestion_speedup"] = round(elapsed["single"] / elapsed["congestion"], 3)
        return ExecOutcome(series=s, extra=extra)


# --------------------------------------------------------------------------
# App-level single-point workloads (the sweepable Jacobi / DL scenarios)
# --------------------------------------------------------------------------

class Jacobi(Workload):
    """One Jacobi solve configuration as a sweepable scenario."""

    name = "jacobi"
    default_machine = ONE_NODE
    defaults = {
        "multiplier": 1, "variant": "partitioned", "copy_mode": "pe",
        "iters": 30, "base_tile": 16, "nprocs": 4,
    }

    def _execute(self, machine, shards, multiplier, variant, copy_mode,
                 iters, base_tile, nprocs) -> ExecOutcome:
        from repro.bench import apps as app_bench

        gflops = app_bench.measure_jacobi_gflops(
            multiplier, variant, machine, nprocs, base_tile, iters, copy_mode,
        )
        s = Series("jacobi", "Jacobi solver GFLOP/s (slowest rank)",
                   ["multiplier", "variant", "gflops"])
        s.add(multiplier=multiplier, variant=variant, gflops=gflops)
        return ExecOutcome(series=s)


class Dl(Workload):
    """One DL training-step configuration as a sweepable scenario."""

    name = "dl"
    default_machine = ONE_NODE
    defaults = {"grid": 256, "variant": "partitioned", "steps": 3,
                "partitions": 8, "nprocs": 4}

    def _execute(self, machine, shards, grid, variant, steps,
                 partitions, nprocs) -> ExecOutcome:
        from repro.bench import apps as app_bench

        step_s = app_bench.measure_dl_step_time(
            grid, variant, machine, nprocs, steps, partitions,
        )
        s = Series("dl", "DL kernel per-step time",
                   ["grid", "variant", "step_us"])
        s.add(grid=grid, variant=variant, step_us=step_s / us)
        return ExecOutcome(series=s)


EXHIBIT_WORKLOADS = [
    Fig2(), Fig3(), Fig4(), Fig5(), Fig6(), Fig7(), Table1(),
    Fig8(), Fig9(), Fig10(), Fig11(),
]

for _wl in EXHIBIT_WORKLOADS:
    register(_wl)
for _wl in (Pingpong(), P2pPoint(), Striping(), FaultReroute(), Congestion(),
            Jacobi(), Dl()):
    register(_wl)
