#!/usr/bin/env python3
"""hostbench: the simulator's host time, end to end and per layer.

One workload in this process::

    python3 hostbench/run.py --workload jacobi-eager --seed 0 --seconds 20 --trace 0

It runs one warm-up unit, times five fresh interpreters doing the
workload's set-up, then runs untraced units for ``--seconds``
(at least three), checking every unit's digests.  Times are calibrated
against a fixed kernel run between them (``calibrate.py``).  ``--trace
1`` adds one traced unit for the per-layer numbers.  Every metric is
printed by name with its unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and the end-to-end (``--trace
0``) or per-layer (``--trace 1``) metrics.  The exit code is 1 when a
unit failed.

Every workload, each in a fresh child process, into one results file
for ``compare.py``::

    python3 hostbench/run.py [--workloads a,b] [--seed 0] [--out results.json]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"

MIN_UNITS = 3
SETUP_PROBES = 5

#: Environment knobs the simulator reads deep in its stack.  The
#: benchmark pins the default configuration, so they are cleared for
#: this process and its children.
_ENV_KNOBS = ("REPRO_NO_COALESCE", "REPRO_NO_GRAPHS", "REPRO_PATH_POLICY")


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"hostbench: cannot import repro from {src}: {exc}") from None
    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"hostbench: repro imported from {repro.__file__}, not {src}")


def declared(kind: str) -> dict:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics."""
    doc = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def spread(values: list) -> dict:
    """Median, quartiles (``statistics.quantiles``), max and count."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "max": max(values), "n": len(values)}


# -- set-up probe ----------------------------------------------------------------

def setup_probe(name: str, seed: int) -> float:
    """Seconds to import repro, prepare ``name`` and build its machines."""
    t0 = time.perf_counter()
    use_checkout_src()
    import units

    ctx = units.WORKLOADS[name].prepare(seed)
    ctx["build"]()
    return time.perf_counter() - t0


def probe_child(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", name,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {name} failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


# -- one workload ------------------------------------------------------------------

class UnitRun(NamedTuple):
    raw_s: float        # host seconds
    wall_s: float       # calibrated seconds (raw when no calibrator was given)
    fingerprint: dict


class Runner:
    """Runs and checks the units of one workload in this process."""

    def __init__(self, name: str, seed: int) -> None:
        import units

        self.units = units
        self.workload = units.WORKLOADS[name]
        self.seed = seed
        self.expected = json.loads(EXPECTED.read_text())
        self.ctx = self.workload.prepare(seed)
        self.reference = None     # fingerprint of the first unit
        self.attempted = 0
        self.problems: list = []  # one entry per failed unit

    def unit(self, cal=None, tracer=None):
        """Run, time and check one unit.

        Returns a :class:`UnitRun`, or None when the unit failed.  With
        ``cal``, each step is calibrated on its own, so the kernel brackets
        intervals of a second or less.  A traced unit runs its steps back
        to back inside the root span.
        """
        units = self.units
        self.attempted += 1
        gc.collect()
        units.reset_counters()
        results = {}
        raw_s = wall_s = 0.0

        def run_steps():
            nonlocal raw_s, wall_s
            for label, workload, params in self.ctx["steps"]:
                t0 = time.perf_counter()
                results[label] = workload.run(**params)
                elapsed = time.perf_counter() - t0
                raw_s += elapsed
                wall_s += cal.scale(elapsed) if cal is not None else elapsed

        try:
            run_steps() if tracer is None else tracer.run(run_steps)
            fp = units.fingerprint(results)
        except Exception:
            self.problems.append(f"unit {self.attempted} raised:\n{traceback.format_exc()}")
            return None
        if self.reference is None:
            self.reference = fp
            wrong = units.check(self.workload, self.seed, fp, self.expected)
        else:
            wrong = units.diff(self.reference, fp)
        if wrong:
            self.problems.append(
                f"unit {self.attempted} ({'traced' if tracer else 'untraced'}) differs:\n  "
                + "\n  ".join(wrong)
            )
            return None
        return UnitRun(raw_s, wall_s, fp)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Everything hostbench records about one workload, as a dict.

    Unit and set-up times are calibrated (see ``calibrate.py``); the raw
    seconds and kernel times are kept in ``record["raw"]``.
    """
    from calibrate import Calibrator

    runner = Runner(name, seed)
    runner.unit()  # warm-up: lazy imports, first-touch caches
    # Set-up plus one unit, read before the calibration buffers exist.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal = Calibrator()
    raw = {"setup_s": [], "unit_s": [], "kernel_s": cal.kernel_s}
    samples = {"setup_s": [], "wall_s": [], "peak_rss_mb": [peak_rss_mb]}
    for _ in range(SETUP_PROBES):
        raw["setup_s"].append(probe_child(name, seed))
        samples["setup_s"].append(cal.scale(raw["setup_s"][-1]))
    start = time.perf_counter()
    while runner.reference is not None and len(runner.problems) < MIN_UNITS and (
        len(samples["wall_s"]) < MIN_UNITS or time.perf_counter() - start < seconds
    ):
        done = runner.unit(cal)
        if done is not None:
            raw["unit_s"].append(done.raw_s)
            samples["wall_s"].append(done.wall_s)
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "samples": samples, "raw": raw, "fingerprint": runner.reference,
    }
    if samples["wall_s"]:
        record["end_to_end"] = end_to_end_metrics(samples)
        record["summary"] = {k: spread(samples[k]) for k in ("wall_s", "setup_s")}
    if trace and runner.reference is not None:
        import tracer

        with tracer.Tracer() as tr:
            done = runner.unit(tracer=tr)
        traced_s = cal.scale(done.raw_s if done else 0.0)
        record["entries"] = {k: e.as_dict() for k, e in sorted(tr.entries.items())}
        record["root_s"] = tr.root_s
        if done is not None and samples["wall_s"]:
            record["per_layer"] = per_layer_metrics(
                tr, runner.reference, statistics.median(samples["wall_s"]), traced_s,
            )
    record.update(
        attempted=runner.attempted, failed=len(runner.problems),
        correct=not runner.problems, problems=runner.problems,
    )
    return record


def end_to_end_metrics(samples: dict) -> dict:
    """``name -> (value, unit)``: the median of each metric's samples."""
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    return {name: (statistics.median(samples[name]), unit) for name, unit in units.items()}


def per_layer_metrics(tr, fp: dict, wall_s: float, traced_s: float) -> dict:
    """``name -> (value, unit)`` from a traced unit and untraced counters.

    Host time inside a layer or entry point is reported as its share of
    the traced unit, which stays meaningful (zero) on workloads that never
    reach it; ``record["entries"]`` keeps the seconds.
    """
    entries = tr.entries

    def calls(*keys):
        return sum(entries[k].calls for k in keys)

    def share(*keys):
        return sum(entries[k].total_s for k in keys) / tr.root_s

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer, totals in tr.layer_totals().items():
        m[f"{layer}.calls"] = (totals["calls"], "count")
        m[f"{layer}.self_share"] = (totals["self_s"] / tr.root_s, "share")
    sim, graphs = fp["sim"], fp["graphs"]
    popped, coalesced = sim["events_popped"], sim["events_coalesced"]
    m.update({
        "sim.events_popped": (popped, "count"),
        "sim.events_coalesced": (coalesced, "count"),
        "sim.events_graphed": (sim["events_graphed"], "count"),
        "sim.peak_heap": (sim["peak_heap"], "count"),
        "sim.ns_per_pop": (ratio(wall_s * 1e9, popped + sim["events_graphed"]), "ns"),
        "sim.coalesce_ratio": (ratio(coalesced, popped + coalesced), "ratio"),
    })
    route, search = calls("hw:Fabric.route"), calls("hw:LinkGraph.search")
    submits = ("dataplane:Dataplane.submit", "dataplane:Dataplane.rma_put")
    replayed, captured = graphs["replayed_descriptors"], graphs["captured_plans"]
    cluster = entries["shard:ClusterJob.run_sequential"].counts
    m.update({
        "hw.route_calls": (route, "count"),
        "hw.route_hit_ratio": (1.0 - search / route if route else 0.0, "ratio"),
        "hw.copy_bytes": (entries["hw:Buffer.copy_from"].counts.get("bytes", 0), "B"),
        "hw.copy_share": (share("hw:Buffer.copy_from"), "share"),
        "hw.fabric_builds": (calls("hw:Fabric.__init__"), "count"),
        "hw.fabric_build_share": (share("hw:Fabric.__init__"), "share"),
        "dataplane.submits": (tr.tallies["dataplane.submits"].total, "count"),
        "dataplane.submit_us": (
            ratio(sum(entries[k].total_s for k in submits) * 1e6, calls(*submits)), "us"),
        "dataplane.plan_hit_ratio": (ratio(replayed, replayed + captured), "ratio"),
        "dataplane.graph_launches": (
            graphs["launches"] + cluster.get("graph_launches", 0), "count"),
        "dataplane.replanned": (graphs["replanned"], "count"),
        "dataplane.reroutes": (tr.tallies["dataplane.reroutes"].total, "count"),
        "dataplane.faults": (tr.tallies["dataplane.faults"].total, "count"),
        "dataplane.bytes": (entries["dataplane:Ledger.account"].counts.get("bytes", 0), "B"),
        "ucx.mem_map_share": (share("ucx:mem_map"), "share"),
        "mpi.worlds": (calls("mpi:World.__init__"), "count"),
        "mpi.world_build_share": (share("mpi:World.__init__"), "share"),
        "mpi.world_teardown_share": (entries["mpi:World.run"].self_s / tr.root_s, "share"),
        "mpi.p2p_calls": (calls(*(f"mpi:Communicator.{op}" for op in (
            "isend", "irecv", "send", "recv"))), "count"),
        "mpi.coll_calls": (calls("mpi:Communicator.barrier", "mpi:Communicator.allreduce"),
                           "count"),
        "partitioned.psend_init_share": (share("partitioned:psend_init"), "share"),
        "partitioned.precv_init_share": (share("partitioned:precv_init"), "share"),
        "partitioned.prequest_create_share": (
            share("partitioned:PsendRequest.prequest_create"), "share"),
        "partitioned.pbuf_prepare_share": (
            share("partitioned:PsendRequest.pbuf_prepare"), "share"),
        "partitioned.wave_batches": (
            entries["partitioned:PreadyWaveHook.wave_batches"].yields, "count"),
        "cuda.kernel_launches": (calls("cuda:Device.launch"), "count"),
        "shard.windows": (cluster.get("windows", 0), "count"),
        "shard.messages": (cluster.get("messages", 0), "count"),
        "shard.step_window_share": (share("shard:Shard.step_window"), "share"),
        "workload.runs": (calls("workload:Workload.run"), "count"),
        "trace.overhead_x": (traced_s / wall_s, "x"),
    })
    return m


# -- output ----------------------------------------------------------------------------

def _metrics_json(metrics: dict, kind: str) -> dict:
    want = declared(kind)
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        raise SystemExit(
            f"hostbench: {kind} metrics differ from BENCHMARK.json: "
            f"{sorted(set(got.items()) ^ set(want.items()))}"
        )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def pin_to_one_cpu() -> None:
    """Keep this process and the probes it starts on one CPU.

    The calibration kernel must run on the core that runs the measured
    work: cores of a shared host can differ in speed by half.  The last
    CPU is used because the first one takes most of the system's
    interrupt work.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(args) -> int:
    use_checkout_src()
    pin_to_one_cpu()
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in record["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    e2e = record.get("end_to_end", {})
    layers = record.get("per_layer", {})
    for name, (value, unit) in list(e2e.items()) + list(layers.items()):
        print(f"{args.workload:18s} {name:32s} {value:>16.6g} {unit}")
    if "end_to_end" in record:
        record["end_to_end"] = _metrics_json(e2e, "end_to_end")
    if "per_layer" in record:
        record["per_layer"] = _metrics_json(layers, "per_layer")
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    metrics = record.get("per_layer" if args.trace else "end_to_end", {})
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": metrics,
    }))
    return 0 if record["correct"] else 1


def run_all(args, names: list) -> int:
    """Each workload in a fresh child; prints a summary, writes ``--out``."""
    records = {}
    with tempfile.TemporaryDirectory(prefix=".hostbench-", dir=ROOT) as tmp:
        for name in names:
            path = Path(tmp) / f"{name}.json"
            try:
                subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", "1", "--record", str(path)],
                    timeout=args.seconds * 4 + 600,
                )
            except subprocess.TimeoutExpired:
                problem = "child timed out"
            else:
                problem = "child crashed"
            records[name] = (
                json.loads(path.read_text()) if path.exists()
                else {"workload": name, "correct": False, "problems": [problem]}
            )
    print()
    print(f"{'workload':18s} {'metric':14s} {'value':>12s}  q1..q3 (n)")
    for name, rec in records.items():
        for metric, doc in rec.get("end_to_end", {}).items():
            line = f"{name:18s} {metric:14s} {doc['value']:>12.6g} {doc['unit']}"
            if metric in rec["summary"]:
                s = rec["summary"][metric]
                line += f"  {s['q1']:.4g}..{s['q3']:.4g} ({s['n']})"
            print(line)
        if not rec["correct"]:
            print(f"{name:18s} FAILED: {len(rec['problems'])} unit(s)")
    if args.out:
        doc = {"seed": args.seed, "seconds": args.seconds, "workloads": records}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if all(r["correct"] for r in records.values()) else 1


def main(argv=None) -> int:
    for knob in _ENV_KNOBS:
        os.environ.pop(knob, None)
    bench = json.loads(BENCHMARK.read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads,
                        help="run one workload in this process")
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="untraced measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="also run one traced unit and report per-layer metrics")
    parser.add_argument("--record", help="write the full record of --workload here")
    parser.add_argument("--out", help="results file for compare.py (all-workload mode)")
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(setup_probe(args.setup_probe, args.seed))
        return 0
    if args.workload:
        return run_one(args)
    names = args.workloads.split(",") if args.workloads else workloads
    unknown = set(names) - set(workloads)
    if unknown:
        parser.error(f"unknown workload(s) {sorted(unknown)}; have {workloads}")
    return run_all(args, names)


if __name__ == "__main__":
    sys.exit(main())
