#!/usr/bin/env bash
# Tier-1 gate: tests + benchmark smoke + static analysis + (when
# available) ruff.  Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q -m "not smoke"

echo "== parser fuzz (every input parser under the deep hypothesis profile) =="
# Tier-1 runs the fuzz under the default profile; this reruns it with 500
# generated values per fuzzed field: each replay or fault document, NCCL
# log, Chrome trace and machine name must parse or fail with its parser's
# typed error.
PYTHONPATH=src python -m pytest -x -q tests/test_parser_fuzz.py \
    --hypothesis-profile=deep

echo "== cold-start (CLI set-up loads no deferred package, DESIGN.md §15) =="
# tests/test_import_budget.py covers the library path; this covers the
# CLI.  Each command runs in a fresh interpreter under -X importtime, and
# none of the packages that load on first use may appear in its imports.
deferred='repro\.(shard|nccl|pcoll|apps|obs|bench\.(apps|coll|multipath)|san\.(report|sanitizer|checks|hb|clocks))\b'
for cmd in "list" "topo fat-tree-64"; do
    # shellcheck disable=SC2086
    PYTHONPATH=src python -X importtime -m repro $cmd > /dev/null 2> /tmp/repro_importtime.txt
    if grep -E "\| +$deferred" /tmp/repro_importtime.txt; then
        echo "cold-start: 'python -m repro $cmd' imported a deferred package"; exit 1
    fi
    echo "cold-start: python -m repro $cmd loads $(grep -cE '\| +repro\b' /tmp/repro_importtime.txt) repro modules"
done

echo "== hash-seed (pinned step streams under two string-hash seeds) =="
# Bit-identity must not depend on string-hash order: the determinism,
# link-transfer stream, process sleep/chain pins (Delayed and Holding
# against their generator bodies) and the eager host message path pins
# must hold under any PYTHONHASHSEED.
for seed in 1 2; do
    PYTHONHASHSEED=$seed PYTHONPATH=src python -m pytest -x -q \
        tests/sim/test_determinism.py tests/hw/test_transfer_stream.py \
        tests/sim/test_process.py tests/mpi/test_eager_path_pin.py
done

echo "== optimised mode (python -O: the allreduce result check is not an assert) =="
PYTHONPATH=src python -O -m pytest -x -q tests/bench/test_allreduce_check.py

echo "== benchmark smoke (one small-grid point per paper figure) =="
PYTHONPATH=src python -m pytest -x -q -m smoke

echo "== benchmarks (every paper claim and the three ablations) =="
# benchmarks/ sits outside the tier-1 suite.  test_claims.py runs each
# exhibit (and striping) once at its bench point and checks every paper
# claim against it as its own test; the ablation files gate the transport
# partitions, poll latency, bounce chunking, allreduce algorithm and the
# fused collective.
PYTHONPATH=src python -m pytest -x -q benchmarks

echo "== bench smoke (every suite row vs its recorded baseline row) =="
# --against auto gates against the newest checked-in BENCH_pr*.json
# (skipping the --out file this run writes), so new PRs need no edit here.
# Every row is deterministic, so --against requires it to equal its
# baseline row in every field (a baseline's host-time wall_s is dropped).
PYTHONPATH=src python -m repro bench \
    --against auto --out /tmp/repro_bench_smoke.json

echo "== hostbench-correctness (host-time benchmark outputs vs pinned fingerprints) =="
# The shortest run hostbench allows (warm-up, three units and one traced
# unit per workload): fails on any digest, t_end or counter drift from
# hostbench/expected.json.
python3 hostbench/run.py --seconds 0 --out /tmp/hostbench-ci.json

echo "== bench-cluster smoke (512-GPU fat-tree and graph replays, forked shards) =="
# The cluster point and both graph-mode replays through forked shard
# workers: under --shards, --against requires every row to equal its
# recorded sequential row in every field but the execution mode and the
# worker count.
PYTHONPATH=src python -m repro bench \
    --suite cluster-fattree-512,graph-replay-jacobi,graph-replay-llm16 --shards 2 \
    --against auto --out /tmp/repro_bench_cluster.json

echo "== topo-smoke (topology validator on every catalog spec and the 512-GPU specs) =="
# Compiles each machine's link wiring and checks that its routes (all
# endpoint pairs on catalog specs, a sample on generated fabrics) resolve
# in hierarchical link order; the validator exits 0 and prints a valid: line.
catalog=$(PYTHONPATH=src python -c "from repro.hw.spec.catalog import SPECS; print(*SPECS)")
for machine in $catalog fat-tree-512 dragonfly-512-g8; do
    PYTHONPATH=src python -m repro topo "$machine" > /tmp/repro_topo.txt
    grep -q "^valid:" /tmp/repro_topo.txt \
        || { echo "topo-smoke: $machine printed no valid: line"; exit 1; }
    echo "topo-smoke: $machine valid"
done
# A bad generator option is a usage error: exit 2 and one error: line.
status=0
PYTHONPATH=src python -m repro topo fat-tree-16-n0 > /tmp/repro_topo_bad.txt 2>&1 || status=$?
[ "$status" -eq 2 ] && grep -q "error:" /tmp/repro_topo_bad.txt \
    && ! grep -q "Traceback" /tmp/repro_topo_bad.txt \
    || { echo "topo-smoke: fat-tree-16-n0 not rejected cleanly (exit $status)"; exit 1; }
echo "topo-smoke: fat-tree-16-n0 rejected"

echo "== fault-smoke (dynamic fabric: mid-run link loss, DESIGN.md §17) =="
# One node-scoped NVLink loss halfway through the 512-GPU halo exhibit:
# the faulted run must agree bit-for-bit between the sequential driver
# and --shards 2, and must differ from the healthy recorded digest (the
# healthy baseline itself is still gated by the bench-cluster tier above).
PYTHONPATH=src python -m repro fault examples/schedules/faults_fattree512.jsonl \
    --workload halo --machine fat-tree-512 \
    --param iters=4 --param chunks=2 > /tmp/repro_fault_seq.txt
PYTHONPATH=src python -m repro fault examples/schedules/faults_fattree512.jsonl \
    --workload halo --machine fat-tree-512 --shards 2 \
    --param iters=4 --param chunks=2 > /tmp/repro_fault_mp.txt
PYTHONPATH=src python - <<'EOF'
import json, re
from repro.bench.suite import resolve_baseline

def rows(path):
    text = open(path).read()
    return re.findall(r"^(?:popped|  class|  digest).*$", text, re.M)

seq, mp = rows("/tmp/repro_fault_seq.txt"), rows("/tmp/repro_fault_mp.txt")
assert seq and seq == mp, "faulted run: sequential vs --shards 2 diverged"
msg = re.search(r"digest msg\s+(\S+)", open("/tmp/repro_fault_seq.txt").read()).group(1)
base = json.load(open(resolve_baseline("auto")))
healthy = base["suite"]["cluster-fattree-512"]["msg_digest"]
assert msg != healthy[:len(msg)], "fault schedule did not perturb the halo digest"
print(f"fault-smoke: {len(seq)} rows identical across modes, digest differs from healthy")
EOF
# The same fault under the 16-rank LLM replay, whose ranks sit on nodes 0
# and 1: node 3 hosts no rank, so only its fault gets it built.  Both modes
# must agree, and node 3 must have stepped (its digest is not the empty one).
PYTHONPATH=src python -m repro fault examples/schedules/faults_fattree512.jsonl \
    --workload replay:examples/schedules/llm16.jsonl \
    --machine fat-tree-512 > /tmp/repro_fault_replay_seq.txt
PYTHONPATH=src python -m repro fault examples/schedules/faults_fattree512.jsonl \
    --workload replay:examples/schedules/llm16.jsonl \
    --machine fat-tree-512 --shards 2 > /tmp/repro_fault_replay_mp.txt
PYTHONPATH=src python - <<'EOF'
import re

def rows(path):
    text = open(path).read()
    return re.findall(r"^(?:popped|  class|  digest).*$", text, re.M)

seq = rows("/tmp/repro_fault_replay_seq.txt")
mp = rows("/tmp/repro_fault_replay_mp.txt")
assert seq and seq == mp, "faulted replay: sequential vs --shards 2 diverged"
shard3 = re.search(r"digest steps_shard3\s+(\S+)", "\n".join(seq)).group(1)
assert shard3 != "e3b0c44298fc1c14", "faulted rank-less shard 3 was not stepped"
print(f"fault-smoke: replay {len(seq)} rows identical across modes, shard 3 stepped")
EOF

echo "== profile smoke (Chrome trace_event export) =="
PYTHONPATH=src python -m repro profile examples/pingpong_partitioned.py \
    --chrome /tmp/repro_trace.json
PYTHONPATH=src python - <<'EOF'
import json
from repro.obs.chrome import validate_trace
obj = json.load(open("/tmp/repro_trace.json"))
validate_trace(obj)
assert len(obj["traceEvents"]) > 100, "suspiciously small trace"
print(f"profile smoke: {len(obj['traceEvents'])} valid trace events")
EOF

echo "== workload smoke (trace replay x sweep cache, DESIGN.md §15) =="
# Replay the checked-in 16-rank LLM schedule on the 512-GPU fat-tree
# under both path policies, twice: the first sweep populates the
# content-addressed cache, the second must be 100% cache hits.
rm -rf /tmp/repro_sweep_cache
PYTHONPATH=src python -m repro sweep \
    --workloads replay:examples/schedules/llm16.jsonl \
    --machines fat-tree-512 --policies single,multi --shards 2 \
    --cache-dir /tmp/repro_sweep_cache --out /tmp/repro_sweep_first.json
PYTHONPATH=src python -m repro sweep \
    --workloads replay:examples/schedules/llm16.jsonl \
    --machines fat-tree-512 --policies single,multi --shards 2 \
    --cache-dir /tmp/repro_sweep_cache --out /tmp/repro_sweep_second.json
PYTHONPATH=src python - <<'EOF'
import json
first = json.load(open("/tmp/repro_sweep_first.json"))
second = json.load(open("/tmp/repro_sweep_second.json"))
assert first["misses"] == len(first["cells"]) and first["hits"] == 0, first
assert second["hits"] == len(second["cells"]) and second["misses"] == 0, \
    f"sweep re-run not 100% cached: {second['hits']}/{len(second['cells'])}"
for a, b in zip(first["cells"], second["cells"]):
    assert a["key"] == b["key"] and a["result"] == b["result"], a["key"]
print(f"workload smoke: {len(second['cells'])} cells, 100% cache hits on re-run")
EOF

echo "== static analysis (python -m repro analyze) =="
# Fails on any finding that is neither inline-suppressed nor in
# analyze-baseline.json; also exports SARIF for CI annotation upload.
PYTHONPATH=src python -m repro analyze --sarif /tmp/repro_analyze.sarif
PYTHONPATH=src python - <<'EOF'
import json
from repro.analyze.sarif import validate_sarif
validate_sarif(json.load(open("/tmp/repro_analyze.sarif")))
print("analyze smoke: SARIF export valid")
EOF

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src scripts tests examples
else
    echo "== ruff not installed; skipping (config lives in pyproject.toml) =="
fi

echo "CI OK"
