#!/usr/bin/env bash
# Tier-1 gate: tests + benchmark smoke + static analysis + (when
# available) ruff.  Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q -m "not smoke"

echo "== benchmark smoke (one small-grid point per paper figure) =="
PYTHONPATH=src python -m pytest -x -q -m smoke

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
