"""(workload × machine × policy) sweep grid with a content-addressed cache.

:func:`run_sweep` crosses workload specs (registry names or
``replay:<file>`` schedules), machine names, and path policies, running
every cell through the one :class:`~repro.workload.base.Workload`
contract.  Each cell's result is cached under a content-addressed key::

    sha256(canonical_json({
        "spec":     sha256(canonical_json(asdict(machine_spec))),
        "workload": sha256(canonical_json(workload.fingerprint(**params))),
        "policy":   policy or "default",
    }))

so a cache hit means *this exact machine shape, workload content, and
policy* already ran — renaming a spec file or tweaking a parameter
misses, editing whitespace in a schedule's JSONL does not (the replay
fingerprint hashes the parsed schedule, not the file).  ``shards`` is
deliberately absent from the key: sharded execution is pinned
bit-identical to sequential (DESIGN.md §14), so both executors share
cache entries.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.hw.spec.catalog import as_spec
from repro.workload.base import (
    Workload,
    WorkloadError,
    WorkloadResult,
    canonical_json,
    resolve_machine_arg,
    sha256_hex,
)
from repro.workload.registry import resolve_spec


def spec_hash(machine: Union[str, Any]) -> str:
    """SHA-256 of the resolved machine spec's canonical content."""
    spec = as_spec(resolve_machine_arg(machine))
    return sha256_hex(canonical_json(dataclasses.asdict(spec)))


def workload_hash(workload: Workload, params: Optional[dict] = None) -> str:
    return sha256_hex(canonical_json(workload.fingerprint(**(params or {}))))


def cell_key(
    machine: Union[str, Any],
    workload: Workload,
    policy: Optional[str],
    params: Optional[dict] = None,
) -> str:
    """The content-addressed cache key for one sweep cell."""
    return sha256_hex(canonical_json({
        "spec": spec_hash(machine),
        "workload": workload_hash(workload, params),
        "policy": policy if policy is not None else "default",
    }))


class SweepCache:
    """One JSON file per cell, named by its content-addressed key.

    ``max_bytes`` (None = unbounded, else > 0) caps the total size of
    cached cells with LRU eviction: every cache hit touches its file's mtime, and a store
    that pushes the cache past the cap deletes least-recently-used
    cells until it fits again (the entry just written is exempt, so a
    single oversized cell still caches).
    """

    def __init__(self, root: str, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise WorkloadError(f"sweep cache cap must be > 0 bytes, got {max_bytes}")
        self.root = root
        self.max_bytes = max_bytes
        self.evicted = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def load(self, key: str) -> Optional[WorkloadResult]:
        path = self._path(key)
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, KeyError) as exc:
            raise WorkloadError(f"corrupt sweep cache entry {path}: {exc}") from exc
        try:
            os.utime(path)  # mark recently used for LRU eviction
        except OSError:  # pragma: no cover - raced with eviction
            pass
        return WorkloadResult.from_dict(doc)

    def store(self, key: str, result: WorkloadResult) -> None:
        os.makedirs(self.root, exist_ok=True)
        path = self._path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(result.as_dict(), fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        self._evict(keep=path)

    def _evict(self, keep: str) -> None:
        if self.max_bytes is None:
            return
        entries = []  # (mtime, size, path) for every cached cell
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:  # pragma: no cover - raced with cleanup
            return
        for fname in names:
            if not fname.endswith(".json"):
                continue
            path = os.path.join(self.root, fname)
            try:
                st = os.stat(path)
            except OSError:  # pragma: no cover - raced with eviction
                continue
            entries.append((st.st_mtime, st.st_size, path))
        total = sum(size for _mt, size, _p in entries)
        for _mtime, size, path in sorted(entries):
            if total <= self.max_bytes:
                break
            if path == keep:
                continue
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - raced with eviction
                continue
            total -= size
            self.evicted += 1


DEFAULT_CACHE_DIR = ".sweep-cache"


def run_sweep(
    workloads: Sequence[Union[str, Workload]],
    machines: Sequence[str],
    policies: Sequence[Optional[str]] = (None,),
    shards: Optional[int] = None,
    params: Optional[Dict[str, Any]] = None,
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
    cache_max_bytes: Optional[int] = None,
    printer: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run the full (workload × machine × policy) grid.

    Returns ``{"cells": [...], "hits": n, "misses": n}`` where each cell
    carries its key, coordinates, cache status, and the full
    ``WorkloadResult.as_dict()``.  ``cache_dir=None`` disables caching;
    ``cache_max_bytes`` bounds the cell cache with LRU eviction.
    ``shards`` applies only to shard-capable workloads; others run on
    their single engine regardless.
    """
    say = printer if printer is not None else (lambda _msg: None)
    cache = SweepCache(cache_dir, max_bytes=cache_max_bytes) if cache_dir else None
    resolved: List[Workload] = [
        wl if isinstance(wl, Workload) else resolve_spec(wl) for wl in workloads
    ]
    if not resolved:
        raise WorkloadError("sweep needs at least one workload")
    if not machines:
        raise WorkloadError("sweep needs at least one machine")
    cells: List[dict] = []
    hits = misses = 0
    grid = [
        (wl, machine, policy)
        for wl in resolved for machine in machines for policy in policies
    ]
    wl_params = params or {}
    for wl, machine, policy in grid:
        key = cell_key(machine, wl, policy, wl_params)
        label = f"{wl.name} × {machine} × {policy or 'default'}"
        cached = cache.load(key) if cache is not None else None
        if cached is not None:
            hits += 1
            say(f"HIT  {label}  [{key[:12]}]")
            result = cached
        else:
            misses += 1
            say(f"MISS {label}  [{key[:12]}] -> running")
            use_shards = shards if wl.supports_shards else None
            result = wl.run(
                machine=machine, policy=policy, shards=use_shards,
                **wl_params,
            )
            if cache is not None:
                cache.store(key, result)
        cells.append({
            "key": key,
            "workload": wl.name,
            "machine": machine,
            "policy": policy if policy is not None else "default",
            "cached": cached is not None,
            "result": result.as_dict(),
        })
    out = {"cells": cells, "hits": hits, "misses": misses}
    if cache is not None and cache.evicted:
        out["evicted"] = cache.evicted
    return out
