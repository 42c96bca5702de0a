"""repro.shard: conservative-parallel sharded execution of cluster specs.

One :class:`~repro.shard.shard.Shard` per node, each with a private
engine and node-local fabric; :class:`~repro.shard.message.ShardMessage`
is the only thing that crosses a shard boundary, routed through
driver-side window queues under a CMB-style lookahead horizon.
:class:`~repro.shard.cluster.ClusterJob` runs one window loop over
shard blocks: one in-process block (the pinned-deterministic sequential
default) or one forked worker per block (``--shards N``), with
bit-identical results (DESIGN.md §14).
"""

from repro.shard.cluster import ClusterError, ClusterJob, ClusterResult
from repro.shard.mailbox import Mailbox, MailboxError, WindowQueue
from repro.shard.message import MessageDigest, ShardMessage, WireModel
from repro.shard.shard import RemoteBuffer, Shard, ShardBridge, local_spec
from repro.shard.workloads import WORKLOADS, resolve_workload

__all__ = [
    "ClusterError",
    "ClusterJob",
    "ClusterResult",
    "Mailbox",
    "MailboxError",
    "MessageDigest",
    "RemoteBuffer",
    "Shard",
    "ShardBridge",
    "ShardMessage",
    "WindowQueue",
    "WireModel",
    "WORKLOADS",
    "local_spec",
    "resolve_workload",
]
