"""Fleet tier: N ``repro serve`` nodes behind one consistent-hash gateway.

One job spans processes since the distributed runtime (PR 8); this
package lets one *service* span nodes.  Job ids are already content
hashes of the spec's computational fields, so sharding falls out of a
consistent-hash ring over the node set: every plan-registry/result-store
entry has a home node plus one replica, node-local dedup and
single-flight tuning keep working (identical specs always route to the
same home), and the gateway fails over to the replica when a node dies.

* :mod:`~repro.fleet.ring` -- the consistent-hash ring (vnodes).
* :mod:`~repro.fleet.nodes` -- membership, heartbeats, liveness and the
  versioned shard map.
* :mod:`~repro.fleet.leases` -- lease-file membership: nodes heartbeat
  lease files in a shared directory; the registry derives joins, leaves
  and expiries from them (no static node list required).
* :mod:`~repro.fleet.router` -- candidate ordering + forwarding with
  replica failover, ``NodeUnavailable`` when a shard is dark, and an
  optional global retry budget capping failover amplification.
* :mod:`~repro.fleet.admission` -- per-tenant token-bucket quotas and
  the retry budget (gateway admission control).
* :mod:`~repro.fleet.gateway` -- the HTTP front door (``repro fleet
  serve``): routed submits/lookups/cancels, scattered cross-shard
  batches, proxied event streams, write replication of completed
  results, fleet-level ``/metrics``/``/healthz``.
* :mod:`~repro.fleet.local` -- spawn (and respawn, for warm-reboot
  chaos) a real local N-node fleet for tests, chaos and benches, and
  put a registry + gateway thread in front of it (``gateway_over``).

The contract that matters: any result fetched through the gateway is
bit-identical to a direct single-node run of the same spec -- including
reads served from a rebooted node's persistent store or a replica's
copy after the computing node died.
"""

from .admission import RetryBudget, TenantQuotas, TokenBucket
from .gateway import FleetServer, make_gateway
from .leases import LeaseHeartbeat, clear_lease, read_leases, write_lease
from .local import LocalNode, gateway_over, respawn_node, spawn_local_fleet
from .nodes import ALIVE, DEAD, NodeInfo, NodeRegistry, ShardMap
from .ring import HashRing
from .router import Router

__all__ = [
    "ALIVE",
    "DEAD",
    "FleetServer",
    "HashRing",
    "LeaseHeartbeat",
    "LocalNode",
    "NodeInfo",
    "NodeRegistry",
    "RetryBudget",
    "Router",
    "ShardMap",
    "TenantQuotas",
    "TokenBucket",
    "clear_lease",
    "gateway_over",
    "make_gateway",
    "read_leases",
    "respawn_node",
    "spawn_local_fleet",
    "write_lease",
]
