"""`repro.cluster` — sharded serving behind a consistent-hash router.

The horizontal tier over :mod:`repro.service`: a
:class:`~repro.cluster.router.ClusterRouter` consistent-hashes
``(session, guide-panel)`` keys across N backend ``repro-offtarget
serve`` nodes, with health-gated membership
(:class:`~repro.cluster.membership.Membership`), same-request-id
failover re-issue, compiled-guide warmup forwarding, and bounded
admission control. The router runs the backend server's own JSON-lines
loop (:class:`~repro.service.server.JsonLinesServer`). Exposed on the
command line as ``repro-offtarget route``.
"""

from .membership import BackendSpec, Membership, specs_from_endpoints
from .router import ClusterRouter, HashRing, RouterConfig, route_key

__all__ = [
    "BackendSpec",
    "ClusterRouter",
    "HashRing",
    "Membership",
    "RouterConfig",
    "route_key",
    "specs_from_endpoints",
]
