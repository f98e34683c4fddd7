"""Service-level snapshot: member sessions plus admission state.

:data:`SERVICE` declares a service snapshot: the member sessions
(sharing one deduplicating :class:`~repro.snapshot.blobs.BlobStore`),
the per-tenant token-bucket levels, the virtual admission clock, the
admission counters and the service-level metrics registry -- not the
shared state-digest cache, a host memo that restore starts cold.  Like
every snapshot it is captured between rounds (each member session must
be quiescent) and restores by deterministic-rebuild-then-overwrite.

Placement is deliberately *not* part of the contract: member identity
is checked by ``(device_id, index, tenant)`` only, so a snapshot taken
on a 2-backend service restores into an 8-backend rebuild -- the shard
map decides where sessions run, never what they answer (the PR 5
shard-identity discipline).
"""

from __future__ import annotations

from .codec import NUMBER, SAME, Field, Keyed, Members, Nested, Table
from .session import REGISTRY, SESSION

__all__ = ["SERVICE"]

BUCKET = Table("bucket", ("tokens", "tokens", NUMBER),
               ("updated", "updated", NUMBER),
               ("rate", "rate", SAME), ("burst", "burst", SAME))

MEMBER = Table("member", ("device_id", "device_id", SAME),
               ("index", "index", SAME), ("tenant", "tenant", SAME),
               ("session", "session", Nested(SESSION)))

#: A service between requests.  A bucket captured with another duty
#: budget (rate or burst) is refused.
SERVICE = Table(
    "service",
    ("virtual_now", "virtual_now", NUMBER),
    ("admitted", "admitted", NUMBER),
    ("rejected", "rejected", NUMBER),
    ("peak_in_flight", "peak_in_flight", NUMBER),
    ("members", "members", Members(MEMBER, "service")),
    ("buckets", "buckets", Keyed(BUCKET, "tenant")),
    Field("service_registry", "telemetry.registry", REGISTRY,
          present=lambda service: service.observe))
