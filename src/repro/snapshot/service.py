"""Service-level snapshot: member sessions plus admission state.

A service snapshot is the member sessions (sharing one deduplicating
:class:`~repro.snapshot.blobs.BlobStore`), the per-tenant token-bucket
levels, the virtual admission clock, the admission counters and the
service-level metrics registry -- not the shared state-digest cache, a
host memo that restore starts cold.  Like every snapshot it is captured
between rounds (each member session must be quiescent) and restores by
deterministic-rebuild-then-overwrite.

Placement is deliberately *not* part of the contract: member identity
is checked by ``(device_id, index, tenant)`` only, so a snapshot taken
on a 2-backend service restores into an 8-backend rebuild -- the shard
map decides where sessions run, never what they answer (the PR 5
shard-identity discipline).
"""

from __future__ import annotations

from ..errors import SnapshotError
from ..obs.registry import MetricsRegistry
from ..obs.telemetry import Telemetry
from .blobs import BlobStore
from .codec import overwrite
from .session import snapshot_session
from .swarm import stage_members

__all__ = ["snapshot_service", "stage_service"]


def snapshot_service(service, blobs: BlobStore) -> dict:
    """Capture a service between requests; images go to ``blobs``."""
    return {
        "virtual_now": service.virtual_now,
        "admitted": service.admitted,
        "rejected": service.rejected,
        "peak_in_flight": service.peak_in_flight,
        "members": [{"device_id": member.device_id, "index": member.index,
                     "tenant": member.tenant,
                     "session": snapshot_session(member.session, blobs)}
                    for member in service.members],
        "buckets": {tenant: {"tokens": bucket.tokens,
                             "updated": bucket.updated,
                             "rate": bucket.rate, "burst": bucket.burst}
                    for tenant, bucket in service.buckets.items()},
        "service_registry": (service.telemetry.registry.dump()
                             if service.observe else None),
    }


def stage_service(service, snap: dict, blobs: BlobStore,
                  commits: list) -> None:
    """Stage overwriting a freshly rebuilt ``service`` with captured
    state."""
    stage_members(service, snap, blobs, ("device_id", "index", "tenant"),
                  "service", commits)
    if set(snap["buckets"]) != set(service.buckets):
        raise SnapshotError("tenant set mismatch")
    for tenant, state in snap["buckets"].items():
        bucket = service.buckets[tenant]
        if (bucket.rate != state["rate"]
                or bucket.burst != state["burst"]):
            raise SnapshotError(
                f"token bucket for {tenant} was captured with a different "
                f"duty budget (rate/burst mismatch)")
        overwrite(commits, bucket, tokens=state["tokens"],
                  updated=state["updated"])
    telemetry = service.telemetry
    if snap["service_registry"] is not None:
        if not service.observe:
            raise SnapshotError(
                "snapshot carries service telemetry but the rebuilt "
                "service is unobserved")
        telemetry = Telemetry(
            registry=MetricsRegistry.from_dump(snap["service_registry"]))
    elif service.observe:
        raise SnapshotError(
            "rebuilt service is observed but the snapshot was taken "
            "without telemetry")
    overwrite(commits, service, virtual_now=snap["virtual_now"],
              admitted=snap["admitted"], rejected=snap["rejected"],
              peak_in_flight=snap["peak_in_flight"], telemetry=telemetry)
