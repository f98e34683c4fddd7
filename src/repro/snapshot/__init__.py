"""Checkpoint/restore with deterministic replay (``repro.snapshot``).

Serializable, versioned snapshots of the *entire* simulation state --
device memory (content-addressed and deduplicated across a fleet),
EA-MPU registers, clocks and interrupt state, freshness state, RNG
stream positions, circuit breakers, telemetry -- at session, swarm and
service granularity.  A sharded ``FleetEngine`` writes and reads swarm
documents, at any worker count.

Snapshots hold simulated state only.  Host memos -- the state-digest
cache that answers a measurement by region fingerprint -- never cross a
checkpoint: restore clears the cache attached to each device it
overwrites, so the first measurement after a restore reads the restored
memory, as ``Code_Attest`` does on the prover.

The core contract is **byte-identity**: restoring a snapshot into a
freshly rebuilt object and continuing the run produces digests, cycle
counts, energy, registry dumps and event traces identical to a run
that never stopped.  Restore is therefore deterministic rebuild plus
field overwrite, never deserialization of live objects; snapshots are
plain JSON and refuse (``SnapshotError``) anything they cannot
reproduce exactly -- pending simulator events, mismatched rebuilds,
unknown adversary types.

Entry points:

* ``Session.snapshot()`` / ``Swarm.snapshot()`` /
  ``FleetEngine.snapshot()`` / ``AttestationService.snapshot()`` --
  capture to an envelope dict;
* the matching ``.restore(documents)`` methods -- overwrite a rebuilt
  object from one document or a root-first delta chain;
* ``Swarm.replay_to_seq`` -- restore and re-drive a swarm until its
  merged event trace reaches a target sequence number;
* ``snapshot(parent=...)`` on the session, swarm and fleet entry points
  -- **delta** capture (``repro.snapshot.delta/v1``): record only the
  chunks whose digest-tree leaves changed since a parent checkpoint,
  with :func:`materialize_chain` folding a chain back into a
  byte-identical full document (see :mod:`repro.snapshot.delta`);
* :func:`bisect_replay` -- binary-search the merged-trace seq axis for
  the first record matching a predicate, restarting probes from the
  nearest checkpoint (see :mod:`repro.snapshot.bisect`);
* ``python -m repro snapshot save|restore|replay|compact|bisect`` --
  the same flows from the command line, with the rebuild spec embedded
  in the file.

Every restore reads its documents through one gate,
:func:`repro.snapshot.delta.open_chain` (a full document is a chain of
one), which runs every document-only check.  It then restores in two
phases (:func:`repro.snapshot.codec.staged`): a *stage* reads the
opened state once, decodes it and checks it against the rebuilt
target, every member of a swarm, service or fleet shard before any
commits; a *commit* only assigns.  A hostile document therefore raises
``SnapshotError`` and leaves the target as it was.
"""

from .bisect import bisect_replay, checkpoint_trace_length, linear_scan
from .blobs import BlobStore
from .codec import decode_message, encode_message, rng_state
from .delta import (DeltaBase, ParentMember, load_chain, materialize_chain,
                    parent_blob_keys, unwrap_parent, verify_chain)
from .device import capture_region_delta
from .document import (build_swarm_from_spec, document_id, load_document,
                       make_document, save_document, swarm_spec)

__all__ = ["BlobStore", "make_document", "save_document", "load_document",
           "swarm_spec", "build_swarm_from_spec",
           "rng_state", "encode_message", "decode_message",
           "DeltaBase", "ParentMember", "capture_region_delta",
           "document_id", "load_chain", "materialize_chain",
           "parent_blob_keys", "unwrap_parent", "verify_chain",
           "bisect_replay", "checkpoint_trace_length", "linear_scan"]
