"""Per-shard durability bundle (:class:`ShardDurability`).

One instance owns everything durable about one shard — or about a
whole classic platform, which recovery-wise is just a one-shard fleet:
the WAL segment store, the snapshot store, the effect ledger, the
deployment journal, and the kernel middleware that taps deliveries
into the log.  The bundle outlives the platform it is attached to: a
crash throws the platform away, recovery builds a fresh one and
re-attaches the same bundle.

The deployment journal is deliberately in-memory: it models reloading
code and topology from deployment descriptors, which real systems keep
in a control plane, not in the data-plane WAL.  What *is* on disk with
real ``fsync`` is everything the paper's data plane produces: envelope
deliveries, provider effects, snapshots.
"""

from __future__ import annotations

import os
import random
from typing import Any, Dict, List, Optional, Tuple

from repro.durability.config import DurabilityConfig
from repro.durability.dedup import EffectLedger
from repro.durability.segments import SegmentStore
from repro.durability.snapshot import SnapshotStore, capture_state, quiescent
from repro.durability.wal import DurabilityMiddleware, WriteAheadLog
from repro.exceptions import DurabilityError


class DeploymentJournal:
    """Ordered record of every deployment, replayed to rebuild a shard.

    Entries hold the *live* service/community/composite objects — the
    same ones the original deployment used — so stateful service
    handlers (counters, inventories) keep their accumulated state
    across incarnations, exactly like real code reloaded from a
    descriptor against a persistent backing store.
    """

    def __init__(self) -> None:
        self._entries: "List[Tuple[str, Tuple[Any, ...]]]" = []

    def record_elementary(self, service, host: str, rng_state) -> None:
        self._entries.append(("elementary", (service, host, rng_state)))

    def record_community(
        self, community, host: str, kwargs: "Dict[str, Any]"
    ) -> None:
        self._entries.append(("community", (community, host, dict(kwargs))))

    def record_composite(
        self, composite, host: str, kwargs: "Dict[str, Any]"
    ) -> None:
        self._entries.append(("composite", (composite, host, dict(kwargs))))

    def record_publish(self, description, category: str, contact: str) -> None:
        self._entries.append(("publish", (description, category, contact)))

    def redeploy(self, platform) -> int:
        """Replay every entry against a fresh platform."""
        deployer, engine = platform.deployer, platform.discovery
        for kind, payload in self._entries:
            if kind == "elementary":
                service, host, rng_state = payload
                rng = random.Random(0)
                rng.setstate(rng_state)
                deployer.deploy_elementary(service, host, rng=rng)
            elif kind == "community":
                community, host, kwargs = payload
                deployer.deploy_community(community, host, **kwargs)
            elif kind == "composite":
                composite, host, kwargs = payload
                deployer.deploy_composite(composite, host, **kwargs)
            elif kind == "publish":
                description, category, contact = payload
                engine.publish(description, category=category,
                               contact=contact)
        return len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class ShardDurability:
    """WAL + snapshots + effect ledger + journal for one shard."""

    def __init__(
        self, config: DurabilityConfig, shard_id: "Optional[int]" = None
    ) -> None:
        self.config = config
        self.shard_id = shard_id
        os.makedirs(config.dir, exist_ok=True)
        self.store = SegmentStore(
            os.path.join(config.dir, "wal"),
            fsync=config.fsync,
            fsync_interval_records=config.fsync_interval_records,
            segment_max_bytes=config.segment_max_bytes,
        )
        self.wal = WriteAheadLog(self.store)
        self.snapshots = SnapshotStore(
            os.path.join(config.dir, "snapshots"), keep=config.snapshot_keep
        )
        self.effects = EffectLedger(wal=self.wal)
        self.journal = DeploymentJournal()
        self.middleware = DurabilityMiddleware(self.wal)
        self.crashed = False
        self.recovering = False
        #: The attached platform (replaced wholesale on recovery).
        self.platform = None

    # Wiring ----------------------------------------------------------------

    def attach(self, platform) -> "ShardDurability":
        """Hook this bundle into a (fresh or original) classic platform.

        The one place durability meets a runtime: a classic platform,
        a fleet shard and a wire shard process all come through here.
        """
        self.platform = platform
        platform.kernel.add_middleware(self.middleware)
        platform.deployer.durability = self
        platform.discovery.on_publish = self._on_publish
        platform.durability = self
        self.crashed = False
        return self

    def _on_publish(self, description, category: str, contact: str) -> None:
        if not self.recovering:
            self.journal.record_publish(description, category, contact)

    # Snapshots -------------------------------------------------------------

    def quiescent(self) -> "Tuple[bool, str]":
        return quiescent(self.platform.transport, self.platform.kernel)

    def take_snapshot(self) -> int:
        """Snapshot at a quiescent barrier and truncate the WAL."""
        ok, reason = self.quiescent()
        if not ok:
            raise DurabilityError(
                f"cannot snapshot a non-quiescent shard: {reason}"
            )
        platform = self.platform
        state = capture_state(
            platform.kernel, self.effects,
            directory=platform.directory,
            registry=platform.discovery.registry,
        )
        snapshot_id = self.snapshots.take(state)
        # The snapshot is durable (fsynced before rename); everything in
        # the log is now re-derivable from it.
        self.wal.truncate()
        return snapshot_id

    # Lifecycle -------------------------------------------------------------

    def sync(self) -> None:
        """Force the WAL tail durable regardless of fsync policy."""
        self.wal.sync()

    def crash(self) -> int:
        """Kill the shard: drop the unsynced WAL tail and all in-memory
        durability state.  Returns the number of records lost."""
        lost = self.wal.crash()
        self.effects.clear()
        self.crashed = True
        return lost

    def begin_recovery(self) -> None:
        """Suspend logging while the journal/snapshot/replay rebuild runs."""
        self.crashed = False
        self.recovering = True
        self.wal.suspended = True
        self.effects.suspended = True

    def finish_recovery(self) -> None:
        """Resume logging and persist effects re-discovered during replay."""
        self.recovering = False
        self.wal.suspended = False
        self.effects.suspended = False
        self.effects.flush_pending()

    @property
    def suspended(self) -> bool:
        """Whether journal/log recording is currently off."""
        return self.recovering or self.crashed
