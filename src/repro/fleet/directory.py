"""The fleet's name-to-location layer: shard-local directories, fanned out.

Each shard platform owns a plain
:class:`~repro.runtime.directory.ServiceDirectory` (the deployer on that
shard registers into it directly, coordinators on that shard resolve
through it locally — nothing on the per-message hot path changes).  The :class:`FleetDirectory` is the *control-plane* view
over all of them: it exposes the same resolve/knows/services surface, so
code written against one directory works against a fleet, and answers
the routing question the single-shard world never had — *which shard is
this service actually on?*

Lookups try the consistent-hash home shard first (the overwhelmingly
common case: the fleet deployer places by the same hash) and only then
fan out across the remaining shards, which covers services deployed
with an explicit shard override or an affinity key.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import DeploymentError
from repro.fleet.shardmap import ShardMap
from repro.runtime.directory import ServiceDirectory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.platform import Platform


class FleetDirectory:
    """A :class:`ServiceDirectory`-shaped view over the live shards.

    ``shards`` is the fleet runtime's own shard-id -> platform mapping,
    read live: a killed shard is absent from it, so its services simply
    stop resolving until the recovered shard is put back.
    """

    def __init__(
        self, shard_map: ShardMap, shards: "Mapping[int, Platform]"
    ) -> None:
        if set(shards) != set(shard_map.shard_ids):
            raise ValueError(
                f"shard map has shards {list(shard_map.shard_ids)} but "
                f"shards {sorted(shards)} were given"
            )
        self.shard_map = shard_map
        self._shards = shards

    # Shard routing ----------------------------------------------------------

    def directory_of(self, shard_id: int) -> ServiceDirectory:
        """The shard-local directory behind one (live) shard id."""
        return self._shards[shard_id].directory

    def home_shard(self, service: str) -> int:
        """Where the hash ring says ``service`` belongs (placement-time)."""
        return self.shard_map.shard_for(service)

    def shard_of(self, service: str) -> int:
        """Where ``service`` actually lives (lookup-time, home-first).

        The home shard answers in O(1); a service deployed elsewhere
        (explicit shard or affinity override) is found by scanning the
        remaining live shard directories — in-process dictionary
        probes, not network calls.  Raises :class:`DeploymentError`
        when no live shard knows the name.
        """
        home = self.home_shard(service)
        shard = self._shards.get(home)
        if shard is not None and shard.directory.knows(service):
            return home
        for shard_id, shard in self._shards.items():
            if shard_id != home and shard.directory.knows(service):
                return shard_id
        raise DeploymentError(
            f"service {service!r} has no registered location on any of "
            f"{len(self._shards)} shard(s); was it deployed?"
        )

    # ServiceDirectory surface ----------------------------------------------

    @property
    def generation(self) -> int:
        """Fleet-wide mutation counter: the sum over shard generations.

        Any registration churn on any shard bumps it, so generation
        tokens built from it invalidate exactly as the single-directory
        token does.
        """
        return sum(s.directory.generation for s in self._shards.values())

    def register(
        self,
        service: str,
        node_id: str,
        endpoint: str = "",
        shard: Optional[int] = None,
    ) -> int:
        """Record a location on ``shard`` (default: the home shard).

        Returns the shard id the registration landed on.  The fleet
        deployer registers through the shard's own deployer instead;
        this entry point exists for directory-level tooling and tests.
        """
        target = shard if shard is not None else self.home_shard(service)
        self.directory_of(target).register(service, node_id, endpoint)
        return target

    def unregister(self, service: str) -> None:
        self.directory_of(self.shard_of(service)).unregister(service)

    def resolve(self, service: str) -> "Tuple[str, str]":
        """``(node_id, endpoint)`` on whichever shard hosts the service."""
        return self.directory_of(self.shard_of(service)).resolve(service)

    def knows(self, service: str) -> bool:
        try:
            self.shard_of(service)
        except DeploymentError:
            return False
        return True

    def node_of(self, service: str) -> str:
        return self.resolve(service)[0]

    def services(self) -> "List[str]":
        """Every registered service name, fleet-wide, sorted."""
        names = set()
        for shard in self._shards.values():
            names.update(shard.directory.services())
        return sorted(names)

    def services_by_shard(self) -> "Dict[int, List[str]]":
        """Live shard id -> its registered services (placement diagnostic)."""
        return {
            shard_id: shard.directory.services()
            for shard_id, shard in self._shards.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FleetDirectory {len(self._shards)} shards, "
            f"{len(self.services())} services>"
        )
