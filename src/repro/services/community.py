"""Service communities: containers of alternative services.

A community describes a *desired* service (e.g. "accommodation booking")
without naming a provider.  Providers register as members; at runtime a
request to a community operation is delegated to one member chosen by a
selection policy (see :mod:`repro.selection`).  Members may be suspended
(temporarily out of rotation) or removed, matching the paper's "current
members" phrasing — membership is dynamic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.exceptions import (
    CommunityError,
    ExpressionError,
    NoMemberAvailableError,
)
from repro.expr import CompiledExpression, FunctionRegistry
from repro.services.description import ServiceDescription
from repro.services.profile import ServiceProfile


@dataclass
class MemberRecord:
    """One member of a community.

    ``operation_mapping`` translates community operation names to the
    member's own operation names when they differ (empty mapping means the
    member uses the community's names verbatim).

    ``constraint`` is an optional guard expression over the *request
    arguments* declaring which requests this member can serve (e.g. an
    accommodation provider covering only ``domestic(destination)``).
    This is the "parameters of the request" input to delegation from
    paper §2: members whose constraint evaluates false are excluded from
    the candidate set before any policy ranks them.
    """

    service_name: str
    profile: ServiceProfile = field(default_factory=ServiceProfile)
    operation_mapping: Dict[str, str] = field(default_factory=dict)
    active: bool = True
    constraint: str = ""
    _compiled_constraint: Optional[CompiledExpression] = field(
        default=None, repr=False, compare=False,
    )

    def member_operation(self, community_operation: str) -> str:
        return self.operation_mapping.get(
            community_operation, community_operation
        )

    def serves(
        self,
        arguments: Mapping[str, Any],
        registry: Optional[FunctionRegistry] = None,
    ) -> bool:
        """True when this member's constraint admits ``arguments``.

        An unparsable constraint or an evaluation error (e.g. the request
        lacks a variable the constraint needs) counts as *not serving* —
        a member must not win requests its own declaration can't judge.
        """
        text = self.constraint.strip()
        if not text:
            return True
        try:
            if self._compiled_constraint is None:
                object.__setattr__(
                    self, "_compiled_constraint",
                    CompiledExpression(text, registry),
                )
            return self._compiled_constraint(dict(arguments))
        except ExpressionError:
            return False


class ServiceCommunity:
    """A community: a description plus dynamic membership."""

    def __init__(self, description: ServiceDescription) -> None:
        self.description = description
        self._members: Dict[str, MemberRecord] = {}
        #: Monotonic membership mutation counter (join/leave/suspend/
        #: resume) — the community-side half of the discovery cache's
        #: generation invalidation.
        self.membership_generation = 0
        self._membership_listeners: "List[Callable[[], None]]" = []

    # Membership-change observation ----------------------------------------

    def add_membership_listener(
        self, callback: "Callable[[], None]"
    ) -> None:
        """Call ``callback`` after every membership mutation.

        The platform hooks the discovery engine's locate-cache
        invalidation here: membership churn does not pass through the
        UDDI registry, so without this signal a cached community binding
        could outlive the membership it was resolved under.
        """
        self._membership_listeners.append(callback)

    def _membership_changed(self) -> None:
        self.membership_generation += 1
        for callback in list(self._membership_listeners):
            callback()

    @property
    def name(self) -> str:
        return self.description.name

    @property
    def provider(self) -> str:
        return self.description.provider

    # Membership management -----------------------------------------------

    def join(
        self,
        service_name: str,
        profile: Optional[ServiceProfile] = None,
        operation_mapping: Optional[Mapping[str, str]] = None,
        constraint: str = "",
    ) -> MemberRecord:
        """Register ``service_name`` as a member.

        ``constraint`` is an optional request-argument guard (see
        :class:`MemberRecord`); it must parse, so a typo surfaces at join
        time rather than silently excluding the member forever.
        """
        if service_name in self._members:
            raise CommunityError(
                f"service {service_name!r} is already a member of "
                f"community {self.name!r}"
            )
        unknown_ops = [
            op for op in (operation_mapping or {})
            if not self.description.has_operation(op)
        ]
        if unknown_ops:
            raise CommunityError(
                f"community {self.name!r} does not declare operation(s) "
                f"{sorted(unknown_ops)!r} referenced by member mapping"
            )
        if constraint.strip():
            from repro.expr import parse

            try:
                parse(constraint)
            except ExpressionError as exc:
                raise CommunityError(
                    f"member {service_name!r}: bad constraint "
                    f"{constraint!r}: {exc}"
                ) from exc
        record = MemberRecord(
            service_name=service_name,
            profile=profile or ServiceProfile(),
            operation_mapping=dict(operation_mapping or {}),
            constraint=constraint,
        )
        self._members[service_name] = record
        self._membership_changed()
        return record

    def leave(self, service_name: str) -> None:
        """Remove a member entirely."""
        if service_name not in self._members:
            raise CommunityError(
                f"service {service_name!r} is not a member of community "
                f"{self.name!r}"
            )
        del self._members[service_name]
        self._membership_changed()

    def suspend(self, service_name: str) -> None:
        """Take a member out of rotation without removing it."""
        self._record(service_name).active = False
        self._membership_changed()

    def resume(self, service_name: str) -> None:
        """Return a suspended member to rotation."""
        self._record(service_name).active = True
        self._membership_changed()

    def _record(self, service_name: str) -> MemberRecord:
        record = self._members.get(service_name)
        if record is None:
            raise CommunityError(
                f"service {service_name!r} is not a member of community "
                f"{self.name!r}"
            )
        return record

    # Queries ---------------------------------------------------------------

    def members(self, include_inactive: bool = False) -> "List[MemberRecord]":
        """Current members, active ones only by default."""
        return [
            m for m in self._members.values()
            if include_inactive or m.active
        ]

    def member(self, service_name: str) -> MemberRecord:
        return self._record(service_name)

    def is_member(self, service_name: str) -> bool:
        return service_name in self._members

    def candidates(
        self,
        operation: str,
        arguments: Optional[Mapping[str, Any]] = None,
        registry: Optional[FunctionRegistry] = None,
    ) -> "List[MemberRecord]":
        """Active members able to serve ``operation`` for ``arguments``.

        With ``arguments`` given, members whose request constraint
        rejects them are filtered out (paper §2: the choice of delegatee
        considers "the parameters of the request").  Raises
        :class:`NoMemberAvailableError` when empty — the runtime turns
        this into a community-level invocation failure.
        """
        if not self.description.has_operation(operation):
            raise CommunityError(
                f"community {self.name!r} does not declare operation "
                f"{operation!r}"
            )
        found = [m for m in self._members.values() if m.active]
        if arguments is not None:
            found = [m for m in found if m.serves(arguments, registry)]
        if not found:
            raise NoMemberAvailableError(self.name, operation)
        return found

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ServiceCommunity({self.name!r}, members="
            f"{sorted(self._members)!r})"
        )
