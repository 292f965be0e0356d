"""Deterministic single-threaded actor emulation with fault injection.

An :class:`Emulator` owns a fixed set of actors plus a store of unprocessed
events and advances only through :meth:`Emulator.step`, one :class:`Action`
at a time.  Replaying the same action sequence from ``reset`` always yields
the same sequence of snapshots; there is no clock, no randomness and no
thread anywhere in this module.

Faults are actions too: events can be dropped or payload-corrupted, actors
can be crashed (volatile state reset, deliveries refused) and restarted.
A crash never drops pending events implicitly -- the crash action lists
every dropped event explicitly, which keeps replays exact.
"""

from __future__ import annotations

import io
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from . import canon

# Source id for events originating outside the system (clients, timers).
EXTERNAL = -1

# Action kinds.
INJECT = "inject"
DELIVER = "deliver"
DROP = "drop"
CORRUPT = "corrupt"
CRASH = "crash"
RESTART = "restart"

ACTION_KINDS = (INJECT, DELIVER, DROP, CORRUPT, CRASH, RESTART)
FAULT_KINDS = frozenset({DROP, CORRUPT, CRASH, RESTART})


class IllegalActionError(Exception):
    """The requested action is not legal in the current configuration."""


class ActorFailure(Exception):
    """An actor raised while handling an event; the test must abort."""

    def __init__(self, actor: int, event: "Event", cause: BaseException):
        super().__init__(f"actor {actor} failed on {event.key()}: {cause!r}")
        self.actor = actor
        self.event = event
        self.cause = cause


@dataclass(frozen=True)
class Event:
    """One unit of communication: a message, client request or timer tick.

    Identity is the canonical serialization of all four fields; two events
    with equal fields are interchangeable.
    """

    kind: str
    payload: object
    source: int
    destination: int

    def __post_init__(self):
        object.__setattr__(self, "payload", canon.freeze(self.payload))

    def to_value(self) -> canon.Record:
        value = getattr(self, "_value", None)
        if value is None:
            value = canon.Record(
                kind=self.kind,
                payload=self.payload,
                source=self.source,
                destination=self.destination,
            )
            object.__setattr__(self, "_value", value)
        return value

    @classmethod
    def from_value(cls, value: canon.Record) -> "Event":
        return cls(value["kind"], value["payload"], value["source"], value["destination"])

    def key(self) -> str:
        key = getattr(self, "_key", None)
        if key is None:
            key = canon.dumps(self.to_value())
            object.__setattr__(self, "_key", key)
        return key


@dataclass(frozen=True)
class OperationRequest:
    """Message an actor asks to send; converts to exactly one future event."""

    event_kind: str
    payload: object
    destination: int

    def to_event(self, source: int) -> Event:
        return Event(self.event_kind, self.payload, source, self.destination)


def send(destination: int, event_kind: str, payload) -> OperationRequest:
    return OperationRequest(event_kind, payload, destination)


@dataclass(frozen=True)
class Action:
    """One transition applied to the system.

    kind      one of ACTION_KINDS
    event     full canonical event: the payload for INJECT, the selector
              for DELIVER / DROP / CORRUPT
    target    actor id for CRASH / RESTART
    payload   replacement payload for CORRUPT
    drops     events explicitly dropped by a CRASH
    """

    kind: str
    event: Event | None = None
    target: int | None = None
    payload: object = None
    drops: tuple[Event, ...] = ()

    def __post_init__(self):
        if self.kind not in ACTION_KINDS:
            raise ValueError(f"unknown action kind {self.kind!r}")
        object.__setattr__(self, "payload", canon.freeze(self.payload))

    @classmethod
    def inject(cls, event: Event) -> "Action":
        return cls(INJECT, event=event)

    @classmethod
    def deliver(cls, event: Event) -> "Action":
        return cls(DELIVER, event=event)

    @classmethod
    def drop(cls, event: Event) -> "Action":
        return cls(DROP, event=event)

    @classmethod
    def corrupt(cls, event: Event, payload) -> "Action":
        return cls(CORRUPT, event=event, payload=payload)

    @classmethod
    def crash(cls, target: int, drops: tuple[Event, ...] = ()) -> "Action":
        return cls(CRASH, target=target, drops=tuple(drops))

    @classmethod
    def restart(cls, target: int) -> "Action":
        return cls(RESTART, target=target)

    def to_value(self) -> canon.Record:
        rec = {"kind": self.kind}
        if self.event is not None:
            rec["event"] = self.event.to_value()
        if self.target is not None:
            rec["target"] = self.target
        if self.payload is not None:
            rec["payload"] = self.payload
        if self.drops:
            rec["drops"] = tuple(e.to_value() for e in self.drops)
        return canon.Record(rec)

    @classmethod
    def from_value(cls, value: canon.Record) -> "Action":
        return cls(
            kind=value["kind"],
            event=Event.from_value(value["event"]) if "event" in value else None,
            target=value.get("target"),
            payload=value.get("payload"),
            drops=tuple(Event.from_value(v) for v in value.get("drops", ())),
        )

    def key(self) -> str:
        key = getattr(self, "_key", None)
        if key is None:
            key = canon.dumps(self.to_value())
            object.__setattr__(self, "_key", key)
        return key

    def sort_token(self) -> tuple:
        """Cheap deterministic ordering token (kind, then selector identity)."""
        return (
            self.kind,
            self.event.key() if self.event is not None else "",
            self.target if self.target is not None else -1,
            canon.dumps(self.payload) if self.payload is not None else "",
        )


@dataclass(frozen=True)
class SystemState:
    """Composite snapshot: per-actor images, liveness, unprocessed events.

    The event collection is the *set* projection of the internal multiset;
    duplicate in-flight events collapse here and only here.
    """

    actors: tuple
    alive: tuple[bool, ...]
    events: frozenset[Event]

    def to_value(self) -> canon.Record:
        return canon.Record(
            actors=self.actors,
            alive=self.alive,
            events=frozenset(e.to_value() for e in self.events),
        )

    def key(self) -> str:
        return canon.dumps(self.to_value())


class Actor(ABC):
    """Implementation-side actor: reacts to events, projects to the model.

    State must be split into a persistent part (survives crashes) and a
    volatile part (reset by ``reset_volatile``).  ``on_event`` may mutate
    only the actor's own state; every other effect must be returned as an
    OperationRequest.
    """

    def __init__(self, actor_id: int, system_size: int):
        self.actor_id = actor_id
        self.system_size = system_size

    @abstractmethod
    def on_event(self, event: Event) -> list[OperationRequest]:
        ...

    @abstractmethod
    def to_model(self):
        """Project this actor's state onto the model's variable vocabulary."""

    def reset_volatile(self) -> None:
        """Crash hook: restore the volatile part to its initial value."""


class EventStore:
    """Multiset of unprocessed events; any contained event may be withdrawn.

    The store counts multiplicity so conservation stays checkable; the
    snapshot image collapses duplicates to match set-semantics models.
    """

    def __init__(self):
        self._counts: Counter[Event] = Counter()

    def insert(self, event: Event) -> None:
        self._counts[event] += 1

    def contains(self, event: Event) -> bool:
        return self._counts[event] > 0

    def withdraw(self, event: Event) -> None:
        """Remove one copy; IllegalActionError when none is present."""
        if not self.contains(event):
            raise IllegalActionError(f"event not withdrawable: {event.key()}")
        self._counts[event] -= 1
        if self._counts[event] == 0:
            del self._counts[event]

    def size(self) -> int:
        """Total multiset cardinality."""
        return sum(self._counts.values())

    def image(self) -> frozenset[Event]:
        """Set projection of the multiset."""
        return frozenset(self._counts.keys())


@dataclass
class EmulatorConfig:
    """Static shape of an emulated system."""

    actor_count: int
    actor_factory: Callable[[int, int], Actor]
    enabled_faults: frozenset[str] = field(default_factory=lambda: frozenset(FAULT_KINDS))

    def __post_init__(self):
        if self.actor_count < 1:
            raise ValueError("actor count must be >= 1")


class Emulator:
    """Single-threaded emulation of one actor system.

    Not reentrant and not thread-safe; run one instance per test path.
    """

    def __init__(self, config: EmulatorConfig):
        self.config = config
        self.reset()

    def reset(self) -> None:
        n = self.config.actor_count
        self.actors = [self.config.actor_factory(i, n) for i in range(n)]
        self.alive = [True] * n
        self.store = EventStore()
        self._images = [a.to_model() for a in self.actors]

    def snapshot(self) -> SystemState:
        return SystemState(
            actors=tuple(self._images),
            alive=tuple(self.alive),
            events=self.store.image(),
        )

    def step(self, action: Action) -> SystemState:
        """Apply one action and return the resulting snapshot.

        Raises IllegalActionError when the action is not legal here and
        ActorFailure when the target actor raises internally.
        """
        handler = getattr(self, f"_step_{action.kind}")
        handler(action)
        return self.snapshot()

    def _check_fault(self, kind: str) -> None:
        if kind not in self.config.enabled_faults:
            raise IllegalActionError(f"fault action {kind!r} disabled by configuration")

    def _check_actor(self, target) -> int:
        if not isinstance(target, int) or not 0 <= target < self.config.actor_count:
            raise IllegalActionError(f"no such actor: {target!r}")
        return target

    def _step_inject(self, action: Action) -> None:
        event = action.event
        if event is None:
            raise IllegalActionError("inject requires an event")
        if event.source != EXTERNAL:
            raise IllegalActionError("injected events must come from EXTERNAL")
        self._check_actor(event.destination)
        self.store.insert(event)

    def _step_deliver(self, action: Action) -> None:
        event = action.event
        if event is None:
            raise IllegalActionError("deliver requires an event selector")
        target = self._check_actor(event.destination)
        if not self.alive[target]:
            raise IllegalActionError(f"actor {target} is crashed")
        self.store.withdraw(event)
        actor = self.actors[target]
        try:
            requests = actor.on_event(event)
        except Exception as exc:
            raise ActorFailure(target, event, exc) from exc
        self._images[target] = actor.to_model()
        for request in requests:
            self.store.insert(request.to_event(target))

    def _step_drop(self, action: Action) -> None:
        self._check_fault(DROP)
        if action.event is None:
            raise IllegalActionError("drop requires an event selector")
        self.store.withdraw(action.event)

    def _step_corrupt(self, action: Action) -> None:
        self._check_fault(CORRUPT)
        event = action.event
        if event is None:
            raise IllegalActionError("corrupt requires an event selector")
        self.store.withdraw(event)
        self.store.insert(Event(event.kind, action.payload, event.source, event.destination))

    def _step_crash(self, action: Action) -> None:
        self._check_fault(CRASH)
        target = self._check_actor(action.target)
        if not self.alive[target]:
            raise IllegalActionError(f"actor {target} is already crashed")
        self.alive[target] = False
        actor = self.actors[target]
        actor.reset_volatile()
        self._images[target] = actor.to_model()
        for event in action.drops:
            self.store.withdraw(event)

    def _step_restart(self, action: Action) -> None:
        self._check_fault(RESTART)
        target = self._check_actor(action.target)
        if self.alive[target]:
            raise IllegalActionError(f"actor {target} is not crashed")
        self.alive[target] = True


def write_action_log(stream: io.TextIOBase, actions: list[Action]) -> None:
    """Write one canonical action per line; the byte-exact replay format."""
    for action in actions:
        stream.write(action.key())
        stream.write("\n")


def read_action_log(stream: io.TextIOBase) -> list[Action]:
    actions = []
    for line in stream:
        line = line.strip()
        if line:
            actions.append(Action.from_value(canon.loads(line)))
    return actions
