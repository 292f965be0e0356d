"""Deterministic single-threaded actor emulation with fault injection.

An :class:`Emulator` owns a fixed number of actors, built by one factory,
plus a multiset of unprocessed events, and advances only through
:meth:`Emulator.step`, one :class:`Action` at a time.  Replaying the same
actions on a fresh emulator always yields the same sequence of snapshots;
there is no clock, no randomness and no thread anywhere in this module.

Faults are actions too: events can be dropped or payload-corrupted, actors
can be crashed (volatile state reset, deliveries refused) and restarted.
The emulator accepts every fault kind; the model decides which faults
occur.  A crash drops no event: its messages stay in flight, and a
message that is lost is its own drop action, which keeps replays exact.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
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

# The action kinds, each with the fields it takes; its other fields are None.
ACTION_FIELDS = {
    INJECT: ("event",),
    DELIVER: ("event",),
    DROP: ("event",),
    CORRUPT: ("event", "payload"),
    CRASH: ("target",),
    RESTART: ("target",),
}


class IllegalActionError(Exception):
    """The requested action is not legal in the current configuration."""


class ActorFailure(Exception):
    """An actor raised while handling an event; the test must abort."""


@dataclass(frozen=True)
class Event:
    """One unit of communication: a message, client request or timer tick.

    Its ``key`` is the canonical serialization of all four fields.  Events
    compare by field value, so two events with equal fields are
    interchangeable.
    """

    kind: str
    payload: object
    source: int
    destination: int

    def __post_init__(self):
        payload = canon.freeze(self.payload)
        object.__setattr__(self, "payload", payload)
        # Event sets, the models' step memos and ``check_step`` hash each
        # event many times; the hash is computed here, once.
        object.__setattr__(
            self, "_hash", hash((self.kind, payload, self.source, self.destination))
        )

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        # By value, as the fields compare: Record(n=1) == Record(n=True), so
        # those two events are equal although their keys differ.  Equal
        # events hash alike, so unequal hashes settle most comparisons.
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.kind == other.kind
            and self.payload == other.payload
            and self.source == other.source
            and self.destination == other.destination
        )

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
        """Event of a parsed value."""
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

    Each kind takes exactly the fields ``ACTION_FIELDS`` lists for it:

    kind                     event  target  payload
    inject, deliver, drop    yes    -       -
    corrupt                  yes    -       yes
    crash, restart           -      yes     -

    ``event`` is the full canonical event: the one injected, or the one
    delivered, dropped or corrupted.  ``target`` is the crashed or
    restarted actor's id, a plain non-negative int, and ``payload`` the
    corrupted event's new payload.  A missing or an extra field, or a
    target that is no such int, raises ValueError, so a file line that
    names the wrong fields for its kind is rejected where it is read.
    Whether the target names an actor of the model is the emulator's
    check.
    """

    kind: str
    event: Event | None = None
    target: int | None = None
    payload: object = None

    def __post_init__(self):
        fields = ACTION_FIELDS.get(self.kind)
        if fields is None:
            raise ValueError(f"unknown action kind {self.kind!r}")
        for name, article in (("event", "an"), ("target", "a"), ("payload", "a")):
            if (getattr(self, name) is None) == (name in fields):
                raise ValueError(f"{self.kind} requires {article} {name}" if name in fields
                                 else f"{self.kind} takes no {name}")
        # An actor id is a plain int: a bool would pass ``isinstance(target, int)``.
        if self.target is not None and (type(self.target) is not int or self.target < 0):
            raise ValueError(f"{self.kind} target {self.target!r} is not an actor id")
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
    def crash(cls, target: int) -> "Action":
        return cls(CRASH, target=target)

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
        return canon.Record(rec)

    @classmethod
    def from_value(cls, value: canon.Record) -> "Action":
        """Action of a parsed value; ValueError names an unknown kind or a key that is no field."""
        kind = value["kind"]
        for key in value:
            if key not in cls.__dataclass_fields__ and kind in ACTION_FIELDS:
                raise ValueError(f"{kind} takes no {key}")
        return cls(
            kind=kind,
            event=Event.from_value(value["event"]) if "event" in value else None,
            target=value.get("target"),
            payload=value.get("payload"),
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
    duplicate in-flight events collapse here and only here.  A model
    state holds its events as a tuple of distinct events in key order,
    so ``conformance.check_step`` compares the two as equal sizes and
    ``events.issuperset(model_events)``, which hashes each expected event
    once and builds no set.
    """

    actors: tuple
    alive: tuple[bool, ...]
    events: frozenset[Event]


class Actor(ABC):
    """Implementation-side actor: reacts to events, projects to the model.

    State must be split into a persistent part (survives crashes) and a
    volatile part (reset by ``reset_volatile``).  ``on_event`` may mutate
    only the actor's own state; every other effect must be returned as an
    OperationRequest.

    ``save`` returns an independent copy of the actor's whole state and
    ``restore`` puts such a copy back without aliasing it, so one save can
    be restored any number of times, whatever ran in between (including a
    handler that mutated and then raised).  The default deep-copies
    ``__dict__``, which is always faithful but slow; override both when
    the state's mutable parts are known, copying just those and sharing
    the immutable rest.
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

    def save(self):
        """An independent copy of this actor's state, for ``restore``."""
        return copy.deepcopy(self.__dict__)

    def restore(self, saved) -> None:
        """Put back the state ``saved`` holds; ``saved`` stays unchanged."""
        self.__dict__.clear()
        self.__dict__.update(copy.deepcopy(saved))


class Emulator:
    """Single-threaded emulation of one actor system.

    ``actor_factory(i, actor_count)`` builds actor ``i``.  ``store``
    counts each unprocessed event's copies, so conservation stays
    checkable; a snapshot holds the set of them.  Not reentrant and not
    thread-safe; run one instance per test path.
    """

    def __init__(self, actor_count: int, actor_factory: Callable[[int, int], Actor]):
        if actor_count < 1:
            raise ValueError("actor count must be >= 1")
        self.actor_count = actor_count
        self.actors = [actor_factory(i, actor_count) for i in range(actor_count)]
        self.alive = [True] * actor_count
        self.store: Counter[Event] = Counter()
        self._images = [a.to_model() for a in self.actors]

    def snapshot(self) -> SystemState:
        return SystemState(
            actors=tuple(self._images),
            alive=tuple(self.alive),
            events=frozenset(self.store),
        )

    def save(self):
        """The whole emulated state (unlike ``snapshot``, the model's
        projection of it), for ``restore``."""
        return (
            [actor.save() for actor in self.actors],
            tuple(self.alive),
            self.store.copy(),
            tuple(self._images),
        )

    def restore(self, saved) -> None:
        """Return to a ``save``; the same save can be restored again later."""
        actors, alive, store, images = saved
        for actor, state in zip(self.actors, actors):
            actor.restore(state)
        self.alive = list(alive)
        self.store = store.copy()
        self._images = list(images)

    def step(self, action: Action) -> SystemState:
        """Apply one action and return the resulting snapshot.

        Raises IllegalActionError when the action is not legal here and
        ActorFailure when the target actor raises internally.
        """
        getattr(self, f"_step_{action.kind}")(action)
        return self.snapshot()

    def _check_actor(self, target) -> int:
        # An actor id is a plain int: a bool would pass ``isinstance(target, int)``.
        if type(target) is not int or not 0 <= target < self.actor_count:
            raise IllegalActionError(f"no such actor: {target!r}")
        return target

    def _withdraw(self, event: Event) -> None:
        """Remove one copy of ``event``; IllegalActionError when none is in flight."""
        count = self.store[event]
        if not count:
            raise IllegalActionError(f"event not withdrawable: {event.key()}")
        if count == 1:
            del self.store[event]
        else:
            self.store[event] = count - 1

    def _step_inject(self, action: Action) -> None:
        event = action.event
        if event.source != EXTERNAL:
            raise IllegalActionError("injected events must come from EXTERNAL")
        self._check_actor(event.destination)
        self.store[event] += 1

    def _step_deliver(self, action: Action) -> None:
        event = action.event
        target = self._check_actor(event.destination)
        if not self.alive[target]:
            raise IllegalActionError(f"actor {target} is crashed")
        self._withdraw(event)
        actor = self.actors[target]
        try:
            requests = actor.on_event(event)
        except Exception as exc:
            raise ActorFailure(f"actor {target} failed on {event.key()}: {exc!r}") from exc
        self._images[target] = actor.to_model()
        for request in requests:
            self.store[request.to_event(target)] += 1

    def _step_drop(self, action: Action) -> None:
        self._withdraw(action.event)

    def _step_corrupt(self, action: Action) -> None:
        event = action.event
        self._withdraw(event)
        self.store[Event(event.kind, action.payload, event.source, event.destination)] += 1

    def _step_crash(self, action: Action) -> None:
        target = self._check_actor(action.target)
        if not self.alive[target]:
            raise IllegalActionError(f"actor {target} is already crashed")
        self.alive[target] = False
        actor = self.actors[target]
        actor.reset_volatile()
        self._images[target] = actor.to_model()

    def _step_restart(self, action: Action) -> None:
        target = self._check_actor(action.target)
        if self.alive[target]:
            raise IllegalActionError(f"actor {target} is not crashed")
        self.alive[target] = True

