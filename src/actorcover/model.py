"""Executable reference models: the contract the explorer enumerates.

A model is pure: it defines an initial system state, the set of actions
enabled in any state (in a canonical deterministic order), a transition
function, and safety predicates.  States carry the same vocabulary the
emulator snapshots use -- per-actor values, liveness flags, the set of
unprocessed events (held as a key-ordered tuple) -- plus model-only
bookkeeping counters in ``globals_`` (bounds accounting that has no
implementation counterpart).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

from . import canon
from .actors import Action, Event


class GuardViolationError(Exception):
    """An action was applied in a state where its guard does not hold."""


class DuplicateEmissionError(Exception):
    """A transition emitted an event whose key is already in flight.

    Set-semantics models would silently collapse the duplicate while the
    implementation's multiset store keeps both copies, so the two sides
    could never stay equal afterwards.  Models must make every emission
    distinguishable (serial numbers, view numbers, distinct senders).
    """


# The fixed texts around the parts of a canonical state text (``ModelState.text``),
# at which ``suitefile.StateParser`` cuts a state's text into its parts.
STATE_ACTORS = '{"actors":'
STATE_ALIVE = ',"alive":'
STATE_EVENTS = ',"events":{"%s":[' % canon.SET_TAG
STATE_GLOBALS = ']},"globals":'


class ModelState:
    """Canonical state of the whole modeled system.

    ``events`` is a tuple of distinct events in ``Event.key`` order, the
    order in which ``text`` writes them; the constructor sorts any
    ``events`` that is not a tuple into that form, dropping repeated keys,
    so a caller may pass a set.  A tuple is taken as it is: models keep
    the order through ``merged_events``, and ``suitefile.StateParser``
    builds it from a state text's ascending members.

    A state is a dict key in explore and is never changed once built.  Its
    parts are slots, with no ``__dict__``: a graph holds one state per
    vertex, so the per-state overhead is most of its memory.  Equality is
    by value; the hash is computed on first use and kept, and so is the
    key (see ``key``).
    """

    __slots__ = ("actors", "alive", "globals_", "events", "_hash", "_key")

    def __init__(
        self, actors: tuple, alive: tuple[bool, ...], globals_: canon.Record, events: Iterable[Event]
    ):
        if type(events) is not tuple:
            by_key = {event.key(): event for event in events}
            events = tuple(map(by_key.__getitem__, sorted(by_key)))
        self.actors = actors
        self.alive = alive
        self.globals_ = globals_
        self.events = events
        self._hash = None
        self._key = None

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not ModelState:
            return NotImplemented
        # One tuple compare: each part is compared by identity first.
        return (self.actors, self.alive, self.globals_, self.events) == (
            other.actors, other.alive, other.globals_, other.events
        )

    def __hash__(self) -> int:
        # Dedup hashes each successor several times; compute it once.
        h = self._hash
        if h is None:
            h = self._hash = hash((self.actors, self.alive, self.globals_, self.events))
        return h

    def __repr__(self) -> str:
        return (
            f"ModelState(actors={self.actors!r}, alive={self.alive!r}, "
            f"globals_={self.globals_!r}, events={self.events!r})"
        )

    def to_value(self) -> canon.Record:
        return canon.Record(
            actors=self.actors,
            alive=self.alive,
            globals=self.globals_,
            events=frozenset(e.to_value() for e in self.events),
        )

    def key(self) -> str:
        """Injective canonical key; stable across processes.

        The first call renders :meth:`text` and keeps it on the state, for
        callers that ask for the same state's key many times (replay logs
        write a state once per path through it).
        """
        key = self._key
        if key is None:
            key = self._key = self.text()
        return key

    def text(self) -> str:
        """The canonical key, rendered afresh and not kept.

        Assembled from cached per-record and per-event texts; equals
        ``canon.dumps(self.to_value())`` byte for byte, the events already
        being in key order.  Explore's level sort and the graph writer use
        it once per state, so they pin no key string per state.
        """
        return "".join(
            (
                STATE_ACTORS,
                canon.dumps(self.actors),
                STATE_ALIVE,
                canon.dumps(self.alive),
                STATE_EVENTS,
                ",".join([e.key() for e in self.events]),
                STATE_GLOBALS,
                canon.dumps(self.globals_),
                "}",
            )
        )

    def replace_actor(self, index: int, actor_value) -> tuple:
        actors = list(self.actors)
        actors[index] = canon.freeze(actor_value)
        return tuple(actors)


def merged_events(
    before: tuple[Event, ...],
    removed: Event | None,
    added: Iterable[Event],
) -> tuple[Event, ...]:
    """A state's ``events`` after removing the processed event and adding emissions.

    ``before`` is a state's ``events`` (any iterable of distinct events in
    key order), and the result is in that form too.  ``removed`` is found
    by identity first, since models pass the very object in flight, and by
    ``==`` only when no member is that object; one that is not in flight
    is ignored.  Each emission is inserted at its key's place.

    Raises DuplicateEmissionError when an emission's key is already in
    flight; see that exception for why this can never be allowed to pass.
    Events that are equal but differ in key, such as payloads ``{"n":1}``
    and ``{"n":true}``, are two members, as they are two texts in a file.
    """
    base = list(before)
    if removed is not None:
        try:
            del base[list(map(id, base)).index(id(removed))]
        except ValueError:  # not that object: an equal one, if any
            if removed in base:
                base.remove(removed)
    for event in added:
        key = event.key()
        at = bisect_left(base, key, key=Event.key)
        if at < len(base) and base[at].key() == key:
            raise DuplicateEmissionError(key)
        base.insert(at, event)
    return tuple(base)


@dataclass(frozen=True)
class Invariant:
    """Named state predicate; ``check`` returns a diff text or None."""

    name: str
    check: Callable[[ModelState], str | None]


@dataclass(frozen=True)
class InvariantViolation:
    state_index: int
    name: str
    detail: str


class Model(ABC):
    """Init / enabled / apply / invariants over the emulator's action vocabulary."""

    name: str
    bounds: object  # a dataclass of the exploration bounds

    def bounds_value(self) -> canon.Record:
        """Exploration bounds as a canonical record (for file headers), one key per field."""
        return canon.Record(asdict(self.bounds))

    @abstractmethod
    def initial_state(self) -> ModelState:
        ...

    @abstractmethod
    def enabled_actions(self, state: ModelState) -> list[Action]:
        """Every action whose guard holds, in canonical deterministic order."""

    @abstractmethod
    def apply(self, state: ModelState, action: Action) -> ModelState:
        """Pure successor function; raises GuardViolationError if disabled."""

    def invariants(self) -> list[Invariant]:
        return []

    def bounds_exhausted(self, state: ModelState) -> bool:
        """Whether every bounded resource has been consumed in ``state``."""
        return True

    def quiescence_violation(self, state: ModelState) -> str | None:
        """Progress check applied to sinks with exhausted bounds."""
        return None
