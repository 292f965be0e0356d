"""Executable reference models: the contract the explorer enumerates.

A model is pure: it defines an initial system state, the set of actions
enabled in any state (in a canonical deterministic order), a transition
function, and safety predicates.  States carry the same vocabulary the
emulator snapshots use -- per-actor values, liveness flags, a set of
unprocessed events -- plus model-only bookkeeping counters in ``globals_``
(bounds accounting that has no implementation counterpart).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

from . import canon
from .actors import Action, Event


class GuardViolationError(Exception):
    """An action was applied in a state where its guard does not hold."""


class DuplicateEmissionError(Exception):
    """A transition emitted an event identical to one already in flight.

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


@dataclass(frozen=True)
class ModelState:
    """Canonical state of the whole modeled system."""

    actors: tuple
    alive: tuple[bool, ...]
    globals_: canon.Record
    events: frozenset[Event]

    def to_value(self) -> canon.Record:
        return canon.Record(
            actors=self.actors,
            alive=self.alive,
            globals=self.globals_,
            events=frozenset(e.to_value() for e in self.events),
        )

    def __hash__(self) -> int:
        # Dedup hashes each successor several times; compute it once.
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((self.actors, self.alive, self.globals_, self.events))
            object.__setattr__(self, "_hash", h)
        return h

    def key(self) -> str:
        """Injective canonical key; stable across processes.

        The first call renders :meth:`text` and keeps it on the state, for
        callers that ask for the same state's key many times (replay logs
        write a state once per path through it).
        """
        key = getattr(self, "_key", None)
        if key is None:
            key = self.text()
            object.__setattr__(self, "_key", key)
        return key

    def text(self) -> str:
        """The canonical key, rendered afresh and not kept.

        Assembled from cached per-record and per-event texts; equals
        ``canon.dumps(self.to_value())`` byte for byte.  Explore's level
        sort and the graph writer use it once per state, so they pin no
        key string per state.
        """
        return "".join(
            (
                STATE_ACTORS,
                canon.dumps(self.actors),
                STATE_ALIVE,
                canon.dumps(self.alive),
                STATE_EVENTS,
                ",".join(sorted(e.key() for e in self.events)),
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
    before: frozenset[Event],
    removed: Event | None,
    added: Iterable[Event],
) -> frozenset[Event]:
    """Event set after removing the processed event and adding emissions.

    Raises DuplicateEmissionError when an emission is already in flight;
    see that exception for why this can never be allowed to pass.
    """
    base = set(before)
    if removed is not None:
        base.discard(removed)
    for event in added:
        if event in base:
            raise DuplicateEmissionError(event.key())
        base.add(event)
    return frozenset(base)


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
