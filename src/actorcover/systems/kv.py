"""Broadcast key-value store: the introductory example system.

Each actor owns a string-to-string map.  A delivered ``SetRequest``
updates the map and notifies every participant (including the writer)
with a ``KeyUpdated`` message; a delivered ``GetRequest`` answers the
external client with a ``ValueResponse`` carrying the stored value or
None.  Update notifications are fire-and-forget: no handler consumes
them, so they stay in flight, and the model defines no delivery
transition for them.

The storage map is the persistent part of the actor state; there is no
volatile part, so a crash costs nothing but availability.  Fault actions
(crash/restart, drop, payload corruption) are switched on per bound so
small graphs can exercise every emulator capability.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import canon
from ..actors import (
    CORRUPT,
    CRASH,
    DELIVER,
    DROP,
    EXTERNAL,
    INJECT,
    RESTART,
    Action,
    Actor,
    Emulator,
    Event,
    OperationRequest,
    send,
)
from ..model import GuardViolationError, Model, ModelState, merged_events

KEY = "x"

SET_REQUEST = "SetRequest"
GET_REQUEST = "GetRequest"
KEY_UPDATED = "KeyUpdated"
VALUE_RESPONSE = "ValueResponse"


@dataclass(frozen=True)
class KvBounds:
    actors: int = 3
    max_sets: int = 1
    max_gets: int = 0
    allow_crash: bool = False
    allow_drop: bool = False
    allow_corrupt: bool = False

    def __post_init__(self):
        if self.actors < 1:
            raise ValueError("actors must be >= 1")
        if self.max_sets < 0 or self.max_gets < 0:
            raise ValueError("bounds must be non-negative")


def _set_event(serial: int, destination: int) -> Event:
    return Event(SET_REQUEST, {"key": KEY, "value": f"v{serial}"}, EXTERNAL, destination)


def _get_event(serial: int, destination: int) -> Event:
    return Event(GET_REQUEST, {"key": KEY, "serial": serial}, EXTERNAL, destination)


CORRUPTED = "corrupt:"


def _corrupted_payload(event: Event) -> canon.Record:
    return canon.Record(key=event.payload["key"], value=CORRUPTED + event.payload["value"])


def _corruptible(event: Event) -> bool:
    """A set request not corrupted yet: each request is corrupted at most
    once, which keeps the graph finite."""
    return event.kind == SET_REQUEST and not event.payload["value"].startswith(CORRUPTED)


class KvModel(Model):
    """Executable reference model of the broadcast store."""

    name = "kv"

    def __init__(self, bounds: KvBounds):
        self.bounds = bounds

    def initial_state(self) -> ModelState:
        empty = canon.Record(storage=canon.Record())
        return ModelState(
            actors=(empty,) * self.bounds.actors,
            alive=(True,) * self.bounds.actors,
            globals_=canon.Record(sets=0, gets=0),
            events=(),
        )

    def enabled_actions(self, state: ModelState) -> list[Action]:
        b = self.bounds
        actions: list[Action] = []
        if state.globals_["sets"] < b.max_sets:
            serial = state.globals_["sets"] + 1
            for dest in range(b.actors):
                actions.append(Action.inject(_set_event(serial, dest)))
        if state.globals_["gets"] < b.max_gets:
            serial = state.globals_["gets"] + 1
            for dest in range(b.actors):
                actions.append(Action.inject(_get_event(serial, dest)))
        for event in state.events:
            dest = event.destination
            if (
                dest != EXTERNAL
                and state.alive[dest]
                and event.kind in (SET_REQUEST, GET_REQUEST)
            ):
                actions.append(Action.deliver(event))
            if b.allow_drop:
                actions.append(Action.drop(event))
            if b.allow_corrupt and _corruptible(event):
                actions.append(Action.corrupt(event, _corrupted_payload(event)))
        if b.allow_crash:
            for target in range(b.actors):
                if state.alive[target]:
                    actions.append(Action.crash(target))
                else:
                    actions.append(Action.restart(target))
        actions.sort(key=Action.sort_token)
        return actions

    def apply(self, state: ModelState, action: Action) -> ModelState:
        handler = self._HANDLERS.get(action.kind)
        if handler is None:
            raise GuardViolationError(f"action kind {action.kind!r} not part of this model")
        return handler(self, state, action)

    def _apply_inject(self, state: ModelState, action: Action) -> ModelState:
        event = action.event
        g = state.globals_
        if event.kind == SET_REQUEST:
            if g["sets"] >= self.bounds.max_sets:
                raise GuardViolationError("set bound exhausted")
            expected = _set_event(g["sets"] + 1, event.destination)
            new_globals = g.replace(sets=g["sets"] + 1)
        elif event.kind == GET_REQUEST:
            if g["gets"] >= self.bounds.max_gets:
                raise GuardViolationError("get bound exhausted")
            expected = _get_event(g["gets"] + 1, event.destination)
            new_globals = g.replace(gets=g["gets"] + 1)
        else:
            raise GuardViolationError(f"cannot inject {event.kind}")
        if event != expected or not 0 <= event.destination < self.bounds.actors:
            raise GuardViolationError(f"unexpected injection {event.key()}")
        return ModelState(
            actors=state.actors,
            alive=state.alive,
            globals_=new_globals,
            events=merged_events(state.events, None, [event]),
        )

    def _apply_deliver(self, state: ModelState, action: Action) -> ModelState:
        event = action.event
        dest = event.destination
        if event not in state.events:
            raise GuardViolationError(f"event not in flight: {event.key()}")
        if dest == EXTERNAL or not state.alive[dest]:
            raise GuardViolationError("destination cannot process events")
        storage = dict(state.actors[dest]["storage"])
        emitted: list[Event] = []
        if event.kind == SET_REQUEST:
            storage[event.payload["key"]] = event.payload["value"]
            payload = canon.Record(key=event.payload["key"], value=event.payload["value"])
            for actor in range(self.bounds.actors):
                emitted.append(Event(KEY_UPDATED, payload, dest, actor))
        elif event.kind == GET_REQUEST:
            payload = canon.Record(
                key=event.payload["key"],
                value=storage.get(event.payload["key"]),
                serial=event.payload["serial"],
            )
            emitted.append(Event(VALUE_RESPONSE, payload, dest, event.source))
        else:
            raise GuardViolationError(f"{event.kind} has no delivery transition")
        return ModelState(
            actors=state.replace_actor(dest, canon.Record(storage=storage)),
            alive=state.alive,
            globals_=state.globals_,
            events=merged_events(state.events, event, emitted),
        )

    def _apply_drop(self, state: ModelState, action: Action) -> ModelState:
        if not self.bounds.allow_drop:
            raise GuardViolationError("drop is disabled")
        if action.event not in state.events:
            raise GuardViolationError("event not in flight")
        return ModelState(
            actors=state.actors,
            alive=state.alive,
            globals_=state.globals_,
            events=merged_events(state.events, action.event, []),
        )

    def _apply_corrupt(self, state: ModelState, action: Action) -> ModelState:
        event = action.event
        if not self.bounds.allow_corrupt:
            raise GuardViolationError("corrupt is disabled")
        if event not in state.events:
            raise GuardViolationError("event not in flight")
        if not _corruptible(event) or action.payload != _corrupted_payload(event):
            raise GuardViolationError("unexpected corruption")
        replacement = Event(event.kind, action.payload, event.source, event.destination)
        return ModelState(
            actors=state.actors,
            alive=state.alive,
            globals_=state.globals_,
            events=merged_events(state.events, event, [replacement]),
        )

    def _apply_crash(self, state: ModelState, action: Action) -> ModelState:
        if not self.bounds.allow_crash:
            raise GuardViolationError("crash is disabled")
        target = action.target
        if not state.alive[target]:
            raise GuardViolationError(f"actor {target} is already crashed")
        alive = list(state.alive)
        alive[target] = False
        return ModelState(state.actors, tuple(alive), state.globals_, state.events)

    def _apply_restart(self, state: ModelState, action: Action) -> ModelState:
        if not self.bounds.allow_crash:
            raise GuardViolationError("restart is disabled")
        target = action.target
        if state.alive[target]:
            raise GuardViolationError(f"actor {target} is not crashed")
        alive = list(state.alive)
        alive[target] = True
        return ModelState(state.actors, tuple(alive), state.globals_, state.events)

    # Plain functions, called with the model: a table of bound methods on
    # the instance would put every model in a reference cycle.
    _HANDLERS = {
        INJECT: _apply_inject,
        DELIVER: _apply_deliver,
        DROP: _apply_drop,
        CORRUPT: _apply_corrupt,
        CRASH: _apply_crash,
        RESTART: _apply_restart,
    }

    def bounds_exhausted(self, state: ModelState) -> bool:
        return (
            state.globals_["sets"] >= self.bounds.max_sets
            and state.globals_["gets"] >= self.bounds.max_gets
        )


class KvActor(Actor):
    """Implementation-side key-value actor."""

    def __init__(self, actor_id: int, system_size: int):
        super().__init__(actor_id, system_size)
        self.storage: dict[str, str] = {}  # persistent across crashes

    def on_event(self, event: Event) -> list[OperationRequest]:
        if event.kind == SET_REQUEST:
            self.storage[event.payload["key"]] = event.payload["value"]
            payload = {"key": event.payload["key"], "value": event.payload["value"]}
            return [send(actor, KEY_UPDATED, payload) for actor in range(self.system_size)]
        if event.kind == GET_REQUEST:
            payload = {
                "key": event.payload["key"],
                "value": self.storage.get(event.payload["key"]),
                "serial": event.payload["serial"],
            }
            return [send(event.source, VALUE_RESPONSE, payload)]
        if event.kind == KEY_UPDATED:
            return []  # fire-and-forget notification
        raise ValueError(f"unhandled event kind {event.kind!r}")

    # The storage dict is the only mutable field; its keys and values are strings.
    def save(self):
        return {**self.__dict__, "storage": dict(self.storage)}

    def restore(self, saved) -> None:
        self.__dict__.clear()
        self.__dict__.update(saved)
        self.storage = dict(saved["storage"])

    def to_model(self):
        return canon.Record(storage=self.storage)


def make_emulator(bounds: KvBounds) -> Emulator:
    return Emulator(bounds.actors, KvActor)
