import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actorcover import canon
from actorcover.actors import (
    EXTERNAL,
    INJECT,
    Action,
    Actor,
    ActorFailure,
    Emulator,
    Event,
    IllegalActionError,
)
from actorcover.systems.kv import KEY, KvActor, KvModel, _set_event
from actorcover.systems.vr import MUTANTS, VrActor, VrModel

from conftest import KV_BOUNDS, VR_BOUNDS


def kv_emulator(n=1):
    return Emulator(n, KvActor)


def test_event_hash_is_computed_at_construction_and_equality_is_by_value():
    one = Event("Tick", {"n": 1}, EXTERNAL, 0)
    assert "_hash" in vars(one)
    assert hash(one) == hash(("Tick", canon.Record(n=1), EXTERNAL, 0))
    # Record(n=1) == Record(n=True), so the events are equal; their texts differ.
    true = Event("Tick", {"n": True}, EXTERNAL, 0)
    assert one == true and hash(one) == hash(true)
    assert one.key() != true.key()
    assert one != Event("Tick", {"n": 1}, EXTERNAL, 1)
    assert one != Event("Tock", {"n": 1}, EXTERNAL, 0)
    assert one != ("Tick", canon.Record(n=1), EXTERNAL, 0)


def test_on_event_get_present_key():
    actor = KvActor(0, 3)
    actor.storage[KEY] = "v"
    requests = actor.on_event(Event("GetRequest", {"key": KEY, "serial": 1}, EXTERNAL, 0))
    assert len(requests) == 1
    event = requests[0].to_event(0)
    assert event.kind == "ValueResponse"
    assert event.payload["value"] == "v"
    assert event.destination == EXTERNAL


def test_on_event_get_absent_key_answers_nil():
    actor = KvActor(0, 3)
    requests = actor.on_event(Event("GetRequest", {"key": KEY, "serial": 1}, EXTERNAL, 0))
    assert requests[0].to_event(0).payload["value"] is None


def test_on_event_set_notifies_every_participant():
    actor = KvActor(1, 3)
    requests = actor.on_event(_set_event(1, 1))
    assert actor.storage == {KEY: "v1"}
    assert [r.to_event(1).destination for r in requests] == [0, 1, 2]
    assert all(r.to_event(1).kind == "KeyUpdated" for r in requests)


def test_inject_then_deliver_single_actor():
    emu = kv_emulator(1)
    emu.step(Action.inject(_set_event(1, 0)))
    snap = emu.step(Action.deliver(_set_event(1, 0)))
    # The store holds exactly the one self-notification the set produced.
    assert emu.store.total() == 1
    (left,) = snap.events
    assert left.kind == "KeyUpdated"


def test_deliver_to_crashed_actor_is_illegal():
    emu = kv_emulator(1)
    emu.step(Action.inject(_set_event(1, 0)))
    emu.step(Action.crash(0))
    with pytest.raises(IllegalActionError):
        emu.step(Action.deliver(_set_event(1, 0)))


def test_deliver_unknown_selector_is_illegal():
    emu = kv_emulator(1)
    with pytest.raises(IllegalActionError):
        emu.step(Action.deliver(_set_event(1, 0)))


def test_commuting_deliveries_to_distinct_actors():
    def run(order):
        emu = kv_emulator(2)
        emu.step(Action.inject(_set_event(1, 0)))
        emu.step(Action.inject(_set_event(1, 1)))
        for dest in order:
            emu.step(Action.deliver(_set_event(1, dest)))
        return emu.snapshot()

    assert run([0, 1]) == run([1, 0])


def test_crash_preserves_persistent_state():
    emu = kv_emulator(1)
    emu.step(Action.inject(_set_event(1, 0)))
    emu.step(Action.deliver(_set_event(1, 0)))
    before = emu.snapshot().actors[0]
    emu.step(Action.crash(0))
    snap = emu.step(Action.restart(0))
    assert snap.actors[0] == before
    assert snap.alive == (True,)


def test_corrupt_replaces_payload_only():
    emu = kv_emulator(1)
    emu.step(Action.inject(_set_event(1, 0)))
    replacement = {"key": KEY, "value": "corrupt:v1"}
    snap = emu.step(Action.corrupt(_set_event(1, 0), replacement))
    (event,) = snap.events
    assert event.kind == "SetRequest"
    assert event.payload["value"] == "corrupt:v1"
    assert event.source == EXTERNAL and event.destination == 0


def test_snapshot_collapses_duplicates_but_store_counts_them():
    emu = kv_emulator(1)
    emu.step(Action.inject(_set_event(1, 0)))
    emu.step(Action.inject(_set_event(1, 0)))
    assert emu.store.total() == 2
    assert emu.snapshot().events == frozenset({_set_event(1, 0)})


def test_conservation_on_deliver():
    emu = kv_emulator(3)
    emu.step(Action.inject(_set_event(1, 2)))
    size_before = emu.store.total()
    emu.step(Action.deliver(_set_event(1, 2)))
    # One withdrawn, three notifications produced.
    assert emu.store.total() == size_before - 1 + 3


def test_actor_exception_becomes_actor_failure():
    event = Event("Bogus", {}, EXTERNAL, 0)
    emu = kv_emulator(1)
    emu.store[event] += 1
    with pytest.raises(ActorFailure):
        emu.step(Action.deliver(event))


def test_action_log_round_trip():
    """Every action kind, corrupt payloads included, survives its key."""
    actions = [
        Action.inject(_set_event(1, 0)),
        Action.deliver(_set_event(1, 0)),
        Action.crash(0),
        Action.corrupt(_set_event(3, 0), {"key": KEY, "value": "corrupt:v3"}),
        Action.restart(0),
    ]
    for action in actions:
        parsed = Action.from_value(canon.loads(action.key()))
        assert parsed == action
        assert parsed.key() == action.key()


@pytest.mark.parametrize(
    "value, says",
    [
        ({"kind": "explode"}, "unknown action kind 'explode'"),
        ({"kind": "inject"}, "inject requires an event"),
        ({"kind": "deliver", "target": 0}, "deliver requires an event"),
        ({"kind": "drop", "event": _set_event(1, 0).to_value(), "target": 0},
         "drop takes no target"),
        ({"kind": "corrupt", "event": _set_event(1, 0).to_value()}, "corrupt requires a payload"),
        ({"kind": "crash"}, "crash requires a target"),
        ({"kind": "crash", "target": 0, "drops": []}, "crash takes no drops"),
        ({"kind": "restart", "target": 0, "payload": 1}, "restart takes no payload"),
        ({"kind": "restart", "target": 0, "event": _set_event(1, 0).to_value()},
         "restart takes no event"),
        # An actor id is a plain non-negative int: not a bool, although True == 1.
        ({"kind": "crash", "target": True}, "crash target True is not an actor id"),
        ({"kind": "restart", "target": -1}, "restart target -1 is not an actor id"),
        ({"kind": "crash", "target": "0"}, "crash target '0' is not an actor id"),
    ],
)
def test_an_action_takes_exactly_the_fields_of_its_kind(value, says):
    with pytest.raises(ValueError, match=f"^{says}$"):
        Action.from_value(canon.freeze(value))
    if "drops" not in value:
        fields = {k: Event.from_value(v) if k == "event" else v for k, v in value.items()}
        with pytest.raises(ValueError, match=f"^{says}$"):
            Action(**fields)


@st.composite
def kv_action_scripts(draw):
    script = draw(
        st.lists(
            st.tuples(st.sampled_from(["inject", "deliver", "drop", "crash", "restart"]),
                      st.integers(0, 1), st.integers(1, 3)),
            max_size=12,
        )
    )
    return script


@given(kv_action_scripts())
@settings(max_examples=60, deadline=None)
def test_replay_determinism_property(script):
    def run():
        emu = kv_emulator(2)
        taken = []
        snaps = []
        for verb, dest, serial in script:
            event = _set_event(serial, dest)
            action = {
                "inject": Action.inject(event),
                "deliver": Action.deliver(event),
                "drop": Action.drop(event),
                "crash": Action.crash(dest),
                "restart": Action.restart(dest),
            }[verb]
            try:
                snaps.append(emu.step(action))
                taken.append(action)
            except IllegalActionError:
                pass
        return taken, snaps

    first_actions, first_snaps = run()
    second_actions, second_snaps = run()
    assert first_actions == second_actions
    assert first_snaps == second_snaps


class _DefaultSaveKvActor(KvActor):
    """A kv actor with nested mutable state, on Actor's default save/restore."""

    save = Actor.save
    restore = Actor.restore

    def __init__(self, actor_id: int, system_size: int):
        super().__init__(actor_id, system_size)
        self.seen = {"kinds": []}

    def on_event(self, event):
        self.seen["kinds"].append(event.kind)
        return super().on_event(event)


SAVING_ACTORS = {
    "vr": VrActor,
    **{f"vr {name}": cls for name, cls in MUTANTS.items()},
    "kv": KvActor,
    "default": _DefaultSaveKvActor,
}


def injected_emulator(actor_cls):
    """An emulator of ``actor_cls`` holding every event its model injects first;
    the first of them changes its destination actor when delivered."""
    if issubclass(actor_cls, VrActor):
        model, count = VrModel(VR_BOUNDS), VR_BOUNDS.replicas
    else:
        model, count = KvModel(KV_BOUNDS), KV_BOUNDS.actors
    emulator = Emulator(count, actor_cls)
    injects = [a for a in model.enabled_actions(model.initial_state()) if a.kind == INJECT]
    for action in injects:
        emulator.step(action)
    return emulator, injects[0].event


def step_some(emulator, count):
    """Deliver ``count`` pending events, rotating through them in key order."""
    for i in range(count):
        pending = sorted((e for e in emulator.store if e.destination != EXTERNAL),
                         key=Event.key)
        emulator.step(Action.deliver(pending[i % len(pending)]))


def full_state(emulator):
    return emulator.snapshot(), [copy.deepcopy(vars(a)) for a in emulator.actors]


@pytest.mark.parametrize("actor_cls", SAVING_ACTORS.values(), ids=SAVING_ACTORS.keys())
def test_one_save_restores_exactly_any_number_of_times(actor_cls):
    emulator, _ = injected_emulator(actor_cls)
    saved, at_save = emulator.save(), full_state(emulator)
    # Each round first delivers the event that changes the log or storage.
    # The second round steps from a restored state: a restore that shared
    # the saved log or storage with the actor would let it change the save.
    for _ in range(2):
        step_some(emulator, 5)
        assert full_state(emulator)[1] != at_save[1]
        emulator.restore(saved)
        assert full_state(emulator) == at_save


@pytest.mark.parametrize("actor_cls", SAVING_ACTORS.values(), ids=SAVING_ACTORS.keys())
def test_a_restore_undoes_a_handler_that_changed_state_then_raised(actor_cls):
    class Raising(actor_cls):
        def on_event(self, event):
            super().on_event(event)
            raise RuntimeError("planted failure after the handler ran")

    emulator, changing = injected_emulator(Raising)
    saved, at_save = emulator.save(), full_state(emulator)
    with pytest.raises(ActorFailure):
        emulator.step(Action.deliver(changing))
    assert vars(emulator.actors[changing.destination]) != at_save[1][changing.destination]
    emulator.restore(saved)
    assert full_state(emulator) == at_save
