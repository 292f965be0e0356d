import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actorcover import canon
from actorcover.actors import (
    EXTERNAL,
    Action,
    ActorFailure,
    Emulator,
    EmulatorConfig,
    Event,
    IllegalActionError,
    read_action_log,
    write_action_log,
)
from actorcover.systems.kv import KEY, KvActor, _set_event


def kv_emulator(n=1, faults=None):
    config = EmulatorConfig(actor_count=n, actor_factory=KvActor)
    if faults is not None:
        config.enabled_faults = frozenset(faults)
    return Emulator(config)


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
    assert emu.store.size() == 1
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
    emu = kv_emulator(1, faults={"crash", "restart"})
    emu.step(Action.inject(_set_event(1, 0)))
    emu.step(Action.deliver(_set_event(1, 0)))
    before = emu.snapshot().actors[0]
    emu.step(Action.crash(0))
    snap = emu.step(Action.restart(0))
    assert snap.actors[0] == before
    assert snap.alive == (True,)


def test_crash_drops_only_listed_events():
    emu = kv_emulator(2)
    emu.step(Action.inject(_set_event(1, 0)))
    emu.step(Action.inject(_set_event(1, 1)))
    snap = emu.step(Action.crash(0, drops=(_set_event(1, 0),)))
    assert snap.events == frozenset({_set_event(1, 1)})


def test_corrupt_replaces_payload_only():
    emu = kv_emulator(1)
    emu.step(Action.inject(_set_event(1, 0)))
    replacement = {"key": KEY, "value": "corrupt:v1"}
    snap = emu.step(Action.corrupt(_set_event(1, 0), replacement))
    (event,) = snap.events
    assert event.kind == "SetRequest"
    assert event.payload["value"] == "corrupt:v1"
    assert event.source == EXTERNAL and event.destination == 0


def test_disabled_fault_kind_is_illegal():
    emu = kv_emulator(1, faults=set())
    with pytest.raises(IllegalActionError):
        emu.step(Action.crash(0))


def test_snapshot_collapses_duplicates_but_store_counts_them():
    emu = kv_emulator(1)
    emu.step(Action.inject(_set_event(1, 0)))
    emu.step(Action.inject(_set_event(1, 0)))
    assert emu.store.size() == 2
    assert emu.snapshot().events == frozenset({_set_event(1, 0)})


def test_conservation_on_deliver():
    emu = kv_emulator(3)
    emu.step(Action.inject(_set_event(1, 2)))
    size_before = emu.store.size()
    emu.step(Action.deliver(_set_event(1, 2)))
    # One withdrawn, three notifications produced.
    assert emu.store.size() == size_before - 1 + 3


def test_actor_exception_becomes_actor_failure():
    event = Event("Bogus", {}, EXTERNAL, 0)
    emu = kv_emulator(1)
    emu.store.insert(event)
    with pytest.raises(ActorFailure):
        emu.step(Action.deliver(event))


def test_action_log_round_trip(tmp_path):
    actions = [
        Action.inject(_set_event(1, 0)),
        Action.deliver(_set_event(1, 0)),
        Action.crash(0, drops=(_set_event(2, 0),)),
        Action.corrupt(_set_event(3, 0), {"key": KEY, "value": "corrupt:v3"}),
        Action.restart(0),
    ]
    buffer = io.StringIO()
    write_action_log(buffer, actions)
    text = buffer.getvalue()
    assert read_action_log(io.StringIO(text)) == actions
    # Canonical: one action per line, byte-stable.
    buffer2 = io.StringIO()
    write_action_log(buffer2, read_action_log(io.StringIO(text)))
    assert buffer2.getvalue() == text


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
                snaps.append(emu.step(action).key())
                taken.append(action)
            except IllegalActionError:
                pass
        return taken, snaps

    first_actions, first_snaps = run()
    second_actions, second_snaps = run()
    assert first_actions == second_actions
    assert first_snaps == second_snaps
