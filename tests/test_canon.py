import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actorcover import canon
from actorcover.canon import Record, diff, dumps, freeze, loads
from oracles import reference_dumps


def test_freeze_scalars_pass_through():
    for value in (None, True, False, 0, -3, "x"):
        assert freeze(value) == value


def test_freeze_containers():
    frozen = freeze({"b": [1, 2], "a": {1, 2}})
    assert isinstance(frozen, Record)
    assert frozen["b"] == (1, 2)
    assert frozen["a"] == frozenset({1, 2})


def test_floats_rejected():
    with pytest.raises(TypeError):
        freeze(1.5)
    with pytest.raises(TypeError):
        dumps({"a": 2.0})


def test_record_is_hashable_and_ordered_by_key():
    a = Record({"x": 1, "y": 2})
    b = Record({"y": 2, "x": 1})
    assert a == b
    assert hash(a) == hash(b)
    assert dumps(a) == dumps(b) == '{"x":1,"y":2}'


def test_reserved_set_key_rejected():
    with pytest.raises(ValueError):
        Record({canon.SET_TAG: 1})


def test_set_members_sorted_in_dumps():
    a = dumps({"s": {3, 1, 2}})
    b = dumps({"s": {2, 3, 1}})
    assert a == b
    assert a == '{"s":{"$set":[1,2,3]}}'


def test_dumps_loads_round_trip():
    value = freeze(
        {
            "n": None,
            "flag": True,
            "nested": {"seq": [1, "two", {"deep": {4, 5}}]},
            "empty": [],
        }
    )
    assert loads(dumps(value)) == value


def test_loads_rejects_floats():
    with pytest.raises(TypeError):
        loads("[1.5]")


def test_diff_names_the_field():
    a = {"replica": {"commit": 1, "view": 0}}
    b = {"replica": {"commit": 2, "view": 0}}
    out = diff(a, b)
    assert out == [("replica.commit", 1, 2)]


def test_diff_equal_is_empty():
    assert diff({"a": [1, {2}]}, {"a": [1, {2}]}) == []


def test_record_replace():
    a = Record({"x": 1, "y": 2})
    assert a.replace(y=3) == Record({"x": 1, "y": 3})
    assert a["y"] == 2


def test_loads_rejects_float_spellings_and_constants():
    for text in ("1.5", "[1e3]", '{"a":-0.0}', "NaN", "[Infinity]"):
        with pytest.raises(TypeError):
            loads(text)


def test_loads_rejects_the_reserved_key_beside_others():
    with pytest.raises(ValueError):
        loads('{"$set":[1],"x":1}')


def test_loads_keeps_the_last_of_repeated_keys():
    assert loads('{"a":1,"a":2}') == Record(a=2)
    assert loads('{"b":1,"a":[2],"b":3}') == Record(a=(2,), b=3)


def test_loads_accepts_unsorted_keys_and_whitespace():
    value = loads(' { "b" : [ 1 , { "$set" : [ [2] , 1 ] } ] , "a" : null } ')
    assert value == Record(a=None, b=(1, frozenset({(2,), 1})))
    assert dumps(value) == '{"a":null,"b":[1,{"$set":[1,[2]]}]}'


def test_record_lookups():
    a = Record(y=2, x=None)
    assert a["x"] is None and a.get("x", 5) is None
    assert a.get("z") is None and a.get("z", 5) == 5
    assert "x" in a and "z" not in a
    with pytest.raises(KeyError):
        a["z"]
    assert len(a) == 2 and len(Record()) == 0
    assert list(a) == ["x", "y"] and list(a.keys()) == ["x", "y"]
    assert list(a.items()) == [("x", None), ("y", 2)]
    assert dict(a) == {"x": None, "y": 2}


def test_record_repr_lists_keys_in_order():
    assert repr(Record(b=1, a=(2, 3))) == "Record({'a': (2, 3), 'b': 1})"


def test_records_equal_only_with_equal_keys():
    assert Record(a=1) != Record(b=1)
    assert Record(a=1) != Record(a=1, b=None)
    assert Record(a=1) == Record(a=True)  # as Python's 1 == True
    assert hash(Record(a=1)) == hash(Record(a=True))
    assert Record(a=1) != {"a": 1}


def test_record_replace_adds_fields():
    a = Record(x=1)
    b = a.replace(y=[2])
    assert b == Record(x=1, y=(2,)) and list(b) == ["x", "y"]
    assert a == Record(x=1)
    assert dumps(b) == '{"x":1,"y":[2]}'


def test_copies_and_pickles_of_a_record_stay_equal():
    a = Record(x=1, y=(Record(z="w"),))
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == hash(a) and dumps(b) == dumps(a)


def test_dumps_leaves_plain_containers_to_freeze():
    assert dumps([{"b": {1}, "a": ()}]) == '[{"a":[],"b":{"$set":[1]}}]'
    with pytest.raises(TypeError):
        dumps([object()])


# Nested model values, mixing plain containers with frozen ones.
_scalars = st.none() | st.booleans() | st.integers(-(10**20), 10**20) | st.text(max_size=6)
_keys = st.sampled_from(["a", "b", "view", "log", "é", "", '"q"']) | st.text(max_size=4)
values = st.recursive(
    _scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_keys.filter(lambda k: k != canon.SET_TAG), inner, max_size=4)
        | st.dictionaries(_keys.filter(lambda k: k != canon.SET_TAG), inner, max_size=4).map(
            Record
        )
        | st.lists(inner, max_size=4).map(lambda xs: frozenset(freeze(x) for x in xs))
    ),
    max_leaves=20,
)


def _records(value):
    """Every Record inside a frozen value, outermost first."""
    if isinstance(value, Record):
        yield value
        value = tuple(value.values())
    if isinstance(value, (tuple, frozenset)):
        for v in value:
            yield from _records(v)


@given(values)
@settings(max_examples=150, deadline=None)
def test_dumps_matches_the_reference_serializer(value):
    text = reference_dumps(value)
    assert dumps(value) == text
    frozen = freeze(value)
    assert dumps(frozen) == text
    assert dumps(frozen) == text  # again, from the texts cached by the first dump


@given(values)
@settings(max_examples=150, deadline=None)
def test_loads_inverts_dumps(value):
    text = dumps(value)
    parsed = loads(text)
    assert parsed == freeze(value)
    assert dumps(parsed) == text


@given(values)
@settings(max_examples=200, deadline=None)
def test_record_text_is_the_same_before_and_after_caching(value):
    records = list(_records(freeze(value)))
    fresh = [reference_dumps(r) for r in records]
    # Innermost first, so outer records render from cached inner texts.
    for record, text in reversed(list(zip(records, fresh))):
        assert dumps(record) == text
    assert [dumps(r) for r in records] == fresh
