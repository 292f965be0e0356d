"""Canonical immutable model values.

Everything the toolkit compares or writes to disk -- actor states, events,
actions, whole system states -- is built from *model values*: None, bools,
ints, strings, sequences, sets and string-keyed records of model values.
Floats are deliberately rejected: all comparisons are exact.

``freeze`` converts plain Python data into hashable equivalents (dict ->
Record, list -> tuple, set -> frozenset).  ``dumps`` renders any value as a
one-line canonical string with sorted record keys and sorted set members,
so equal values serialize to equal bytes in every process.  ``loads``
parses that string back into frozen form.
"""

from __future__ import annotations

import json
from collections.abc import Mapping

# Reserved record key used to encode sets in the textual form.
SET_TAG = "$set"


class Record(Mapping):
    """Immutable, hashable string-keyed mapping of model values."""

    __slots__ = ("_items", "_hash")

    def __init__(self, data=(), **kwargs):
        pairs = dict(data, **kwargs)
        items = []
        for key in sorted(pairs):
            if not isinstance(key, str):
                raise TypeError(f"record keys must be strings, got {key!r}")
            if key == SET_TAG:
                raise ValueError(f"record key {SET_TAG!r} is reserved")
            items.append((key, freeze(pairs[key])))
        object.__setattr__(self, "_items", tuple(items))
        object.__setattr__(self, "_hash", hash(self._items))

    def __getitem__(self, key):
        for k, v in self._items:
            if k == key:
                return v
        raise KeyError(key)

    def __iter__(self):
        return (k for k, _ in self._items)

    def __len__(self):
        return len(self._items)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if isinstance(other, Record):
            return self._items == other._items
        return NotImplemented

    def __repr__(self):
        return f"Record({dict(self._items)!r})"

    def replace(self, **kwargs) -> "Record":
        """Copy of this record with the given fields replaced or added."""
        data = dict(self._items)
        data.update(kwargs)
        return Record(data)


def freeze(value):
    """Return a hashable canonical equivalent of ``value``.

    Scalars pass through; dicts become Records, lists/tuples become tuples,
    sets become frozensets.  Raises TypeError for floats and anything else
    that is not a model value.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Record):
        return value
    if isinstance(value, Mapping):
        return Record(value)
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(freeze(v) for v in value)
    raise TypeError(f"not a model value: {value!r}")


def dumps(value) -> str:
    """Canonical one-line serialization; equal values give equal strings."""
    out = []
    _write(freeze(value), out)
    return "".join(out)


def _write(value, out) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=True))
    elif isinstance(value, Record):
        out.append("{")
        for i, (k, v) in enumerate(value._items):
            if i:
                out.append(",")
            out.append(json.dumps(k, ensure_ascii=True))
            out.append(":")
            _write(v, out)
        out.append("}")
    elif isinstance(value, tuple):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(",")
            _write(v, out)
        out.append("]")
    elif isinstance(value, frozenset):
        members = sorted(dumps(v) for v in value)
        out.append('{"%s":[' % SET_TAG)
        out.append(",".join(members))
        out.append("]}")
    else:  # pragma: no cover - freeze() already rejects these
        raise TypeError(f"not a model value: {value!r}")


def loads(text: str):
    """Parse a canonical serialization back into a frozen value."""
    return _decode(json.loads(text))


def _decode(value):
    if isinstance(value, float):
        raise TypeError(f"model values may not contain floats: {value!r}")
    if isinstance(value, dict):
        if set(value.keys()) == {SET_TAG}:
            return frozenset(_decode(v) for v in value[SET_TAG])
        return Record({k: _decode(v) for k, v in value.items()})
    if isinstance(value, list):
        return tuple(_decode(v) for v in value)
    return value


def diff(a, b, path: str = "") -> list[tuple[str, object, object]]:
    """Field-level differences between two values as (path, a, b) triples."""
    a = freeze(a)
    b = freeze(b)
    if a == b:
        return []
    if isinstance(a, Record) and isinstance(b, Record):
        out = []
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else key
            if key not in a:
                out.append((sub, None, b[key]))
            elif key not in b:
                out.append((sub, a[key], None))
            else:
                out.extend(diff(a[key], b[key], sub))
        return out
    if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b):
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out.extend(diff(x, y, f"{path}[{i}]"))
        return out
    return [(path or "<value>", a, b)]
