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

A Record is a key table plus a tuple of values.  Key tables are shared:
there is one per distinct sorted key tuple, interned for the life of the
process, so records of the same shape hold the same table and lookups are
one dict probe.  A Record's hash is computed when it is built and its
canonical text the first time it is dumped; both are kept, so a record
shared by many states is serialized once.  ``loads`` builds fresh values;
sharing the parts of equal text across a file's states is the file
reader's job (``suitefile.StateParser``).
"""

from __future__ import annotations

import json
from collections.abc import Mapping

# Reserved record key used to encode sets in the textual form.
SET_TAG = "$set"

# Sorted key tuple -> {key: position}; one table per record shape.
_SHAPES: dict[tuple[str, ...], dict[str, int]] = {}

_quote = json.encoder.encode_basestring_ascii


def _shape(keys: tuple) -> dict[str, int]:
    """The shared key table for a sorted tuple of keys."""
    shape = _SHAPES.get(keys)
    if shape is None:
        for key in keys:
            if not isinstance(key, str):
                raise TypeError(f"record keys must be strings, got {key!r}")
            if key == SET_TAG:
                raise ValueError(f"record key {SET_TAG!r} is reserved")
        shape = _SHAPES.setdefault(keys, {key: i for i, key in enumerate(keys)})
    return shape


class Record(Mapping):
    """Immutable, hashable string-keyed mapping of model values."""

    __slots__ = ("_shape", "_values", "_hash", "_text")

    def __init__(self, data=(), **kwargs):
        pairs = dict(data, **kwargs)
        keys = tuple(sorted(pairs))
        self._init(_shape(keys), tuple(map(freeze, map(pairs.__getitem__, keys))))

    def _init(self, shape: dict[str, int], values: tuple) -> None:
        object.__setattr__(self, "_shape", shape)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_hash", hash((id(shape), values)))
        object.__setattr__(self, "_text", None)

    @classmethod
    def _make(cls, shape: dict[str, int], values: tuple) -> "Record":
        """Record over an interned table and frozen values; no checks."""
        record = object.__new__(cls)
        record._init(shape, values)
        return record

    def __getitem__(self, key):
        return self._values[self._shape[key]]

    def get(self, key, default=None):
        index = self._shape.get(key)
        return default if index is None else self._values[index]

    def __contains__(self, key):
        return key in self._shape

    def __iter__(self):
        return iter(self._shape)

    def __len__(self):
        return len(self._values)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, Record):
            return (
                self._hash == other._hash
                and self._shape is other._shape
                and self._values == other._values
            )
        return NotImplemented

    def __repr__(self):
        return f"Record({dict(zip(self._shape, self._values))!r})"

    def __reduce__(self):
        # Copies and unpickled records must share the interned key table.
        return (Record, (dict(zip(self._shape, self._values)),))

    def replace(self, **kwargs) -> "Record":
        """Copy of this record with the given fields replaced or added."""
        data = dict(zip(self._shape, self._values))
        data.update(kwargs)
        return Record(data)


def freeze(value):
    """Return a hashable canonical equivalent of ``value``.

    Scalars pass through; dicts become Records, lists/tuples become tuples,
    sets become frozensets.  Raises TypeError for floats and anything else
    that is not a model value.
    """
    kind = type(value)
    if value is None or kind is Record or kind is str or kind is int or kind is bool:
        return value
    if kind is tuple:
        return tuple(map(freeze, value))
    if isinstance(value, (bool, int, str, Record)):
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
    if type(value) is Record:
        return value._text or _record_text(value)
    out = []
    _write(value, out)
    return "".join(out)


def _record_text(record: Record) -> str:
    """Render a record and cache its text on it."""
    out = ["{"]
    for i, (key, value) in enumerate(zip(record._shape, record._values)):
        if i:
            out.append(",")
        out.append(_quote(key))
        out.append(":")
        _write(value, out)
    out.append("}")
    text = "".join(out)
    object.__setattr__(record, "_text", text)
    return text


def _write(value, out) -> None:
    kind = type(value)
    if kind is Record:
        out.append(value._text or _record_text(value))
    elif kind is str:
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is int:
        out.append(str(value))
    elif kind is tuple:
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(",")
            _write(v, out)
        out.append("]")
    elif kind is frozenset:
        members = sorted(dumps(v) for v in value)
        out.append('{"%s":[' % SET_TAG)
        out.append(",".join(members))
        out.append("]}")
    else:  # plain containers, and subclasses of the model types
        frozen = freeze(value)
        if frozen is not value:
            _write(frozen, out)
        elif isinstance(value, str):
            out.append(_quote(value))
        elif isinstance(value, int):
            out.append(str(value))
        else:  # a Record subclass
            out.append(value._text or _record_text(value))


def _no_float(text: str):
    raise TypeError(f"model values may not contain floats: {text}")


def _tuples(value):
    """JSON arrays as tuples, recursively; records were built by the hook."""
    return tuple(_tuples(v) if type(v) is list else v for v in value)


def _from_pairs(pairs: list[tuple[str, object]]):
    """Build a Record (or a set) from one parsed JSON object's key/value pairs."""
    keys, values = zip(*pairs) if pairs else ((), ())
    shape = _SHAPES.get(keys)
    if shape is not None:  # canonical order, no duplicates
        if list in map(type, values):
            values = _tuples(values)
        return Record._make(shape, values)
    data = dict(pairs)  # a repeated key keeps its last value, as json.loads does
    if data.keys() == {SET_TAG}:
        members = data[SET_TAG]
        return frozenset(_tuples(members) if type(members) is list else members)
    return Record(data)


_DECODER = json.JSONDecoder(
    object_pairs_hook=_from_pairs, parse_float=_no_float, parse_constant=_no_float
)


def loads(text: str):
    """Parse a canonical serialization back into a frozen value."""
    value = _DECODER.decode(text)
    return _tuples(value) if type(value) is list else value


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
