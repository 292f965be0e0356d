"""Registry of runnable example systems, keyed by stable model name.

A system's bounds are a frozen dataclass, which gives every default and,
as its ``allow_<name>`` fields, the fault names ``--faults`` takes.  Its
``SystemSpec`` maps each CLI bound flag the model has to one field, and
``make_bounds`` rejects any other bound flag it is given, whatever the
value.  ``bounds_from_value`` reads the bounds back from the record a
file header holds (``Model.bounds_value``), one key per field.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping

from .. import canon
from ..actors import Emulator
from ..model import Model
from . import kv, vr


@dataclass(frozen=True)
class SystemSpec:
    """Everything the pipeline needs to explore and test one system."""

    name: str
    bounds: type
    # CLI bound flag (its argparse dest) -> field of ``bounds``.
    flags: Mapping[str, str]
    make_model: Callable[[object], Model]
    make_emulator: Callable[[object], Emulator]
    mutants: Mapping[str, Callable[[object], Emulator]] = field(default_factory=dict)

    @property
    def faults(self) -> list[str]:
        return sorted(f.name.removeprefix("allow_") for f in fields(self.bounds)
                      if f.name.startswith("allow_"))

    def make_bounds(self, args: argparse.Namespace) -> object:
        given = {flag: value for flag in BOUND_FLAGS if (value := getattr(args, flag)) is not None}
        for flag in sorted(given.keys() - self.flags.keys()):
            raise ValueError(f"{self.name} has no --{flag.replace('_', '-')} bound")
        faults = set(filter(None, args.faults.split(",")))  # empty items are ignored
        if faults and not self.faults:
            kinds = ", ".join(spec.name for spec in REGISTRY.values() if spec.faults)
            raise ValueError(f"{self.name} has no fault actions: --faults {args.faults} "
                             f"is for {kinds} only")
        unknown = sorted(faults.difference(self.faults))
        if unknown:
            raise ValueError(f"unknown fault {', '.join(map(repr, unknown))} "
                             f"(known: {', '.join(self.faults)})")
        values = {self.flags[flag]: value for flag, value in given.items()}
        return self.bounds(**values, **{f"allow_{name}": True for name in faults})

    def bounds_from_value(self, value: canon.Record) -> object:
        """The bounds a record holds, one key per field in field order: the first
        missing key raises KeyError naming it, and other keys are ignored."""
        return self.bounds(*[value[f.name] for f in fields(self.bounds)])


REGISTRY: dict[str, SystemSpec] = {
    "vr": SystemSpec(
        name="vr",
        bounds=vr.VrBounds,
        flags={"replicas": "replicas", "max_queries": "max_queries", "max_views": "max_views"},
        make_model=vr.VrModel,
        make_emulator=vr.make_emulator,
        mutants={
            name: (lambda bounds, _cls=cls: vr.make_emulator(bounds, _cls))
            for name, cls in vr.MUTANTS.items()
        },
    ),
    "kv": SystemSpec(
        name="kv",
        bounds=kv.KvBounds,
        flags={"replicas": "actors", "max_queries": "max_sets", "max_gets": "max_gets"},
        make_model=kv.KvModel,
        make_emulator=kv.make_emulator,
    ),
}

# Every CLI bound flag; ``make_bounds`` rejects those a system does not map.
BOUND_FLAGS = list(dict.fromkeys(flag for spec in REGISTRY.values() for flag in spec.flags))


def get_system(name: str) -> SystemSpec:
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown model {name!r} (known: {known})") from None
