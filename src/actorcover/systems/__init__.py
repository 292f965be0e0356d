"""Registry of runnable example systems, keyed by stable model name.

A system's bounds are a frozen dataclass.  ``make_bounds`` builds them
from the CLI's parsed bounds flags and raises ValueError for a bad one,
such as a ``--faults`` name the system has no action for.
``bounds_from_value`` reads them back from the record a file header
holds (``Model.bounds_value``), one key per dataclass field.
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
    make_bounds: Callable[[argparse.Namespace], object]
    bounds_from_value: Callable[[canon.Record], object]
    make_model: Callable[[object], Model]
    make_emulator: Callable[[object], Emulator]
    mutants: Mapping[str, Callable[[object], Emulator]] = field(default_factory=dict)


_KV_FAULTS = ("corrupt", "crash", "drop")


def _faults(args: argparse.Namespace) -> set[str]:
    """The names in ``--faults``; empty items are ignored."""
    return set(filter(None, args.faults.split(",")))


def _kv_bounds(args: argparse.Namespace) -> kv.KvBounds:
    faults = _faults(args)
    unknown = sorted(faults.difference(_KV_FAULTS))
    if unknown:
        raise ValueError(f"unknown fault {', '.join(map(repr, unknown))} "
                         f"(known: {', '.join(_KV_FAULTS)})")
    return kv.KvBounds(
        actors=args.replicas,
        max_sets=args.max_queries,
        max_gets=args.max_gets,
        allow_crash="crash" in faults,
        allow_drop="drop" in faults,
        allow_corrupt="corrupt" in faults,
    )


def _vr_bounds(args: argparse.Namespace) -> vr.VrBounds:
    if _faults(args):
        raise ValueError(f"vr has no fault actions: --faults {args.faults} is for kv only")
    return vr.VrBounds(
        replicas=args.replicas, max_queries=args.max_queries, max_views=args.max_views
    )


def _reader(bounds_type: type) -> Callable[[canon.Record], object]:
    """Reads ``bounds_type`` from a record, one key per field in field order: the
    first missing key raises KeyError naming it, and other keys are ignored."""
    names = [f.name for f in fields(bounds_type)]
    return lambda value: bounds_type(*[value[name] for name in names])


REGISTRY: dict[str, SystemSpec] = {
    "kv": SystemSpec(
        name="kv",
        make_bounds=_kv_bounds,
        bounds_from_value=_reader(kv.KvBounds),
        make_model=kv.KvModel,
        make_emulator=kv.make_emulator,
    ),
    "vr": SystemSpec(
        name="vr",
        make_bounds=_vr_bounds,
        bounds_from_value=_reader(vr.VrBounds),
        make_model=vr.VrModel,
        make_emulator=vr.make_emulator,
        mutants={
            name: (lambda bounds, _cls=cls: vr.make_emulator(bounds, _cls))
            for name, cls in vr.MUTANTS.items()
        },
    ),
}


def get_system(name: str) -> SystemSpec:
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown model {name!r} (known: {known})") from None
