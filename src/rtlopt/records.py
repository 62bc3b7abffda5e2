"""Dict codec for dataclass records, derived from their own fields, and the
reader of the JSON files that come from outside the program.

``to_dict`` writes each field under its name, nested records as dicts and
tuples as lists. ``from_dict`` decodes each value by the field's annotation
(a record class, ``X | None``, ``tuple[X, ...]``, ``list[X]`` or a plain
JSON type) and is the one type check: an ``int`` is an integer, never a
boolean; a ``float`` is a finite integer or number, kept as given; a ``str``
can be written as UTF-8; every other type takes only its own JSON type. Each
error is a ``TypeError`` or ``ValueError`` naming its field path, e.g.
``RunConfig.backend: BackendConfig.clock_period: …``. Names and annotations
are resolved once per class. A class whose stored form is not its field
list overrides both.

``Record`` is the complete policy, for what the program writes: every field
is written, ``None`` included, and decoding requires every key and rejects
unknown ones, so a file of another schema fails loudly instead of loading
half-read. ``Settings`` is the partial policy, for what users write: a
``None`` field is not written and an absent key takes the field's default.
Under both, an unknown key, and ``null`` for a field that is not
``Optional``, are errors that name the field.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import types
import typing


class Record:
    """Complete policy: every field written, every key required."""

    _partial = False

    def to_dict(self) -> dict:
        d = {}
        for name, encode, _, _ in _fields(type(self)):
            value = getattr(self, name)
            if value is not None:
                d[name] = value if encode is None else encode(value)
            elif not self._partial:
                d[name] = None
        return d

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise TypeError(f"{cls.__name__} must be an object, got {type(d).__name__}")
        fields = _fields(cls)
        unknown = d.keys() - {name for name, _, _, _ in fields}
        if unknown:
            raise TypeError(f"{cls.__name__}: unknown keys {sorted(unknown)}")
        kwargs = {}
        for name, _, decode, optional in fields:
            if name not in d:
                if cls._partial:
                    continue
                raise TypeError(f"{cls.__name__}: missing key {name!r}")
            value = d[name]
            if value is None and not optional:
                raise TypeError(f"{cls.__name__}.{name} must not be null")
            try:
                kwargs[name] = None if value is None else decode(value)
            except (TypeError, ValueError) as exc:
                raise type(exc)(f"{cls.__name__}.{name}: {exc}") from None
        return cls(**kwargs)


class Settings(Record):
    """Partial policy: ``None`` fields omitted, absent keys defaulted."""

    _partial = True


class ConfigError(Exception):
    """An input from outside the program cannot be read or is not valid."""


def read_record(path: str, cls, noun: str):
    """Decode the JSON file at ``path`` as a ``cls``. A file that cannot be
    read, is not JSON or does not decode raises ConfigError naming ``noun``."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    # ValueError: not JSON, or not UTF-8; RecursionError: nested too deeply.
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read {noun} {path}: {exc}") from exc
    try:
        return cls.from_dict(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {noun}: {exc}") from exc


@functools.cache
def _fields(cls) -> tuple:
    """(name, encoder, decoder, optional) per field of a dataclass, in order."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        optional = typing.get_origin(hint) in (typing.Union, types.UnionType)
        if optional:
            (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
        out.append((f.name, *_codec(hint), optional))
    return tuple(out)


_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "an integer", float: "a number"}


def _codec(hint) -> tuple:
    """(encode, decode) for a value of type ``hint`` that is not None; the
    encoder is None where the value is stored as it is."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (tuple, list):  # tuple[X, ...] or list[X]
        encode, decode = _codec(args[0])
        array = _plain(list)
        return ((list if encode is None else lambda value: [encode(v) for v in value]),
                lambda value: origin(map(decode, array(value))))
    if isinstance(hint, type) and issubclass(hint, Record):
        return hint.to_dict, hint.from_dict
    if hint in _JSON_NAMES:
        return None, _plain(hint)
    raise TypeError(f"no codec for {hint!r}")


def _plain(hint):
    """Decoder of a plain JSON type: the value itself, if its type is exactly
    ``hint`` (an integer is a float too), a float is finite and a string can
    be written as UTF-8."""

    def decode(value):
        if type(value) is not hint and not (hint is float and type(value) is int):
            raise TypeError(f"expected {_JSON_NAMES[hint]}, "
                            f"got {_JSON_NAMES.get(type(value), type(value).__name__)}")
        if hint is float and not abs(value) <= sys.float_info.max:  # NaN fails too
            raise ValueError("must be a finite float")
        if hint is str and value.encode(errors="replace").decode() != value:
            raise ValueError("holds a lone surrogate, which UTF-8 cannot encode")
        return value

    return decode
