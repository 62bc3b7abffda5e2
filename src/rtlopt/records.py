"""Dict codec for dataclass records, derived from their own fields.

``to_dict`` writes each field under its name, nested records as dicts and
tuples as lists. ``from_dict`` decodes each value by the field's annotation:
a record class, ``X | None``, ``tuple[X, ...]``, ``list[X]``, a bare
``tuple`` or a plain JSON type. Names and annotations are resolved once per
class. A class whose stored form is not its field list overrides both.

``Record`` is the complete policy, for what the program writes: every field
is written, ``None`` included, and decoding requires every key (``KeyError``)
and rejects unknown ones (``TypeError``), so a file of another schema fails
loudly instead of loading half-read. ``Settings`` is the partial policy, for
what users write: a ``None`` field is not written, an absent key takes the
field's default and an unknown key is a ``TypeError`` that names it. Under
both, ``null`` for a field that is not ``Optional`` is a ``TypeError``.
"""

from __future__ import annotations

import dataclasses
import functools
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
            if cls._partial and name not in d:
                continue
            value = d[name]
            if value is None and not optional:
                raise TypeError(f"{cls.__name__}.{name} must not be null")
            kwargs[name] = value if value is None or decode is None else decode(value)
        return cls(**kwargs)


class Settings(Record):
    """Partial policy: ``None`` fields omitted, absent keys defaulted."""

    _partial = True


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


def _codec(hint) -> tuple:
    """(encode, decode) for a value of type ``hint`` that is not None; each is
    None where the value is stored as it is."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (tuple, list):  # tuple[X, ...] or list[X]
        encode, decode = _codec(args[0])
        if decode is None:
            return list, origin
        return (lambda value: [encode(v) for v in value],
                lambda value: origin(map(decode, value)))
    if hint is tuple:
        return list, tuple
    if isinstance(hint, type) and issubclass(hint, Record):
        return hint.to_dict, hint.from_dict
    return None, None
