"""One checker for every JSON boundary: is this a valid value for this field?

A *table* is a dataclass: each field's annotation says which JSON values it
accepts, and ``dataclasses.field(metadata=...)`` may add a bound
(:data:`POSITIVE`, ...) or mark it :data:`REQUIRED`.  :func:`check` runs
where JSON enters and raises the caller's
:class:`~repro.errors.ConfigurationError` subclass with a dotted ``field``
such as ``overrides.ace.num_fsms``; a config ``__post_init__`` runs only
:func:`check_bounds` and its cross-field rules.  Fields are checked in
declaration order, so the first error does not depend on key order.

``bool`` is not an ``int``; ``float`` accepts ints but not NaN or ±inf; a
JSON list is accepted for a ``Tuple``; a nested dataclass is an object
holding any subset of its fields.  Checking never rewrites a value.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from collections.abc import Mapping
from typing import Callable, NamedTuple, NoReturn, Optional, Tuple, Type

from repro.errors import ConfigurationError

REQUIRED = {"required": True}
#: Bounds: ``(text, holds)``; NaN holds none of them.
POSITIVE = {"bound": ("positive", lambda value: value > 0)}
NON_NEGATIVE = {"bound": ("non-negative", lambda value: value >= 0)}
FRACTION = {"bound": ("in (0, 1]", lambda value: 0 < value <= 1)}
UNIT_INTERVAL = {"bound": ("in [0, 1]", lambda value: 0 <= value <= 1)}
#: A model name, checked against its table where it enters (``SimJob``).
NAME = {"bound": ("a non-empty name", lambda value: isinstance(value, str) and value != "")}


class _Type(NamedTuple):
    accepts: Callable[[object], bool]
    noun: str
    nouns: str
    item: Optional["_Type"] = None  # the X of a Tuple[X, ...]


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_object(value: object) -> bool:
    return type(value) is dict or isinstance(value, Mapping)


_SCALARS = {
    bool: _Type(lambda value: isinstance(value, bool), "boolean", "booleans"),
    int: _Type(_is_int, "integer", "integers"),
    float: _Type(
        lambda value: _is_int(value) or isinstance(value, float) and math.isfinite(value),
        "number",
        "numbers",
    ),
    str: _Type(lambda value: isinstance(value, str), "string", "strings"),
    object: _Type(lambda value: True, "value", "values"),
}


def _is_list(value: object, items: Tuple[_Type, ...]) -> bool:
    return (
        isinstance(value, (list, tuple))
        and len(value) == len(items)
        and all(item.accepts(entry) for item, entry in zip(items, value))
    )


@functools.lru_cache(maxsize=None)
def _resolve(annotation: object) -> _Type:
    """The JSON type an annotation accepts, with its name for messages."""
    if annotation in _SCALARS:
        return _SCALARS[annotation]
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is typing.Union:  # Optional[X]
        (inner,) = [_resolve(arg) for arg in args if arg is not type(None)]
        return _Type(
            lambda value: value is None or inner.accepts(value),
            f"{inner.noun} or null",
            f"{inner.nouns} or nulls",
        )
    if origin is tuple and args[-1] is Ellipsis:
        item = _resolve(args[0])
        return _Type(
            lambda value: isinstance(value, (list, tuple)) and all(map(item.accepts, value)),
            f"list of {item.nouns}",
            f"lists of {item.nouns}",
            item,
        )
    if origin is tuple:
        items = tuple(_resolve(arg) for arg in args)
        noun = f"[{', '.join(item.noun for item in items)}] " + ("pair", "triple")[len(items) - 2]
        return _Type(lambda value: _is_list(value, items), noun, noun + "s")
    if origin is Mapping or dataclasses.is_dataclass(annotation):
        return _Type(_is_object, "object", "objects")
    return _Type(lambda value: isinstance(value, annotation), annotation.__name__, "values")


@functools.lru_cache(maxsize=None)
def _table(cls: type) -> Tuple[tuple, frozenset]:
    """``(name, type, bound, required, section)`` per field, resolved once per class."""
    hints = typing.get_type_hints(cls)
    entries = tuple(
        (
            spec.name,
            _resolve(hints[spec.name]),
            spec.metadata.get("bound"),
            spec.metadata.get("required", False),
            hints[spec.name] if dataclasses.is_dataclass(hints[spec.name]) else None,
        )
        for spec in dataclasses.fields(cls)
    )
    return entries, frozenset(spec.name for spec in dataclasses.fields(cls))


_ABSENT = object()


def _show(value: object) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _fail(
    error: Type[ConfigurationError], context: str, path: tuple, text: str, field=None
) -> NoReturn:
    """Raise ``error`` saying ``text`` about the field at ``path``."""
    dotted = ".".join(path)
    if path:
        text = f"field {dotted!r} {text}" if context else f"{dotted} {text}"
    raise error(f"{context}: {text}" if context else text, field=field or dotted or None)


def check_object(data: object, context: str = "", error=ConfigurationError) -> Mapping:
    """Return ``data`` if it is a JSON object, else raise ``error``."""
    if not _is_object(data):
        _fail(error, context, (), f"expected an object, got {_show(data)}")
    return data


def check(table: type, data: object, context: str = "", error=ConfigurationError, path=()) -> None:
    """Raise ``error`` unless ``data`` is a valid JSON object for ``table``.

    ``context`` (e.g. ``"scenario 'x' suite #0 (grid)"``) starts the message;
    ``path`` is where ``data`` sits in the object ``context`` names.
    """
    entries, names = _table(table)
    unknown = [key for key in check_object(data, context, error) if key not in names]
    if unknown:
        unknown.sort(key=str)
        text = f"unknown field(s) {unknown}; allowed fields: {sorted(names)}"
        if path:  # a nested section overrides part of its dataclass
            text = f"invalid override for section {path[-1]!r}: {text}"
        _fail(error, context, (), text, ".".join(path + (str(unknown[0]),)))
    for name, kind, bound, required, section in entries:
        value = data.get(name, _ABSENT)
        if value is _ABSENT:
            if required:
                dotted = ".".join(path + (name,))
                _fail(error, context, (), f"required field {dotted!r} is missing", dotted)
        elif not kind.accepts(value):
            here = path + (name,)
            while kind.item is not None and isinstance(value, (list, tuple)):
                # Name the first bad entry, e.g. ``edges.3``.
                index = next(i for i, entry in enumerate(value) if not kind.item.accepts(entry))
                here, kind, value = here + (str(index),), kind.item, value[index]
            article = "an" if kind.noun[0] in "aeiou" else "a"
            _fail(error, context, here, f"must be {article} {kind.noun}, got {_show(value)}")
        elif section is not None:
            check(section, value, context, error, path + (name,))
        elif bound is not None and value is not None and not bound[1](value):
            _fail(error, context, path + (name,), f"must be {bound[0]}, got {_show(value)}")


@functools.lru_cache(maxsize=None)
def _bounds(cls: type) -> tuple:
    return tuple(
        (spec.name, *spec.metadata["bound"])
        for spec in dataclasses.fields(cls)
        if "bound" in spec.metadata
    )


def check_bounds(instance: object) -> None:
    """Raise :class:`ConfigurationError` if a bounded field of ``instance`` is out of bounds."""
    for name, text, holds in _bounds(type(instance)):
        value = getattr(instance, name)
        if not holds(value):
            _fail(ConfigurationError, "", (name,), f"must be {text}, got {_show(value)}")
