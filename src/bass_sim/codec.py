"""The one JSON codec for the package's dataclasses.

A file format is written down once, as dataclasses. `save_json` writes an
instance as JSON text, one key per field; `decode` rebuilds it from the
field annotations and checks every value on the way, down to a derived
(`init=False`) field, which must equal what the class derives. An
annotation is a str, int, float or bool, an optional, a tuple, a mapping
with str keys or a dataclass: the codec checks a value's JSON type, and the
class its range or choice.
"""

from __future__ import annotations

import dataclasses
import json
import os
import stat
import types
import typing
from collections.abc import Iterator, Mapping
from contextlib import suppress
from functools import cache, partial
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

from .errors import ValidationError

_SCALARS = {str: "a string", int: "an integer", float: "a number", bool: "a boolean"}


@cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    return tuple(f.name for f in dataclasses.fields(cls)) if dataclasses.is_dataclass(cls) else None


class _Mismatch(Exception):
    """A value that does not fit its annotation. The path to it is collected
    only while this unwinds, innermost segment first."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.path: list[str] = []


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _expected(what: str, value) -> _Mismatch:
    return _Mismatch(f"expected {what}, got {type(value).__name__} {_short(value)}")


def _unwind(bad: _Mismatch, item, key) -> _Mismatch:
    """Add an array index or object key to the path, or the item's id if it has one."""
    if type(item) is dict and type(item.get("id")) is str:
        key = item["id"]
    bad.path.append(f"[{key!r}]")
    return bad


def _read_scalar(tp: type, data):
    # JSON has one number type: a float field takes an int, never a bool.
    if type(data) is tp or (tp is float and type(data) is int):
        try:
            return tp(data)
        except OverflowError:
            pass
    raise _expected(_SCALARS[tp], data)


def _read_array(readers: list, variadic: bool, data):
    if type(data) is not list or not (variadic or len(data) == len(readers)):
        raise _expected("an array" if variadic else f"an array of {len(readers)} items", data)
    items = []
    for index, item in enumerate(data):
        try:
            items.append(readers[0 if variadic else index](item))
        except _Mismatch as bad:
            raise _unwind(bad, item, index)
    return tuple(items)


def _read_object(read_value, data):
    if type(data) is not dict:
        raise _expected("an object", data)
    values = {}
    for key, item in data.items():
        try:
            values[key] = read_value(item)
        except _Mismatch as bad:
            raise _unwind(bad, item, key)
    return values


def _read_dataclass(cls: type, fields: dict, data):
    """Build `cls` from its init fields, then compare each derived field with
    `data`'s in declaration order, naming a mapping's first differing key,
    then the first differing field of a dataclass that both values are."""
    if type(data) is not dict:
        raise _expected("an object", data)
    if data.keys() != fields.keys():
        if data.keys() - fields.keys():
            raise _Mismatch(f"unknown field(s) {sorted(data.keys() - fields.keys())!r}")
        raise _Mismatch(f"missing field(s) {sorted(fields.keys() - data.keys())!r}")
    values, derived = {}, []
    for name, (plain, read_field, init) in fields.items():
        item = data[name]
        if type(item) is not plain:  # a scalar of its annotated type skips the call
            try:
                item = read_field(item)
            except _Mismatch as bad:
                bad.path.append(f".{name}")
                raise
        if init:
            values[name] = item
        else:
            derived.append((name, item))
    try:
        built = cls(**values)
    except ValidationError as exc:
        raise _Mismatch(str(exc)) from None
    for name, item in derived:
        own = getattr(built, name)
        if own != item:
            path = f".{name}"
            if isinstance(own, Mapping):
                key = min(k for k in own.keys() | item.keys() if own.get(k) != item.get(k))
                own, item, path = own.get(key), item.get(key), f"{path}[{key!r}]"
            names = _field_names(type(own)) if type(own) is type(item) else None
            if names:
                name = next(n for n in names if getattr(own, n) != getattr(item, n))
                own, item, path = getattr(own, name), getattr(item, name), f"{path}.{name}"
            bad = _Mismatch(f"expected {_short(own)} from the other fields, got {_short(item)}")
            bad.path.append(path)
            raise bad
    return built


@cache
def _reader(tp):
    """A function that checks JSON data against annotation `tp` and builds the value."""
    if tp in _SCALARS:
        return partial(_read_scalar, tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and args[1] is type(None):
        read_value = _reader(args[0])
        return lambda data: None if data is None else read_value(data)
    if origin is tuple:
        variadic = args[-1] is Ellipsis
        return partial(_read_array, [_reader(a) for a in args[: 1 if variadic else None]], variadic)
    if origin is Mapping and args[0] is str:
        return partial(_read_object, _reader(args[1]))
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        fields = {f.name: (hints[f.name] if hints[f.name] in _SCALARS else None,
                           _reader(hints[f.name]), f.init) for f in dataclasses.fields(tp)}
        return partial(_read_dataclass, tp, fields)
    raise TypeError(f"no JSON codec for annotation {tp!r}")


def decode(cls: type, data, where: str, error: type[ValidationError]):
    """Build a `cls` from JSON data, checking each value against its annotation.

    Each object must have exactly the class's fields. A failure raises
    `error` with the path to the value, naming entity ids where items have
    them: `scenario.clients['c0000'].links: expected an array, got str 'ab'`.
    """
    try:
        return _reader(cls)(data)
    except _Mismatch as bad:
        raise error(f"{where}{''.join(reversed(bad.path))}: {bad}") from None


def load_json(cls: type, path, where: str, error: type[ValidationError]):
    """Read a UTF-8 JSON file and decode it. Undecodable content raises
    `error`: ValueError covers bad JSON, bad UTF-8 and an integer literal
    past Python's digit limit."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: not readable as UTF-8 JSON ({exc})") from exc
    return decode(cls, data, where, error)


def remove_output(path) -> None:
    """Unlink `path` if it is a regular file (by `os.lstat`: a symlink is not
    followed); leave anything else, or a file that cannot be unlinked."""
    with suppress(OSError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)


def open_output(path, newline: str | None = None):
    """Open `path` to write UTF-8 text. An existing regular file is removed
    (`remove_output`) and created anew, as truncating a written file in
    place costs about 50 ms on ext4 mounted with `discard`; its permissions
    and hard links do not carry over. Any other path is opened with "w"."""
    remove_output(path)
    return open(path, "w", encoding="utf-8", newline=newline)


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value) -> str:
    text = float.__repr__(value)
    return _FLOAT_WORDS.get(text, text)


# The JSON text of each scalar type, as json's encoder writes it.
_TEXT = {str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
         bool: {True: "true", False: "false"}.__getitem__, type(None): {None: "null"}.__getitem__}


@cache
def _indents(level: int) -> tuple[str, str, str]:
    """The text before the first item of a container at nesting `level`,
    before each later item, and before its closing bracket."""
    inner = "\n" + "  " * (level + 1)
    return inner, "," + inner, "\n" + "  " * level


def _key_heads(keys, level: int) -> list[str]:
    """The text before each value of an object at nesting `level`, its key included."""
    first, later, _ = _indents(level)
    return [(later if i else first) + encode_basestring_ascii(key) + ": "
            for i, key in enumerate(keys)]


@cache
def _field_layout(cls: type, level: int):
    """A dataclass's field names in key order, the text before each value and
    before its closing brace, at nesting `level`; None for other types."""
    if _field_names(cls) is None:
        return None
    names = tuple(sorted(_field_names(cls)))
    return names, tuple(_key_heads(names, level)), _indents(level)[2]


def _emit(value, write, head: str, level: int):
    """Write `head`, then `value` as indented, sorted-key JSON at nesting
    `level`: a dataclass or a mapping (str keys) as an object, a tuple,
    list or iterator as an array (an iterator's items are taken as they are
    written), a str, int, float, bool or None as itself; anything else is
    a TypeError. Each write is one container's text up to its next item
    that is not a scalar, or about 4 kB."""
    scalar = _TEXT.get(type(value))
    if scalar is not None:
        return write(head + scalar(value))
    layout = _field_layout(type(value), level)
    if layout is not None:
        names, heads, close = layout
        items, brackets = map(getattr, repeat(value), names), "{}"
    elif isinstance(value, (tuple, list, Iterator)):
        first, later, close = _indents(level)
        heads, items, brackets = chain((first,), repeat(later)), value, "[]"
    elif isinstance(value, Mapping):
        keys, close = sorted(value), _indents(level)[2]
        heads, items, brackets = _key_heads(keys, level), map(value.__getitem__, keys), "{}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    text = head + brackets[0]
    item_head = None
    for item_head, item in zip(heads, items):
        scalar = _TEXT.get(type(item))
        if scalar is None:
            _emit(item, write, text + item_head, level + 1)
            text = ""
        else:
            text += item_head + scalar(item)
            if len(text) > 4096:  # a long run of scalars goes out in pieces
                write(text)
                text = ""
    write(text + (brackets[1] if item_head is None else close + brackets[1]))


def save_json(value, path) -> None:
    """Write a dataclass as the bytes of `json.dump(data, fh, indent=2,
    sort_keys=True)` plus "\\n", `data` being its tree of plain dicts and
    lists, in one pass through the file's buffer: neither that tree nor the
    file's text is ever built."""
    with open_output(path) as fh:
        _emit(value, fh.write, "", 0)
        fh.write("\n")
