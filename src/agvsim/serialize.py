"""Canonical JSON text and digests for deterministic exports.

Every exported byte must be a pure function of (config, seed), so all
serialization funnels through one writer, `_text`: sorted keys, no
timestamps, no id()-dependent content. It writes two layouts: indented for
the exports (`canonical_json`) and compact for the digests (`digest_of`,
`ListDigest`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Callable, Iterable
from enum import Enum
from json.encoder import encode_basestring_ascii as _escape
from operator import attrgetter
from typing import Any

# dataclass -> (a getter of its field values as a tuple, sorted by field name,
# and each field's escaped JSON key plus ": " in the same order); filled once
# per class by `_fields`
_FIELDS: dict[type, tuple[Callable[[object], tuple], tuple[str, ...]]] = {}

# how `json` writes the floats whose repr is not JSON
_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(obj: float) -> str:
    text = float.__repr__(obj)
    return _FLOAT_SPECIALS.get(text, text)


# exact type -> the writer of its JSON text, for the values written without
# recursion; a str-valued Enum class joins the first time `_text_other`
# meets it, as the lookup of a member -> escaped value dict
_LEAVES: dict[type, Callable[[Any], str]] = {
    str: _escape,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _fields(cls: type) -> tuple[Callable[[object], tuple], tuple[str, ...]]:
    table = _FIELDS.get(cls)
    if table is None:
        names = sorted(f.name for f in dataclasses.fields(cls))
        # `attrgetter` gives a tuple only for two names or more
        get = attrgetter(*names) if len(names) > 1 else lambda obj: tuple(getattr(obj, n) for n in names)
        table = _FIELDS[cls] = (get, tuple(_escape(name) + ": " for name in names))
    return table


def canonical_json(obj: object) -> str:
    """The indented JSON text of `obj`: two spaces per level, keys sorted.

    A frozen dataclass that occurs more than once is written once per call;
    the memo of this call keeps each text with the object it was written for.
    """
    return _text(obj, "\n", {})


def _text(obj: object, nl: str | None, memo: dict | None = None) -> str:
    """JSON text of `obj`, the one place the type rules live.

    Enum -> its value, dataclass -> its fields by name, dict keys through
    `str()`, sets sorted by `repr`, anything else its `repr` as a string.
    Indented, the closing bracket follows `nl` (a newline plus the indent),
    and `memo` maps the id of each frozen dataclass written so far to
    (its `nl`, its text, the object); with `nl=None`, compact with the `json`
    module's default separators: items ", " apart, no newlines.

    The dataclass and list loops write the leaves (`_LEAVES`) themselves and
    every other value through this function, looked up by its module name.
    """
    cls = type(obj)
    leaf = _LEAVES.get(cls)
    if leaf is not None:
        return leaf(obj)
    table = _FIELDS.get(cls)
    if table is not None:
        get, keys = table
        if nl is None:
            return "{" + ", ".join([
                key + (leaf(value) if (leaf := _LEAVES.get(type(value))) else _text(value, None))
                for key, value in zip(keys, get(obj))
            ]) + "}"
        written = memo.get(id(obj))  # type: ignore[union-attr]
        if written is not None:
            # JSON escapes the newlines inside strings, so every newline of
            # the text starts a line of the layout, after the old indent
            return written[1] if written[0] == nl else written[1].replace(written[0], nl)
        if not keys:
            return "{}"
        inner = nl + "  "
        text = "{" + inner + ("," + inner).join([
            key + (leaf(value) if (leaf := _LEAVES.get(type(value))) else _text(value, inner, memo))
            for key, value in zip(keys, get(obj))
        ]) + nl + "}"
        if cls.__dataclass_params__.frozen:  # type: ignore[attr-defined]
            memo[id(obj)] = (nl, text, obj)  # type: ignore[index]
        return text
    if cls is tuple or cls is list:
        return _items(obj, nl, memo)
    return _text_other(obj, nl, memo)


def _text_other(obj: object, nl: str | None, memo: dict | None) -> str:
    """`_text` for every type without a fast path (`None` and bool have one)."""
    if isinstance(obj, Enum):
        cls = type(obj)
        if all(type(member.value) is str for member in cls):
            _LEAVES[cls] = {member: _escape(member.value) for member in cls}.__getitem__
        return _text(obj.value, nl, memo)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    if isinstance(obj, str):
        return _escape(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _fields(type(obj))  # from now on `_text` finds the class in the table
        return _text(obj, nl, memo)
    if isinstance(obj, dict):
        plain = {str(k): v for k, v in obj.items()}
        if nl is None:
            return "{" + ", ".join([_escape(k) + ": " + _text(plain[k], None) for k in sorted(plain)]) + "}"
        if not plain:
            return "{}"
        inner = nl + "  "
        return "{" + inner + ("," + inner).join(
            [_escape(k) + ": " + _text(plain[k], inner, memo) for k in sorted(plain)]
        ) + nl + "}"
    if isinstance(obj, (list, tuple)):
        return _items(obj, nl, memo)
    if isinstance(obj, (set, frozenset)):
        return _items(sorted(obj, key=repr), nl, memo)
    return _escape(repr(obj))


def _items(items: list | tuple, nl: str | None, memo: dict | None) -> str:
    if nl is None:
        return "[" + ", ".join([
            leaf(v) if (leaf := _LEAVES.get(type(v))) else _text(v, None) for v in items
        ]) + "]"
    if not items:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join([
        leaf(v) if (leaf := _LEAVES.get(type(v))) else _text(v, inner, memo) for v in items
    ]) + nl + "]"


def _plain_digest(plain: object) -> str:
    """`digest_of` a value that is already JSON types, through the C encoder.

    For the hand-made plain projections of a state, which this encodes
    faster than `_text` walks them.
    """
    return hashlib.sha256(json.dumps(plain, sort_keys=True).encode()).hexdigest()[:16]


def digest_of(obj: object) -> str:
    """Short stable content hash, used for before/after oracle trails.

    The first 16 hex digits of the sha256 of the compact JSON text.
    """
    return hashlib.sha256(_text(obj, None).encode()).hexdigest()[:16]


class ListDigest:
    """`digest_of` of a list whose settled prefix only grows, each settled item serialised once.

    `add` appends an item to the prefix; `digest(tail)` returns
    `digest_of(prefix + tail)` and serialises only `tail`.
    """

    def __init__(self) -> None:
        self._hasher = hashlib.sha256(b"[")
        self._count = 0

    def add(self, item: object) -> None:
        self._hasher.update(self._item_bytes(self._count, item))
        self._count += 1

    def digest(self, tail: Iterable[object]) -> str:
        hasher = self._hasher.copy()
        for i, item in enumerate(tail, self._count):
            hasher.update(self._item_bytes(i, item))
        hasher.update(b"]")
        return hasher.hexdigest()[:16]

    @staticmethod
    def _item_bytes(i: int, item: object) -> bytes:
        # the compact layout joins list items with ", "
        text = _text(item, None)
        return (", " + text if i else text).encode()
