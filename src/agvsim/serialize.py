"""Canonical JSON text and digests for deterministic exports.

Every exported byte must be a pure function of (config, seed), so all
serialization funnels through one writer, `_text`: sorted keys, no
timestamps, no id()-dependent content. It writes two layouts: indented for
the exports (`canonical_json`) and compact for `digest_of`, the one digest
of a value, and `ListDigest`, its digest of a list that grows. Each call
appends the text's fragments to one list and joins it once, rather than
copying each level's text into the level above.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections.abc import Callable, Iterable
from enum import Enum
from json.encoder import encode_basestring_ascii as _escape
from operator import attrgetter
from typing import Any

# (dataclass, nl) -> (a getter of its field values as a tuple, sorted by
# field name; each field's opening text: bracket or separator, inner indent,
# escaped key and ": "; the closing text; the `nl` of its fields; whether
# `canonical_json` memoises its objects); filled once per pair by `_layout`
_LAYOUTS: dict[tuple[type, str | None], tuple] = {}

# nl -> what `_indent` returns for it, filled once per indent
_INDENTS: dict[str | None, tuple[str | None, str, str, str]] = {}

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


def _indent(nl: str | None) -> tuple[str | None, str, str, str]:
    """(the `nl` one level in, the text after an opening bracket, between items, before a closing bracket)."""
    if nl not in _INDENTS:
        inner = None if nl is None else nl + "  "
        _INDENTS[nl] = (None, "", ", ", "") if inner is None else (inner, inner, "," + inner, nl)
    return _INDENTS[nl]


def _layout(cls: type, nl: str | None) -> None:
    # the fields that equality compares: a derived field is not written
    names = sorted(f.name for f in dataclasses.fields(cls) if f.compare)
    # `attrgetter` gives a tuple only for two names or more
    get = attrgetter(*names) if len(names) > 1 else lambda obj: tuple(getattr(obj, n) for n in names)
    inner, first, sep, last = _indent(nl)
    openings = tuple((sep if i else "{" + first) + _escape(name) + ": " for i, name in enumerate(names))
    # by id, within one call: nothing changes while it writes, and the memo holds each object it keys
    memoised = nl is not None
    _LAYOUTS[cls, nl] = (get, openings, last + "}" if names else "{}", inner, memoised)


def canonical_json(obj: object) -> str:
    """The indented JSON text of `obj`: two spaces per level, keys sorted.

    A dataclass that occurs more than once is written once per call;
    the memo of this call keeps where its text lies in the output.
    """
    out: list[str] = []
    _text(obj, "\n", {}, out)
    return "".join(out)


def _text(obj: object, nl: str | None, memo: dict | None, out: list[str]) -> None:
    """Append the JSON text of `obj` to `out`; the one place the type rules live.

    Enum -> its value, dataclass -> its compared fields by name, dict keys through
    `str()`, sets sorted by `repr`, anything else its `repr` as a string.
    Indented, the closing bracket follows `nl` (a newline plus the indent),
    and `memo` maps the id of each dataclass written so far to
    (its `nl`, the start and end of its text in `out`, the object); with
    `nl=None`, compact with the `json` module's default separators: items
    ", " apart, no newlines.

    The dataclass and list loops write the leaves (`_LEAVES`) themselves and
    every other value through this function, looked up by its module name.
    """
    cls = type(obj)
    leaf = _LEAVES.get(cls)
    if leaf is not None:
        out.append(leaf(obj))
        return
    layout = _LAYOUTS.get((cls, nl))
    if layout is not None:
        get, openings, closing, inner, memoised = layout
        if memoised:
            written = memo.get(id(obj))  # type: ignore[union-attr]
            if written is not None:
                old, start, end, _ = written
                # JSON escapes the newlines inside strings, so every newline
                # of the text starts a line of the layout, after the old indent
                out.extend(out[start:end] if old == nl else ["".join(out[start:end]).replace(old, nl)])
                return
            start = len(out)
        for opening, value in zip(openings, get(obj)):
            out.append(opening)
            leaf = _LEAVES.get(type(value))
            if leaf is not None:
                out.append(leaf(value))
            else:
                _text(value, inner, memo, out)
        out.append(closing)
        if memoised:
            memo[id(obj)] = (nl, start, len(out), obj)  # type: ignore[index]
        return
    if cls is tuple or cls is list:
        if not obj:
            out.append("[]")
            return
        inner, first, sep, last = _INDENTS.get(nl) or _indent(nl)
        _, pair_first, pair_sep, pair_last = _INDENTS.get(inner) or _indent(inner)
        opening = "[" + first
        for v in obj:  # type: ignore[attr-defined]
            out.append(opening)
            opening = sep
            leaf = _LEAVES.get(type(v))
            if leaf is not None:
                out.append(leaf(v))
            elif (
                type(v) is tuple and len(v) == 2
                and (head := _LEAVES.get(type(v[0]))) and (tail := _LEAVES.get(type(v[1])))
            ):
                # a pair of leaves, such as a provenance hop (Role, int), is one fragment
                out.append(f"[{pair_first}{head(v[0])}{pair_sep}{tail(v[1])}{pair_last}]")
            else:
                _text(v, inner, memo, out)
        out.append(last + "]")
    else:
        _text_other(obj, nl, memo, out)


def _text_other(obj: object, nl: str | None, memo: dict | None, out: list[str]) -> None:
    """`_text` for every type without a fast path (`None` and bool have one)."""
    if isinstance(obj, Enum):
        cls = type(obj)
        if all(type(member.value) is str for member in cls):
            _LEAVES[cls] = {member: _escape(member.value) for member in cls}.__getitem__
        _text(obj.value, nl, memo, out)
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _layout(type(obj), nl)  # from now on `_text` finds the class at this indent
        _text(obj, nl, memo, out)
    elif isinstance(obj, dict):
        plain = {str(k): v for k, v in obj.items()}
        if not plain:
            out.append("{}")
            return
        inner, first, sep, last = _indent(nl)
        opening = "{" + first
        for key in sorted(plain):
            out.append(opening + _escape(key) + ": ")
            opening = sep
            _text(plain[key], inner, memo, out)
        out.append(last + "}")
    elif isinstance(obj, (list, tuple)):
        _text(list(obj), nl, memo, out)
    elif isinstance(obj, (set, frozenset)):
        _text(sorted(obj, key=repr), nl, memo, out)
    else:
        out.append(_escape(repr(obj)))


def digest_of(obj: object) -> str:
    """Short stable content hash, used for before/after oracle trails.

    The first 16 hex digits of the sha256 of the compact JSON text.
    """
    out: list[str] = []
    _text(obj, None, None, out)
    return hashlib.sha256("".join(out).encode()).hexdigest()[:16]


class ListDigest:
    """`digest_of` of a list whose settled prefix only grows, each settled item serialised once.

    `add` appends an item to the prefix; `digest(tail)` returns
    `digest_of(prefix + tail)` and serialises only `tail`; `copy()` returns
    a digest of the same prefix that grows apart from this one.
    """

    def __init__(self) -> None:
        self._hasher = hashlib.sha256(b"[")
        self._count = 0

    def copy(self) -> ListDigest:
        twin = ListDigest.__new__(ListDigest)
        twin._hasher, twin._count = self._hasher.copy(), self._count
        return twin

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
        out = [", "] if i else []
        _text(item, None, None, out)
        return "".join(out).encode()
