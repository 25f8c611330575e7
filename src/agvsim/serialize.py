"""Canonical JSON-able views and digests for deterministic exports.

Every exported byte must be a pure function of (config, seed), so all
serialization funnels through these helpers: sorted keys, no timestamps,
no id()-dependent content.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Iterable
from enum import Enum


def to_jsonable(obj: object) -> object:
    """Recursively convert dataclasses/enums/tuples into plain JSON types."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(v) for v in items]
    return repr(obj)


def canonical_json(obj: object, indent: int | None = None) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=indent)


def _plain_digest(plain: object) -> str:
    """The one digest format: sha256 of sorted-key JSON, first 16 hex digits.

    `plain` must already be JSON types; callers with a fixed projection of
    their own state pass it here directly instead of through `to_jsonable`.
    """
    return hashlib.sha256(json.dumps(plain, sort_keys=True).encode()).hexdigest()[:16]


def digest_of(obj: object) -> str:
    """Short stable content hash, used for before/after oracle trails."""
    return _plain_digest(to_jsonable(obj))


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
        # json.dumps joins list items with ", "
        text = json.dumps(to_jsonable(item), sort_keys=True)
        return (", " + text if i else text).encode()


def leaf_paths(obj: object, prefix: str = "") -> dict[str, object]:
    """Flatten a JSON-able structure into {dotted.path: leaf value}."""
    plain = to_jsonable(obj) if prefix == "" else obj
    out: dict[str, object] = {}
    if isinstance(plain, dict):
        for key, value in plain.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(leaf_paths(value, path) if isinstance(value, (dict, list)) else {path: value})
    elif isinstance(plain, list):
        for i, value in enumerate(plain):
            path = f"{prefix}.{i}" if prefix else str(i)
            out.update(leaf_paths(value, path) if isinstance(value, (dict, list)) else {path: value})
    else:
        out[prefix or "value"] = plain
    return out
