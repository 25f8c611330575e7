"""The writer's two layouts against the reference they replace: json.dumps of `to_jsonable`.

`canonical_json` must equal `json.dumps(to_jsonable(x), sort_keys=True,
indent=2)`, and `digest_of` and `ListDigest` the sha256 of the compact
`json.dumps(to_jsonable(x), sort_keys=True)`; so must the memory store's and
the world's digests, of the projections they digest. `canonical_json` writes
a frozen dataclass that occurs more than once only once per call.
"""

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass
from enum import Enum

from hypothesis import given, settings
from hypothesis import strategies as st

import agvsim.serialize
from agvsim.cavstack import WorldTruth
from agvsim.domain import Hazard, RoadClass, Role
from agvsim.pipeline import MemoryEntry, MemoryKind, MemoryStore
from agvsim.serialize import ListDigest, canonical_json, digest_of


def to_jsonable(obj: object) -> object:
    """Recursively convert dataclasses/enums/tuples into plain JSON types."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(v) for v in items]
    return repr(obj)


class Colour(str, Enum):
    RED = "red"
    WHITE = "weiß"


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Leaf:
    # declared out of name order: the writer sorts the keys
    zeta: float
    alpha: str
    colour: Colour


@dataclass(frozen=True)
class Node:
    children: tuple
    leaf: Leaf
    extra: object = None


def reference(obj: object) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2)


def plain_digest(plain: object) -> str:
    """The digest of a value already made of JSON types, through the `json` module."""
    return hashlib.sha256(json.dumps(plain, sort_keys=True).encode()).hexdigest()[:16]


def reference_digest(obj: object) -> str:
    return plain_digest(to_jsonable(obj))


_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, sys.float_info.max, float("nan"), float("inf"), float("-inf")]),
)
_ints = st.one_of(st.integers(), st.integers(min_value=2**53, max_value=2**80), st.integers(max_value=-(2**53)))
_texts = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=6),  # lone surrogates included
    st.sampled_from(["", "ü", "日本", '"\\', "\x00\x1f\x7f", "\ud800", "a\udfffb", "1", "True", "None"]),
)
_leaves = st.builds(Leaf, zeta=_floats, alpha=_texts, colour=st.sampled_from(Colour))
_hashables = st.one_of(
    st.none(), st.booleans(), _ints, _floats, _texts, st.sampled_from(Colour), st.just(Empty()), _leaves,
    st.complex_numbers(max_magnitude=10),  # no JSON type: written as its repr
)
# int, bool and None keys collide with the strings "1", "True" and "None" after str()
_keys = st.one_of(_texts, st.integers(-2, 2), st.booleans(), st.none(), st.sampled_from(Colour))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=4),
        st.sets(_hashables, max_size=4),
        st.frozensets(_hashables, max_size=4),
        st.builds(Node, children=st.lists(children, max_size=3).map(tuple), leaf=_leaves, extra=children),
    )


_values = st.recursive(_hashables, _containers, max_leaves=24)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_values)
def test_writer_equals_json_dumps_of_to_jsonable(value):
    assert canonical_json(value) == reference(value)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_values)
def test_digest_equals_sha256_of_compact_json_dumps(value):
    assert digest_of(value) == reference_digest(value)


_plain_values = st.recursive(
    st.one_of(st.none(), st.booleans(), _ints, _floats, _texts),
    lambda children: st.one_of(st.lists(children, max_size=4), st.dictionaries(_texts, children, max_size=4)),
    max_leaves=16,
)
_memory_entries = st.builds(
    MemoryEntry, key=_texts, kind=st.sampled_from(MemoryKind), value=_plain_values,
    origin=st.sampled_from(Role), inserted_step=_ints, persistent=st.booleans(),
)
_worlds = st.builds(
    WorldTruth, true_speed_limit_kph=_floats, road_class=st.sampled_from(RoadClass), vehicle_true_speed_kph=_floats,
    true_hazards=st.lists(
        st.builds(Hazard, kind=_texts, distance_m=st.floats(min_value=0.0), confidence=st.floats(0.0, 1.0)),
        max_size=3,
    ).map(tuple),
    true_closures=st.lists(_texts, max_size=3).map(tuple),
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_plain_values, st.lists(_memory_entries, max_size=4), _worlds)
def test_every_digest_equals_the_json_module_digest_of_its_projection(value, entries, world):
    # `digest_of` is the one digest: a value of JSON types, and the memory
    # store's and the world's projections, digest as `json.dumps` writes them
    assert digest_of(value) == plain_digest(value)
    assert MemoryStore(tuple(entries)).digest() == plain_digest(
        [[e.key, e.kind.value, repr(e.value), e.origin.value, e.inserted_step, e.persistent] for e in entries]
    )
    assert world.digest() == plain_digest({
        "limit": world.true_speed_limit_kph,
        "road": world.road_class.value,
        "speed": world.vehicle_true_speed_kph,
        "hazards": [[h.kind, h.distance_m, h.confidence] for h in world.true_hazards],
        "closures": list(world.true_closures),
    })


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(_values, max_size=6), st.data())
def test_list_digest_equals_digest_of_the_whole_list(items, data):
    settled = data.draw(st.integers(0, len(items)), label="settled")
    digest = ListDigest()
    for item in items[:settled]:
        digest.add(item)
    assert digest.digest(items[settled:]) == digest_of(items) == reference_digest(items)


@dataclass
class Box:
    # mutable: written afresh wherever it occurs
    item: object


def test_a_shared_frozen_object_is_written_once_per_call(monkeypatch):
    marker = ["only inside the shared node"]
    shared = Node(children=(Leaf(1.5, "a\nb", Colour.WHITE),), leaf=Leaf(-0.0, "", Colour.RED), extra=marker)
    value = {"top": shared, "mid": [shared, Box(shared)], "deep": Node(children=((shared,),), leaf=shared.leaf)}
    writes = []
    original = agvsim.serialize._text

    def counting(obj, nl, *memo):
        if obj is marker:  # a list is never memoised: one write of it is one write of `shared`
            writes[-1] += 1
        return original(obj, nl, *memo)

    monkeypatch.setattr(agvsim.serialize, "_text", counting)
    for _ in range(2):
        writes.append(0)
        assert canonical_json(value) == reference(value)
    assert writes == [1, 1]  # a memo that outlived its call would make the second count 0


@st.composite
def values_sharing_objects(draw):
    """A value in which earlier-drawn frozen objects recur at varying depths."""
    pool: list = []
    for _ in range(draw(st.integers(1, 4))):
        children = st.lists(st.one_of(_hashables, st.sampled_from(pool)) if pool else _hashables, max_size=3)
        pool.append(draw(st.one_of(
            _leaves, st.just(Empty()),
            st.builds(Node, children=children.map(tuple), leaf=_leaves, extra=st.one_of(st.none(), children)),
        )))
    shared = st.sampled_from(pool)
    return draw(st.recursive(
        st.one_of(shared, _hashables),
        lambda children: st.one_of(_containers(children), st.builds(Box, children)),
        max_leaves=16,
    ))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(values_sharing_objects())
def test_shared_objects_write_as_json_dumps_of_to_jsonable(value):
    assert canonical_json(value) == reference(value)
