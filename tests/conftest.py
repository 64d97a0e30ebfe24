"""Shared oracles and builders for the test suite.

The oracles here are deliberately dumb: exhaustive enumeration and
recomputation from scratch. They stay independent of the code paths they
check.
"""

from __future__ import annotations

import itertools
import random

import pytest

from oppbak.model import DataItem, Fragment, VersionIndex


def enumeration_success(k: int, batches: list[tuple[float, int]]) -> float:
    """P(at least k fragments retrievable) by exhaustive outcome enumeration.

    Each batch is (retrieval probability, fragment count) and is an
    all-or-nothing independent event.
    """
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(batches)):
        probability = 1.0
        retrieved = 0
        for (p, m), bit in zip(batches, bits):
            probability *= p if bit else 1.0 - p
            retrieved += m * bit
        if retrieved >= k:
            total += probability
    return total


def joint_restore_probability(
    own: dict[str, float], deps: dict[str, list[str]], target: str
) -> float:
    """P(target and its transitive deps all restorable) by joint enumeration."""
    names = sorted(own)
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(names)):
        ok = dict(zip(names, bits))
        probability = 1.0
        for name, bit in zip(names, bits):
            probability *= own[name] if bit else 1.0 - own[name]

        def restorable(name: str) -> bool:
            return ok[name] and all(restorable(d) for d in deps.get(name, []))

        if restorable(target):
            total += probability
    return total


def make_item(
    item_id: str = "a",
    owner: str = "t00",
    size: int = 1000,
    priority: float = 0.8,
    n: int = 1,
    k: int = 1,
    version: int = 1,
    deps: tuple = (),
    **kwargs,
) -> DataItem:
    return DataItem(
        id=item_id,
        owner=owner,
        size_bytes=size,
        priority=priority,
        n=n,
        k=k,
        version=version,
        temporal_deps=deps,
        **kwargs,
    )


def make_fragment(
    item_id: str = "a",
    version: int = 1,
    index: int = 0,
    n: int = 1,
    k: int = 1,
    original_size: int = 100,
    payload: bytes | None = None,
) -> Fragment:
    return Fragment(
        item_id=item_id,
        version=version,
        index=index,
        n=n,
        k=k,
        original_size=original_size,
        payload=payload,
    )


def held(
    fragment: Fragment,
    owner: str = "t00",
    priority: float = 0.5,
    declared: float = 0.5,
    **kwargs,
) -> tuple[Fragment, DataItem, float]:
    """`ReplicaStore.accept`'s (fragment, item, declared success), the item
    built from the fragment: same id, version, n, k and size."""
    item = DataItem(
        id=fragment.item_id,
        owner=owner,
        size_bytes=fragment.original_size,
        priority=priority,
        n=fragment.n,
        k=fragment.k,
        version=fragment.version,
        **kwargs,
    )
    return fragment, item, declared


def brute_closure(edges: dict, roots) -> set:
    """`roots` and all they depend on: grow the set until no edge adds anything."""
    closure = set(roots)
    while True:
        grown = closure | {d for key in closure for d in edges[key]}
        if grown == closure:
            return closure
        closure = grown


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def index() -> VersionIndex:
    return VersionIndex()
