"""Shared generators and event spaces for the test suite."""

from __future__ import annotations

import itertools
import random

import pytest

from ltlscope.formula import (Always, And, Atom, Eventually, Implies, Next,
                              Not, Or, Release, SLit, Until)


def random_formula(rng: random.Random, size: int, pool=("p", "q", "r", "s")):
    if size <= 0:
        return Atom(rng.choice(pool))
    ctor = rng.choice((Not, Next, Eventually, Always, And, Or, Implies, Until, Release))
    if ctor in (Not, Next, Eventually, Always):
        return ctor(random_formula(rng, size - 1, pool))
    split = rng.randint(0, size - 1)
    return ctor(random_formula(rng, split, pool),
                random_formula(rng, size - 1 - split, pool))


def balanced_conjunction(count: int):
    """``((p0 & p1) & (p2 & p3)) & …``: ``count`` atoms wide, but only about
    log2(count) levels deep."""
    level = [Atom(f"p{i}") for i in range(count)]
    while len(level) > 1:
        level = [And(*level[i:i + 2]) if i + 1 < len(level) else level[i]
                 for i in range(0, len(level), 2)]
    return level[0]


def plain_events(pool=("p", "q")):
    out = []
    for n in range(len(pool) + 1):
        for combo in itertools.combinations(pool, n):
            out.append(frozenset(combo))
    return out


def all_words(events, length):
    return itertools.product(events, repeat=length)


def random_plain_trace(rng: random.Random, length: int, pool=("p", "q", "r", "s")):
    return [frozenset(a for a in pool if rng.random() < 0.5) for _ in range(length)]


def random_signed_event(rng: random.Random, names) -> frozenset[SLit]:
    event = set()
    for name in names:
        roll = rng.random()
        if roll < 1 / 3:
            event.add(SLit(name, True))
        elif roll < 2 / 3:
            event.add(SLit(name, False))
    return frozenset(event)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
