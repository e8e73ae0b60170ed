"""Seeded random formulas, traces and visibility setups for experiments.

Formula size counts operator nodes; connectives are drawn uniformly and atom
leaves come from a small pool, so corpora are reproducible from a single seed.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Sequence

from .automata.moore import MEMO_LIMIT
from .formula import (Always, And, Atom, Eventually, Formula, Implies, Next,
                      Not, Or, Release, Until)
from .visibility import EqClass, VisibilitySpec, derive_classes

_UNARY = (Not, Next, Eventually, Always)
_BINARY = (And, Or, Implies, Until, Release)
_CONNECTIVES = _UNARY + _BINARY

DEFAULT_POOL = ("p", "q", "r", "s")


def random_formula(rng: random.Random, size: int,
                   pool: Sequence[str] = DEFAULT_POOL) -> Formula:
    """Uniform connective at every operator node, atoms drawn from the pool."""
    if size <= 0:
        return Atom(rng.choice(pool))
    ctor = rng.choice(_CONNECTIVES)
    if ctor in _UNARY:
        return ctor(random_formula(rng, size - 1, pool))
    split = rng.randint(0, size - 1)
    return ctor(random_formula(rng, split, pool),
                random_formula(rng, size - 1 - split, pool))


def random_plain_trace(rng: random.Random, length: int,
                       pool: Sequence[str] = DEFAULT_POOL) -> list[frozenset[str]]:
    """``length`` events, each holding every atom of the pool with
    probability 1/2, drawn in pool order.  Equal events drawn over one pool
    are one shared object (``_plain_event``), so an experiment of many
    short traces holds each distinct event once, not once per position.
    Sharing also lets a frozenset's cached hash serve every lookup, and a
    monitor that steps the events directly finds each object in its
    checked events (``MooreMachine.validated``) and in each component's
    remembered successors (``DFA.successors``) without comparing items."""
    return [_plain_event(tuple(a for a in pool if rng.random() < 0.5))
            for _ in range(length)]


@lru_cache(maxsize=MEMO_LIMIT)
def _plain_event(atoms: tuple[str, ...]) -> frozenset[str]:
    return frozenset(atoms)


def random_partition(rng: random.Random, pool: Sequence[str]) -> tuple[EqClass, ...]:
    """A random partition of the pool into visibility classes."""
    atoms = list(pool)
    rng.shuffle(atoms)
    groups: list[list[str]] = []
    for atom in atoms:
        if groups and rng.random() < 0.5:
            rng.choice(groups).append(atom)
        else:
            groups.append([atom])
    pairs = [(g[i], g[i + 1]) for g in groups for i in range(len(g) - 1)]
    return derive_classes(pool, pairs)


def experiment_visibility(rng: random.Random) -> VisibilitySpec:
    """The fixed random setup of the metric-comparison experiment over
    ``DEFAULT_POOL``: one two-atom class plus singletons, cost uniform in
    1..3, budget 2."""
    atoms = list(DEFAULT_POOL)
    rng.shuffle(atoms)
    paired = sorted(atoms[:2])
    classes = derive_classes(DEFAULT_POOL, [(paired[0], paired[1])])
    cid = next(c.canonical_id for c in classes if not c.is_singleton)
    return VisibilitySpec(
        classes=classes,
        costs={cid: rng.randint(1, 3)},
        bound=2,
    )


def derive_seed(seed: int, *indices: int) -> int:
    """Deterministic per-task seed derivation."""
    out = seed & 0xFFFFFFFF
    for i in indices:
        out = (out * 1000003 + i + 0x9E3779B9) & 0xFFFFFFFF
    return out
