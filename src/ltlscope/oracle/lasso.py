"""Exact LTL evaluation on ultimately periodic words.

A lasso word ``u . v^omega`` is the canonical finite presentation of an
infinite trace.  Truth of every subformula at every position of the stem and
loop is computed by fixpoint iteration, so Until and Release are exact, not
bounded approximations.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..formula import (Always, And, Atom, Eventually, FalseConst, Formula,
                       Implies, Lit, Next, Not, Or, Release, TrueConst, Until,
                       postorder)


@dataclass(frozen=True)
class LassoWord:
    stem: tuple[frozenset, ...]
    loop: tuple[frozenset, ...]

    def __post_init__(self):
        if not self.loop:
            raise ValueError("lasso loop must be nonempty")

    def __len__(self) -> int:
        return len(self.stem) + len(self.loop)

    def event(self, i: int) -> frozenset:
        if i < len(self.stem):
            return self.stem[i]
        return self.loop[(i - len(self.stem)) % len(self.loop)]

    def next_index(self, i: int) -> int:
        return i + 1 if i + 1 < len(self) else len(self.stem)


def _holds_leaf(f: Formula, event: frozenset) -> bool:
    if isinstance(f, Atom):
        return f.name in event
    if isinstance(f, Lit):
        return f.lit in event
    raise TypeError(f)


def eval_lasso(f: Formula, word: LassoWord) -> bool:
    """Truth of ``f`` on ``u . v^omega`` at position 0."""
    n = len(word)
    positions = range(n)
    values: dict[Formula, list[bool]] = {}

    for g in postorder(f):  # each distinct node once, children before parents
        if isinstance(g, TrueConst):
            values[g] = [True] * n
        elif isinstance(g, FalseConst):
            values[g] = [False] * n
        elif isinstance(g, (Atom, Lit)):
            values[g] = [_holds_leaf(g, word.event(i)) for i in positions]
        elif isinstance(g, Not):
            child = values[g.operand]
            values[g] = [not child[i] for i in positions]
        elif isinstance(g, And):
            l, r = values[g.left], values[g.right]
            values[g] = [l[i] and r[i] for i in positions]
        elif isinstance(g, Or):
            l, r = values[g.left], values[g.right]
            values[g] = [l[i] or r[i] for i in positions]
        elif isinstance(g, Implies):
            l, r = values[g.left], values[g.right]
            values[g] = [(not l[i]) or r[i] for i in positions]
        elif isinstance(g, Next):
            child = values[g.operand]
            values[g] = [child[word.next_index(i)] for i in positions]
        elif isinstance(g, Until):
            values[g] = _fixpoint(word, values[g.left], values[g.right], least=True)
        elif isinstance(g, Eventually):
            values[g] = _fixpoint(word, [True] * n, values[g.operand], least=True)
        elif isinstance(g, Release):
            values[g] = _fixpoint(word, values[g.left], values[g.right], least=False)
        elif isinstance(g, Always):
            values[g] = _fixpoint(word, [False] * n, values[g.operand], least=False)
        else:
            raise TypeError(f"not a formula: {g!r}")
    return values[f][0]


def _fixpoint(word: LassoWord, left: list[bool], right: list[bool], least: bool) -> list[bool]:
    """Least fixpoint of U (start all-false) / greatest of R (all-true)."""
    n = len(word)
    values = [not least] * n
    for _ in range(n + 1):
        changed = False
        for i in range(n - 1, -1, -1):
            if least:
                new = right[i] or (left[i] and values[word.next_index(i)])
            else:
                new = right[i] and (left[i] or values[word.next_index(i)])
            if new != values[i]:
                values[i] = new
                changed = True
        if not changed:
            break
    return values

