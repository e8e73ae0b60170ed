"""On-the-fly tableau translation of NNF LTL into a Büchi automaton.

Classic node-expansion semantics (new/old/next bookkeeping) recast as a
memoised decomposition: a set of pending formulas is split into all ways of
satisfying it now (literals plus bookkept composites) and next (postponed
obligations).  The nodes, with one acceptance set per Until, form a
generalised Büchi automaton that the pipeline reads as it is: emptiness
checks every acceptance set per strongly connected component, so no
quotient or degeneralisation is needed.  Works for both worlds:
plain atoms with closed-world guards and signed literals with
presence/absence guards.

Sets of subformulas are int bitmasks: bit ``i`` stands for the ``i``-th
distinct subformula of the root in preorder of first occurrence.
"""

from __future__ import annotations

import sys
from typing import Optional

from ..formula import (And, Atom, FalseConst, Formula, Lit, Next, Not, Or,
                       Release, SLit, TrueConst, Until, _children)
from .guarded import Guard, GuardedAutomaton
from .pipeline import TooWideError

Node = tuple[int, int]  # (satisfied-now mask, next-obligation mask)


def _index(root: Formula) -> tuple[list[Formula], dict[Formula, int]]:
    """The distinct subformulas of ``root`` in preorder of first occurrence,
    and the position of each among them."""
    position: dict[Formula, int] = {}
    stack = [root]
    while stack:
        g = stack.pop()
        if g not in position:
            position[g] = len(position)
            stack.extend(reversed(_children(g)))
    return list(position), position


def _tested(f: Formula):
    return f.name if isinstance(f, Atom) else f.lit


def _members(mask: int) -> tuple[int, ...]:
    """Positions of the set bits, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class _Decomposer:
    """Memoised expansion of pending-subformula masks into completed nodes."""

    def __init__(self, forms: list[Formula], position: dict[Formula, int], signed: bool):
        self.forms = forms
        bit = [1 << i for i in range(len(forms))]

        def mask(*subs: Formula) -> int:
            out = 0
            for g in subs:
                out |= bit[position[g]]
            return out

        # The literals, by position: (atom name or signed literal, present?).
        self.tests: dict[int, tuple[object, bool]] = {}
        for i, g in enumerate(forms):
            if isinstance(g, (Atom, Lit)):
                self.tests[i] = (_tested(g), True)
            elif isinstance(g, Not) and isinstance(g.operand, (Atom, Lit)):
                self.tests[i] = (_tested(g.operand), False)
        self.literals = sum(bit[i] for i in self.tests)

        # A literal conflicts with its negation and, among signed literals,
        # with the other sign of its name.  Consistency is pairwise, so a
        # consistent node stays so when its new literal meets no conflict.
        where = {test: i for i, test in self.tests.items()}
        conflicts = dict.fromkeys(self.tests, 0)
        for i, (req, present) in self.tests.items():
            rivals = [(req, not present)]
            if signed and present and isinstance(forms[i], Lit):
                rivals.append((SLit(req.name, not req.sign), True))
            for rival in rivals:
                if rival in where:
                    conflicts[i] |= bit[where[rival]]

        # Per subformula, its ways of holding now as (now, next, new,
        # conflicts) masks; None outside NNF.
        self.choices: list[Optional[tuple]] = []
        for i, f in enumerate(forms):
            me = bit[i]
            if i in conflicts:
                options = ((me, 0, 0, conflicts[i]),)
            elif isinstance(f, TrueConst):
                options = ((0, 0, 0, 0),)
            elif isinstance(f, FalseConst):
                options = ()
            elif isinstance(f, And):
                options = ((me, 0, mask(f.left, f.right), 0),)
            elif isinstance(f, Next):
                options = ((me, mask(f.operand), 0, 0),)
            elif isinstance(f, Or):
                options = ((me, 0, mask(f.left), 0), (me, 0, mask(f.right), 0))
            elif isinstance(f, Until):
                options = ((me, me, mask(f.left), 0), (me, 0, mask(f.right), 0))
            elif isinstance(f, Release):
                options = ((me, me, mask(f.right), 0), (me, 0, mask(f.left, f.right), 0))
            else:
                options = None
            self.choices.append(options)

        self.memo: dict[int, tuple[Node, ...]] = {0: ((0, 0),)}
        self._guards: dict[int, Guard] = {}
        self._positions: dict[int, tuple[int, ...]] = {}

    def cover(self, pending: int) -> tuple[Node, ...]:
        """All (now, next) completions of the pending mask, inconsistent
        literal combinations pruned."""
        result = self.memo.get(pending)
        if result is not None:
            return result
        low = pending & -pending
        first = low.bit_length() - 1
        options = self.choices[first]
        if options is None:
            raise ValueError(f"tableau expects NNF, got {self.forms[first]!r}")
        rest = pending ^ low
        out: set[Node] = set()
        for now_add, nxt_add, new_add, conflicts in options:
            for now, nxt in self.cover(rest | new_add):
                if not now & conflicts:
                    out.add((now | now_add, nxt | nxt_add))
        result = self.memo[pending] = tuple(out)
        return result

    def guard(self, lits: int) -> Guard:
        """The guard of a literal mask, one shared ``Guard`` per mask."""
        guard = self._guards.get(lits)
        if guard is None:
            tests = [self.tests[i] for i in _members(lits)]
            guard = self._guards[lits] = Guard(
                frozenset(req for req, present in tests if present),
                frozenset(req for req, present in tests if not present))
        return guard

    def ordered_cover(self, pending: int) -> list[Node]:
        """``cover(pending)`` sorted by the positions in now, then in next,
        each ascending."""
        leaves = self.cover(pending)
        positions = self._positions
        for mask in {m for node in leaves for m in node}.difference(positions):
            positions[mask] = _members(mask)
        keyed = sorted([(positions[now], positions[nxt], now, nxt) for now, nxt in leaves])
        return [(now, nxt) for _, _, now, nxt in keyed]


def ltl_to_nba(f: Formula, signed: bool) -> GuardedAutomaton:
    """Translate an NNF formula into a generalised Büchi automaton.

    The states are the reachable tableau nodes behind a virtual start, state
    0, which holds nothing now and the formula next and is entered by no
    edge.  Every edge carries the guard of its target node's literals.
    There is one acceptance set per Until subformula, in preorder: the
    nodes where it is not pending or its right operand holds.  ``cover``
    recurses once per pending subformula, so a node with more of them than
    the recursion limit allows raises ``TooWideError``.
    """
    forms, position = _index(f)
    dec = _Decomposer(forms, position, signed)

    order: list[Node] = [(0, 1 << position[f])]
    entry: dict[Node, tuple[Guard, int]] = {}  # node -> the one edge object into it
    rows: dict[int, list[tuple[Guard, int]]] = {}  # by next mask, shared

    def successors(nxt: int) -> list[tuple[Guard, int]]:
        row = rows.get(nxt)
        if row is None:
            leaves = dec.ordered_cover(nxt)
            for node in leaves:
                if node not in entry:
                    entry[node] = (dec.guard(node[0] & dec.literals), len(order))
                    order.append(node)
            row = rows[nxt] = list(map(entry.__getitem__, leaves))
        return row

    transitions: dict[int, list[tuple[Guard, int]]] = {}
    work = [0]
    while work:
        uid = work.pop()
        if uid in transitions:
            continue
        try:
            row = transitions[uid] = successors(order[uid][1])
        except RecursionError:
            raise TooWideError(f"a tableau node has too many pending subformulas to expand "
                               f"within the recursion limit of {sys.getrecursionlimit()}") from None
        work.extend(dst for _, dst in row if dst not in transitions)

    untils = [(1 << i, 1 << position[g.right])
              for i, g in enumerate(forms) if isinstance(g, Until)]
    acceptance = tuple(frozenset(q for q, (now, _) in enumerate(order)
                                 if not now & until or now & right)
                       for until, right in untils)
    return GuardedAutomaton(
        states=list(range(len(order))),
        initial=frozenset({0}),
        transitions=transitions,
        signed=signed,
        acceptance=acceptance,
    )
