"""On-the-fly tableau translation of NNF LTL into a Büchi automaton.

Classic node-expansion semantics (new/old/next bookkeeping) recast as a
memoised decomposition: a set of pending formulas is split into all ways of
satisfying it now (literals plus bookkept composites) and next (postponed
obligations).  A node's successors depend only on its obligations, so the
automaton has one state per distinct obligation set and one edge per
completion, carrying the node's literals as an int-mask guard and one
acceptance mark per Until it fulfils (a transition-based generalised Büchi
automaton, as in Couvreur, FM 1999, and Gastin and Oddoux, CAV 2001).  The
pipeline reads it as it is: emptiness checks the marks per strongly
connected component, so no quotient or degeneralisation is needed.  Works
for both worlds: plain atoms with closed-world guards and signed literals
with presence/absence guards.

A monitor translates its two branches, the formula and its negation, in
one automaton with one initial state per root: they share the subformula
index, the decomposition memo and the literal table, and an obligation set
both reach is one state.

Sets of subformulas are int bitmasks: bit ``i`` stands for the ``i``-th
distinct subformula of the roots in preorder of first occurrence, root 0's
first.
"""

from __future__ import annotations

import sys
from typing import Optional

from ..formula import (And, Atom, FalseConst, Formula, Lit, Next, Not, Or,
                       Release, SLit, TrueConst, Until, _children)
from .guarded import Edge, GuardedAutomaton, bit_positions
from .pipeline import TooWideError, literal_order

Node = tuple[int, int]  # (satisfied-now mask, next-obligation mask)


def _index(roots: tuple[Formula, ...]) -> tuple[list[Formula], dict[Formula, int]]:
    """The distinct subformulas of the roots in preorder of first occurrence,
    root 0's first, and the position of each among them."""
    position: dict[Formula, int] = {}
    stack = list(reversed(roots))
    while stack:
        g = stack.pop()
        if g not in position:
            position[g] = len(position)
            stack.extend(reversed(_children(g)))
    return list(position), position


def _test(f: Formula) -> Optional[tuple[object, bool]]:
    """A literal's (atom name or signed literal, present?); None for any
    other subformula."""
    kind = type(f)
    if kind is Not:
        f, present = f.operand, False
        kind = type(f)
    else:
        present = True
    if kind is Atom:
        return f.name, present
    if kind is Lit:
        return f.lit, present
    return None


class _Decomposer:
    """Memoised expansion of pending-subformula masks into completed nodes."""

    def __init__(self, forms: list[Formula], position: dict[Formula, int]):
        self.forms = forms
        bit = {g: 1 << i for g, i in position.items()}

        # Per subformula, its ways of holding now as (now, next, new,
        # conflicts) masks, None outside NNF; a literal's are set below.
        # ``tests`` holds the literals by position: (atom name or signed
        # literal, present?).
        self.tests: dict[int, tuple[object, bool]] = {}
        self.choices: list[Optional[tuple]] = []
        for i, f in enumerate(forms):
            kind, me = type(f), 1 << i
            if kind is And:
                options = ((me, 0, bit[f.left] | bit[f.right], 0),)
            elif kind is Or:
                options = ((me, 0, bit[f.left], 0), (me, 0, bit[f.right], 0))
            elif kind is Until:
                options = ((me, me, bit[f.left], 0), (me, 0, bit[f.right], 0))
            elif kind is Release:
                options = ((me, me, bit[f.right], 0), (me, 0, bit[f.left] | bit[f.right], 0))
            elif kind is Next:
                options = ((me, bit[f.operand], 0, 0),)
            elif kind is TrueConst:
                options = ((0, 0, 0, 0),)
            elif kind is FalseConst:
                options = ()
            else:
                options = None
                test = _test(f)
                if test is not None:
                    self.tests[i] = test
            self.choices.append(options)
        self.literals = sum(1 << i for i in self.tests)

        # A literal conflicts with its negation and, when it is a signed
        # literal, with the other sign of its name.  Consistency is pairwise,
        # so a consistent node stays so when its new literal meets no conflict.
        where = {test: 1 << i for i, test in self.tests.items()}
        for i, (req, present) in self.tests.items():
            conflicts = where.get((req, not present), 0)
            if present and type(forms[i]) is Lit:
                conflicts |= where.get((SLit(req.name, not req.sign), True), 0)
            self.choices[i] = ((1 << i, 0, 0, conflicts),)

        self.memo: dict[int, tuple[Node, ...]] = {0: ((0, 0),)}

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


def ltl_to_nba(roots: tuple[Formula, ...], signed: bool) -> GuardedAutomaton:
    """Translate NNF formulas into one transition-based generalised Büchi
    automaton whose states are obligation sets, with one initial state per
    root.

    The roots share one index of their distinct subformulas (preorder of
    first occurrence, root 0's first), one decomposition memo, one literal
    table and one list of Untils, so an obligation set that several roots
    reach is one state.  ``initial[k]`` is the state of root ``k``'s own
    mask.  The state of an obligation mask has one edge per completion
    ``(now, nxt)`` of it, to the state of ``nxt``: its guard is the
    literals of ``now``, and its marks have bit ``k`` set when the ``k``-th
    Until in preorder is not in ``now`` or its right operand is.  Parallel
    edges with one guard and one target are merged, their marks OR-ed.
    States are numbered as they are first reached, breadth first from root
    0 and then from each later root over the states not yet reached, each
    row's completions taken in ascending (now, nxt) order; a merged edge
    keeps its first completion's place.  So the part reachable from root 0
    is root 0's own automaton, edge for edge, up to the wider literal table
    and the marks of the later roots' own Untils, which it never holds and
    so always sets.  ``cover`` recurses once per pending subformula, so a
    node with more of them than the recursion limit allows raises
    ``TooWideError``.
    """
    forms, position = _index(roots)
    dec = _Decomposer(forms, position)
    literals = literal_order({lit for lit, _ in dec.tests.values()})
    bit = {lit: 1 << i for i, lit in enumerate(literals)}
    untils = [(1 << i, 1 << position[g.right])
              for i, g in enumerate(forms) if isinstance(g, Until)]
    labels: dict[int, tuple[int, int, int]] = {}

    def label(now: int) -> tuple[int, int, int]:
        """The (require, forbid, marks) of an edge whose completion holds
        ``now``."""
        require = forbid = marks = 0
        for i in bit_positions(now & dec.literals):
            lit, present = dec.tests[i]
            if present:
                require |= bit[lit]
            else:
                forbid |= bit[lit]
        for k, (until, right) in enumerate(untils):
            if not now & until or now & right:
                marks |= 1 << k
        result = labels[now] = (require, forbid, marks)
        return result

    ids: dict[int, int] = {}
    order: list[int] = []
    initial: list[int] = []
    transitions: dict[int, list[Edge]] = {}
    uid = 0  # the next state to expand
    for root in roots:
        start = 1 << position[root]
        if start not in ids:
            ids[start] = len(order)
            order.append(start)
        initial.append(ids[start])
        while uid < len(order):  # order grows as states are reached
            try:
                leaves = sorted(dec.cover(order[uid]))
            except RecursionError:
                raise TooWideError(
                    f"a tableau node has too many pending subformulas to expand "
                    f"within the recursion limit of {sys.getrecursionlimit()}") from None
            row: dict[tuple[int, int, int], int] = {}
            for now, nxt in leaves:
                dst = ids.get(nxt)
                if dst is None:
                    dst = ids[nxt] = len(order)
                    order.append(nxt)
                require, forbid, marks = labels.get(now) or label(now)
                key = (require, forbid, dst)
                row[key] = row.get(key, 0) | marks
            transitions[uid] = [(require, forbid, marks, dst)
                                for (require, forbid, dst), marks in row.items()]
            uid += 1

    return GuardedAutomaton(
        states=list(range(len(order))),
        initial=tuple(initial),
        transitions=transitions,
        signed=signed,
        literals=literals,
        acceptance=(1 << len(untils)) - 1,
    )
