"""Independent language machinery built from closure valuations.

States are total truth assignments over the subformula closure that respect
the boolean structure and the one-step expansion laws of Until and Release.
This is a different construction family from the on-the-fly tableau used by
the synthesis pipeline and shares no code with it, which is the point: the
two paths disagreeing means one of them is broken.  ``live_states`` and
``accepts_lasso`` decide liveness in one component pass (Couvreur, FM 1999).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Optional, Sequence

from ..formula import (And, Atom, FalseConst, Formula, Lit, Next, Not, Or,
                       Release, TrueConst, Until, postorder)


# Rules by which a closure valuation determines each subformula.
_CONST, _FREE, _NOT, _AND, _OR = range(5)


@dataclass
class ClosureAutomaton:
    """Generalised-Büchi automaton over closure valuations."""

    subs: tuple[Formula, ...]           # closure, children before parents
    leaves: tuple[Formula, ...]         # Atom / Lit entries of the closure
    states: list[tuple[bool, ...]]      # valuations, indexed by sub position
    initial: list[int]
    edges: dict[int, list[int]]
    accept_sets: list[frozenset[int]]   # one per Until subformula
    index: dict[Formula, int]

    def matches_event(self, state: int, event: frozenset) -> bool:
        vals = self.states[state]
        for leaf in self.leaves:
            holds = leaf.name in event if isinstance(leaf, Atom) else leaf.lit in event
            if vals[self.index[leaf]] != holds:
                return False
        return True


def build_closure_automaton(f: Formula, signed: bool) -> ClosureAutomaton:
    """Build the valuation automaton of a formula in (absence-)NNF."""
    subs = tuple(postorder(f))
    index = {g: i for i, g in enumerate(subs)}
    leaves = tuple(g for g in subs if isinstance(g, (Atom, Lit)))
    free = [g for g in subs if isinstance(g, (Atom, Lit, Next))]
    untils = [g for g in subs if isinstance(g, Until)]
    releases = [g for g in subs if isinstance(g, Release)]
    free += untils + releases

    # How each subformula's value follows from the assignment of the free
    # ones, classified once: (rule, operand position, operand position),
    # with a constant's value or a free subformula's place in the assignment
    # as the first operand.
    place = {g: k for k, g in enumerate(free)}
    rules: list[tuple[int, int, int]] = []
    for g in subs:
        if isinstance(g, (TrueConst, FalseConst)):
            rules.append((_CONST, isinstance(g, TrueConst), 0))
        elif g in place:
            rules.append((_FREE, place[g], 0))
        elif isinstance(g, Not):
            rules.append((_NOT, index[g.operand], 0))
        elif isinstance(g, And):
            rules.append((_AND, index[g.left], index[g.right]))
        elif isinstance(g, Or):
            rules.append((_OR, index[g.left], index[g.right]))
        else:
            raise ValueError(f"closure construction expects NNF, got {g!r}")
    until_pos = [(index[u], index[u.left], index[u.right]) for u in untils]
    release_pos = [(index[rho], index[rho.left], index[rho.right]) for rho in releases]
    leaf_lits = [(index[leaf], leaf.lit) for leaf in leaves] if signed else []

    states: list[tuple[bool, ...]] = []
    vals = [False] * len(subs)
    for assignment in iter_product((False, True), repeat=len(free)):
        for i, (rule, a, b) in enumerate(rules):
            if rule == _FREE:
                vals[i] = assignment[a]
            elif rule == _AND:
                vals[i] = vals[a] and vals[b]
            elif rule == _OR:
                vals[i] = vals[a] or vals[b]
            elif rule == _NOT:
                vals[i] = not vals[a]
            else:
                vals[i] = bool(a)
        # Local coherence of the fixpoint operators.
        ok = True
        for u, l, r in until_pos:
            if (vals[r] and not vals[u]) or (not vals[r] and not vals[l] and vals[u]):
                ok = False
                break
        if ok:
            for rho, l, r in release_pos:
                if (not vals[r] and vals[rho]) or (vals[r] and vals[l] and not vals[rho]):
                    ok = False
                    break
        # Literal profile must be realisable by one consistent event.
        if ok and signed:
            required: dict[str, bool] = {}
            for i, lit in leaf_lits:
                if vals[i] and required.setdefault(lit.name, lit.sign) != lit.sign:
                    ok = False
                    break
        if ok:
            states.append(tuple(vals))

    nexts = [g for g in subs if isinstance(g, Next)]

    # Transition feasibility only reads an "entry profile" of the successor:
    # the values of every Next operand and of the Until/Release nodes
    # themselves.  Bucketing successors by profile replaces the quadratic
    # pairwise scan.
    entry_nodes = [g.operand for g in nexts] + untils + releases
    entry_pos = [index[g] for g in entry_nodes]
    buckets: dict[tuple[bool, ...], list[int]] = {}
    for j, b in enumerate(states):
        buckets.setdefault(tuple(b[p] for p in entry_pos), []).append(j)

    n_next = len(nexts)
    n_until = len(untils)

    def successor_constraints(a: tuple[bool, ...]) -> list[Optional[bool]]:
        wanted: list[Optional[bool]] = []
        for g in nexts:
            wanted.append(a[index[g]])
        for u in untils:
            if not a[index[u.right]] and a[index[u.left]]:
                wanted.append(a[index[u]])
            else:
                wanted.append(None)  # free
        for rho in releases:
            if a[index[rho.right]] and not a[index[rho.left]]:
                wanted.append(a[index[rho]])
            else:
                wanted.append(None)
        return wanted

    edges: dict[int, list[int]] = {}
    for i, a in enumerate(states):
        wanted = successor_constraints(a)
        profiles: list[tuple[bool, ...]] = [()]
        for w in wanted:
            options = (False, True) if w is None else (w,)
            profiles = [p + (o,) for p in profiles for o in options]
        out: list[int] = []
        for profile in profiles:
            out.extend(buckets.get(profile, ()))
        edges[i] = out

    initial = [i for i, vals in enumerate(states) if vals[index[f]]]
    accept_sets = [
        frozenset(i for i, vals in enumerate(states)
                  if not vals[index[u]] or vals[index[u.right]])
        for u in untils
    ]
    return ClosureAutomaton(subs=subs, leaves=leaves, states=states, initial=initial,
                            edges=edges, accept_sets=accept_sets, index=index)


def live_states(aut: ClosureAutomaton) -> frozenset[int]:
    """States from which some infinite generalised-accepting run exists."""
    return _live(aut.edges, len(aut.states), aut.accept_sets)


def _live(edges: dict[int, list[int]], n: int,
          accept_sets: Sequence[frozenset[int]]) -> frozenset[int]:
    """Nodes with a path to a cycle meeting every acceptance set.  ``_sccs``
    emits a component after every one it reaches, so it is live when an edge
    enters a live node, or when it has an internal edge and meets every set."""
    live: set[int] = set()
    for scc in _sccs(edges, n):
        members = set(scc)
        out = [edges.get(q, ()) for q in scc]
        if any(not live.isdisjoint(dsts) for dsts in out) or (
                any(not members.isdisjoint(dsts) for dsts in out)
                and all(members & acc for acc in accept_sets)):
            live |= members
    return frozenset(live)


def _sccs(edges: dict[int, list[int]], n: int) -> list[list[int]]:
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in range(n):
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            q, pos = work.pop()
            if pos == 0:
                index[q] = low[q] = counter
                counter += 1
                stack.append(q)
                on_stack.add(q)
            succ = edges.get(q, ())
            advanced = False
            for i in range(pos, len(succ)):
                dst = succ[i]
                if dst not in index:
                    work.append((q, i + 1))
                    work.append((dst, 0))
                    advanced = True
                    break
                if dst in on_stack:
                    low[q] = min(low[q], index[dst])
            if advanced:
                continue
            if low[q] == index[q]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == q:
                        break
                out.append(scc)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[q])
    return out


def prefix_in_language(aut: ClosureAutomaton, prefix: Sequence[frozenset],
                       live: frozenset[int]) -> bool:
    """Does the finite prefix extend to an infinite word of the language?"""
    return not live.isdisjoint(_after(aut, prefix))


def _after(aut: ClosureAutomaton, prefix: Sequence[frozenset]) -> set[int]:
    """The states a run can be in after reading ``prefix``."""
    current = set(aut.initial)
    for event in prefix:
        current = {dst for q in current if aut.matches_event(q, event)
                   for dst in aut.edges.get(q, ())}
    return current


def accepts_lasso(aut: ClosureAutomaton, stem: Sequence[frozenset],
                  loop: Sequence[frozenset]) -> bool:
    """Membership of the ultimately periodic word ``stem . loop^omega``."""
    # Product of states with loop positions; the word is accepted when a root is live.
    k = len(loop)
    roots = _after(aut, stem)
    nodes = [(q, 0) for q in roots]
    ids = {s: i for i, s in enumerate(nodes)}
    edges: dict[int, list[int]] = {}
    for i, (q, p) in enumerate(nodes):  # nodes grows as successors are reached
        if aut.matches_event(q, loop[p]):
            out = edges[i] = []
            for dst in aut.edges.get(q, ()):
                s = (dst, (p + 1) % k)
                if s not in ids:
                    ids[s] = len(nodes)
                    nodes.append(s)
                out.append(ids[s])
    accept_sets = [frozenset(j for j, s in enumerate(nodes) if s[0] in acc)
                   for acc in aut.accept_sets]
    live = _live(edges, len(nodes), accept_sets)
    return not live.isdisjoint(range(len(roots)))
