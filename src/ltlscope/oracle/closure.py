"""Independent language machinery built from closure valuations.

States are total truth assignments over the subformula closure that respect
the boolean structure and the one-step expansion laws of Until and Release.
This is a different construction family from the on-the-fly tableau used by
the synthesis pipeline and shares no code with it, which is the point: the
two paths disagreeing means one of them is broken.
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
    sccs = _sccs(aut.edges, len(aut.states))
    good: set[int] = set()
    for scc in sccs:
        members = set(scc)
        if not any(dst in members for q in scc for dst in aut.edges.get(q, ())):
            continue
        if all(members & acc for acc in aut.accept_sets):
            good |= members
    changed = True
    while changed:
        changed = False
        for q in range(len(aut.states)):
            if q in good:
                continue
            if any(dst in good for dst in aut.edges.get(q, ())):
                good.add(q)
                changed = True
    return frozenset(good)


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
                       live: Optional[frozenset[int]] = None) -> bool:
    """Does the finite prefix extend to an infinite word of the language?"""
    if live is None:
        live = live_states(aut)
    current = set(aut.initial)
    for event in prefix:
        current = {q for q in current if aut.matches_event(q, event)}
        if not current:
            return False
        current = {dst for q in current for dst in aut.edges.get(q, ())}
    return bool(current & live)


def accepts_lasso(aut: ClosureAutomaton, stem: Sequence[frozenset],
                  loop: Sequence[frozenset]) -> bool:
    """Membership of the ultimately periodic word ``stem . loop^omega``."""
    current = set(aut.initial)
    for event in stem:
        current = {q for q in current if aut.matches_event(q, event)}
        current = {dst for q in current for dst in aut.edges.get(q, ())}
        if not current:
            return False

    # Product of automaton states with loop positions; accepting lasso needed.
    k = len(loop)
    prod_edges: dict[tuple[int, int], list[tuple[int, int]]] = {}
    seen: set[tuple[int, int]] = set()
    work = [(q, 0) for q in current]
    roots = list(work)
    seen.update(work)
    while work:
        q, p = work.pop()
        if not aut.matches_event(q, loop[p]):
            prod_edges[(q, p)] = []
            continue
        succ = [(dst, (p + 1) % k) for dst in aut.edges.get(q, ())]
        prod_edges[(q, p)] = succ
        for s in succ:
            if s not in seen:
                seen.add(s)
                work.append(s)

    nodes = sorted(seen)
    ids = {s: i for i, s in enumerate(nodes)}
    int_edges = {ids[s]: [ids[d] for d in prod_edges.get(s, ())] for s in nodes}
    sccs = _sccs(int_edges, len(nodes))
    good: set[int] = set()
    for scc in sccs:
        members = set(scc)
        if not any(dst in members for q in scc for dst in int_edges.get(q, ())):
            continue
        if all(any(nodes[m][0] in acc for m in members) for acc in aut.accept_sets):
            good |= members
    if not good:
        return False
    reach = {ids[r] for r in roots if r in ids}
    frontier = set(reach)
    while frontier:
        if frontier & good:
            return True
        frontier = {d for q in frontier for d in int_edges.get(q, ())} - reach
        reach |= frontier
    return False
