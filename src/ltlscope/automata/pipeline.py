"""NBA -> NFA -> DFA pipeline stages.

A monitor's two branches, the formula and its negation, go through the
first stages as one automaton with one initial state per root: one
emptiness pass, one flag pass on a signed monitor and one NFA quotient
serve both, and the subset construction and minimisation then run once
per root.  Emptiness, the flag, bisimilarity and universality depend only
on what a state reaches, so each branch gets the DFA it would get alone.

The NFA over finite prefixes is the tableau automaton itself, one object:
the NBA reads its edge marks and ``acceptance``, the NFA its ``accepting``
set.  Emptiness fills that set in place: a state is nonempty when it reaches
a strongly connected component whose internal edges' marks together cover
every Until.  On a signed monitor a second emptiness check, over the edges
an empty event can take (``guard_free``), fills ``flagged`` with the states
from which the all-empty word is accepted; every later stage carries that
flag alongside acceptance.  Guards stay int masks over the automaton's
literal table through the quotient and the subset construction, which
determinises over consistent valuations of the literals each subset's
guards mention, compacted onto the row's own bits; valuations are packed
into integer bitmasks so stepping is a dict lookup.  A universal NFA state
is accepting, flagged on a signed monitor, and has an edge that requires
and forbids nothing back to itself: it takes every event and keeps
acceptance and the flag, so every subset that holds it has the same outputs
after any word.  The subset construction makes all such subsets one state,
and the minimal DFA is the one it would have had without.
One partition-refinement kernel, ``coarsest_partition``, serves both
merges: the bisimulation quotient of the NFA before the exponential subset
step and the minimisation of the DFA over each state's own literals.  A
quotient that merges nothing returns its input, and a minimisation that
merges nothing passes its input's structure on to a new DFA.  The Moore
product joins two DFA rows on the names both read (``product_successors``),
so no event over the union of their literals is built; rows that read no
name in common, or of which one has a single successor, give every pair of
their successors, and rows over one literal tuple are zipped mask by mask.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from math import prod
from typing import Optional

from .guarded import Edge, GuardedAutomaton, bit_positions, valuation_bits


def nonempty_states(transitions: dict[int, list[Edge]], acceptance: int) -> frozenset[int]:
    """States from which the Büchi language of ``transitions`` is nonempty:
    those reaching a strongly connected component that has an internal
    edge (a self-loop counts) and whose internal edges' marks together
    cover ``acceptance``.  The states are the keys of ``transitions``, and
    every target is one of them."""
    edges = {q: [edge[3] for edge in row] for q, row in transitions.items()}
    good: set[int] = set()
    # Tarjan emits a component after every component it reaches, so one
    # pass sees each edge leaving a component with its target decided.
    for scc in tarjan_sccs(edges, edges):
        if len(scc) == 1:  # most components: one state, cyclic only by a self-loop
            q = scc[0]
            found = not good.isdisjoint(edges[q]) or _cycle_covers(
                [marks for _, _, marks, dst in transitions[q] if dst == q], acceptance)
        else:
            members = set(scc)
            found = any(not good.isdisjoint(edges[q]) for q in scc) or _cycle_covers(
                [marks for q in scc for _, _, marks, dst in transitions[q]
                 if dst in members], acceptance)
        if found:
            good.update(scc)
    return frozenset(good)


def _cycle_covers(marks: list[int], full: int) -> bool:
    """Whether a component whose internal edges carry ``marks`` has an
    internal edge and its marks cover ``full`` together."""
    covered = 0
    for m in marks:
        covered |= m
    return bool(marks) and covered & full == full


def tarjan_sccs(edges: dict[int, list[int]], states) -> list[list[int]]:
    """Iterative Tarjan over an integer adjacency map."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []

    for root in states:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(edges.get(root, ())))]
        while work:
            q, succ = work[-1]
            for dst in succ:  # resumes where the last visit of q stopped
                if dst not in index:
                    index[dst] = low[dst] = len(index)
                    stack.append(dst)
                    on_stack.add(dst)
                    work.append((dst, iter(edges.get(dst, ()))))
                    break
                if dst in on_stack and index[dst] < low[q]:
                    low[q] = index[dst]
            else:
                work.pop()
                if low[q] == index[q]:
                    scc = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.append(w)
                        if w == q:
                            break
                    sccs.append(scc)
                if work:
                    parent = work[-1][0]
                    if low[q] < low[parent]:
                        low[parent] = low[q]
    return sccs


def guard_free(transitions: dict[int, list[Edge]]) -> dict[int, list[Edge]]:
    """The edges an empty event can take: those whose guard requires
    nothing.  Their nonempty states are those from which the all-empty word
    is accepted."""
    return {q: [edge for edge in row if not edge[0]] for q, row in transitions.items()}


# Valuations are int bitmasks over a tuple of literals in ``str`` order: bit
# ``i`` is set when the ``i``-th literal is in the event.  Two literals
# exclude each other when they are the two signs of one name; a plain atom
# is its own name and excludes nothing, so no table needs a world flag.

def literal_order(mentioned) -> tuple:
    """The literals of ``mentioned`` in bit order."""
    return tuple(sorted(mentioned, key=str))


@lru_cache(maxsize=65536)
def consistent_masks(lits: tuple) -> tuple[int, ...]:
    """All valuation bitmasks over ``lits`` under which no name carries
    both signs, ascending.  Built per name: none of its literals or exactly
    one."""
    choices: dict[object, list[int]] = {}
    for i, name in enumerate(_names(lits)):
        choices.setdefault(name, [0]).append(1 << i)
    masks = [0]
    for bits in choices.values():
        masks = [mask | bit for mask in masks for bit in bits]
    return tuple(sorted(masks))


def mask_event(lits: tuple, bits: int) -> frozenset:
    """The literals the mask sets."""
    return frozenset(lit for i, lit in enumerate(lits) if bits >> i & 1)


def consistent_count(lits: tuple) -> int:
    """How many masks ``consistent_masks`` gives over distinct literals,
    without building them: per name, one more than its literals."""
    return prod(k + 1 for k in Counter(_names(lits)).values())


def _names(lits: tuple) -> list:
    """The name each literal belongs to: a plain atom is its own name, a
    signed literal's is ``lit.name``."""
    return [lit if isinstance(lit, str) else lit.name for lit in lits]


def coarsest_partition(keys: dict, rows: dict, read) -> dict:
    """The coarsest partition of the states that refines ``keys`` and is
    stable under ``rows`` (Moore's signature refinement).

    ``keys`` maps each state to its initial key and ``rows`` each state to
    its outgoing row; ``read(row, block)`` gives what the row computes under
    the current blocks, as a hashable value.  Two states stay together while
    their keys and their reads agree.  Returns each state's block, numbered
    by the block's first state in the iteration order of ``keys``.  A partition
    whose every block holds one state cannot split, so it is returned
    without another round: keys that already tell every state apart read
    no row.
    """
    remap: dict = {}
    block = {q: remap.setdefault(key, len(remap)) for q, key in keys.items()}
    count = len(remap)
    while count < len(block):
        remap = {}
        refined = {q: remap.setdefault((block[q], read(rows.get(q, ()), block)), len(remap))
                   for q in keys}
        if len(remap) == count:  # no block split: ``refined`` numbers them as ``block``
            break
        block, count = refined, len(remap)
    return block


def _discrete(block: dict) -> bool:
    """Whether every state is its own block: its number is the state's."""
    return all(q == b for q, b in block.items())


def quotient_bisim(aut: GuardedAutomaton) -> GuardedAutomaton:
    """Quotient an NFA by the coarsest bisimulation respecting acceptance
    and the flag.

    Bisimilar states accept the same finite words, and the quotient
    typically collapses tableau output dramatically before determinisation.
    Edges are compared as (require, forbid, target block) int triples; a
    merged state's edges are rebuilt in that order and carry no marks.
    When no two states merge (each state its own block, numbered as
    itself), the quotient is ``aut`` itself: edges in the tableau's order
    with their marks, which an NFA does not read.
    """
    block = coarsest_partition({q: (q in aut.accepting, q in aut.flagged) for q in aut.states},
                               aut.transitions,
                               lambda row, block: frozenset(
                                   (require, forbid, block[dst]) for require, forbid, _, dst in row))
    if _discrete(block):
        return aut
    rep: dict[int, int] = {}
    for q in aut.states:
        rep.setdefault(block[q], q)
    transitions = {
        b: [(require, forbid, 0, dst) for require, forbid, dst in sorted(
            {(require, forbid, block[dst]) for require, forbid, _, dst in aut.transitions.get(q, ())})]
        for b, q in rep.items()
    }
    return GuardedAutomaton(
        states=sorted(rep),
        initial=tuple(block[q] for q in aut.initial),
        transitions=transitions,
        signed=aut.signed,
        literals=aut.literals,
        accepting=frozenset(block[q] for q in aut.accepting),
        flagged=frozenset(block[q] for q in aut.flagged),
    )


# Most entries one memo holds: a DFA's remembered successors, a machine's
# validated events, each dict of a rational ``SessionMemo``, the events
# ``random_plain_trace`` shares.  Past it, results are computed and not kept.
MEMO_LIMIT = 4096


@dataclass
class DFA:
    """Deterministic, total automaton over consistent events.

    Each state stores the literals its subset's guards mention (not all of
    them need matter) and a full table from consistent valuation bitmask to
    successor, so every consistent event matches exactly one entry.  On the
    signed branch a state is flagged when the prefixes reaching it, continued
    by empty events forever, are accepted; a plain-branch DFA has no flags.

    ``successors`` remembers, for a state that reads literals, the successor
    of each ``frozenset`` event ``step`` has valued there, keyed by (state,
    event), at most ``MEMO_LIMIT`` of them; it stays ``None`` until the
    first one is kept.  An event's mask depends only on its value, so equal
    events share an entry, and an event object that callers share (the
    decoded events of a ``SessionMemo``, the command line's trace events)
    hits it without comparing items.  The memo is no part of the DFA's
    value: it is left out of equality and ``repr`` and never serialised.
    """

    states: list[int]
    initial: int
    accepting: frozenset[int]
    signed: bool
    lits: dict[int, tuple]            # state -> sorted literal tuple
    table: dict[int, dict[int, int]]  # state -> valuation bits -> successor
    flagged: frozenset[int] = frozenset()
    successors: Optional[dict[tuple[int, frozenset], int]] = field(
        default=None, init=False, compare=False, repr=False)

    def step(self, state: int, event: frozenset) -> int:
        """The successor of ``state`` on ``event``.  A ``frozenset`` event
        on a state that reads literals is valued over them once and then
        found in ``successors``; any other event, and every event on a
        state that reads none, is valued on every step."""
        lits = self.lits[state]
        if not lits or type(event) is not frozenset:
            return self.table[state][valuation_bits(lits, event)]
        key = (state, event)
        memo = self.successors
        if memo is not None:
            successor = memo.get(key)
            if successor is not None:
                return successor
        successor = self.table[state][valuation_bits(lits, event)]
        if memo is None:
            if MEMO_LIMIT:
                self.successors = {key: successor}
        elif len(memo) < MEMO_LIMIT:
            memo[key] = successor
        return successor


# The most consistent events one DFA row may map.  Each further name a state
# reads at least doubles its row, so a wider state is refused before any
# table over its literals is built.  A row of 2^16 events is built in about
# a second; rows near 2^20 took tens of seconds.
ROW_BITS = 16
MAX_ROW = 1 << ROW_BITS


class TooWideError(ValueError):
    """A formula too wide to synthesise: a tableau node has more pending
    subformulas than the recursion limit lets it expand, or a row would map
    more than ``MAX_ROW`` consistent events (``check_row``): a DFA state's,
    a machine file state's or a product state's drawn for export."""


def check_row(lits: tuple, what: str) -> None:
    """Refuse a row over ``lits`` that would map more than ``MAX_ROW``
    consistent events, counted without building them: ``TooWideError``
    names ``what`` reads the literals.  A row over n literals has at most
    2^n masks, so only a row over more than ``ROW_BITS`` is counted."""
    if len(lits) > ROW_BITS and consistent_count(lits) > MAX_ROW:
        raise TooWideError(f"{what} reads {len(lits)} literals: its row would "
                           f"map more than {MAX_ROW} consistent events")


def determinize(nfa: GuardedAutomaton, root: int) -> DFA:
    """Rabin-Scott subset construction over consistent guard valuations,
    from the singleton of ``root``, one of the NFA's initial states.

    Unreachable subsets are never built, so a monitor's NFA, which holds
    both branches, is read in place for each root, not copied: only the
    states ``root`` reaches are met, and subsets are numbered as they are
    reached in mask order.  The empty subset acts as the sink.  A subset is
    flagged when it meets the NFA's flagged states.  A subset reads the
    literals its guard masks mention together; each guard is compacted onto
    those bits, so bit ``i`` of the row stands for the ``i``-th of them in
    table order.  A subset whose row would exceed ``MAX_ROW`` raises
    ``TooWideError``.

    A universal NFA state is accepting, flagged on a signed monitor, and
    has an edge that requires and forbids nothing back to itself.  It takes
    every event and stays, so every subset that holds one stays accepting,
    and flagged on a signed monitor, after any word: all such subsets have
    the same outputs, and the minimal DFA cannot tell them apart.  They are
    all one DFA state, whose row is one entry back to itself over no
    literal.  Which universal states a subset holds is not read, so the DFA
    does not depend on how the NFA numbers its states.
    """
    table_lits = nfa.literals
    transitions = nfa.transitions
    universal = frozenset(
        q for q in nfa.accepting
        if (q in nfa.flagged or not nfa.signed)
        and any(dst == q and not require | forbid
                for require, forbid, _, dst in transitions.get(q, ())))
    ids: dict[frozenset[int], int] = {}
    order: list[frozenset[int]] = []
    absorbing = -1  # the id of every subset that holds a universal state, once one is reached

    def enter(subset: frozenset[int]) -> int:
        """The id of a subset not yet in ``ids``: ``absorbing`` when it
        holds a universal state, else a new one."""
        nonlocal absorbing
        if subset.isdisjoint(universal):
            sid = len(order)
            order.append(subset)
        else:
            if absorbing < 0:
                absorbing = len(order)
                order.append(universal)  # its outputs are any universal state's
            sid = absorbing
        ids[subset] = sid
        return sid

    enter(frozenset((root,)))
    lits_of: dict[int, tuple] = {}
    table: dict[int, dict[int, int]] = {}
    accepting: set[int] = set()
    flagged: set[int] = set()

    for sid, subset in enumerate(order):  # order grows as subsets are reached
        if not subset.isdisjoint(nfa.accepting):
            accepting.add(sid)
        if not subset.isdisjoint(nfa.flagged):
            flagged.add(sid)
        if sid == absorbing:  # every event stays: its guards are not read
            lits_of[sid], table[sid] = (), {0: sid}
            continue
        used = 0
        grouped: dict[tuple[int, int], set[int]] = {}
        for q in subset:
            for require, forbid, _, dst in transitions.get(q, ()):
                used |= require | forbid
                grouped.setdefault((require, forbid), set()).add(dst)
        positions = bit_positions(used)
        lits = tuple(table_lits[p] for p in positions)
        check_row(lits, "a DFA state")
        if used & (used + 1):  # the row's bits are not the table's lowest
            rank = {1 << p: 1 << k for k, p in enumerate(positions)}
            edges = [(_compact(require, rank), _compact(forbid, rank), dsts)
                     for (require, forbid), dsts in grouped.items()]
        else:  # already compact, a subset that reads no literal included
            edges = [(require, forbid, dsts) for (require, forbid), dsts in grouped.items()]
        row: dict[int, int] = {}
        for bits in consistent_masks(lits):
            target: set[int] = set()
            for req, forb, dsts in edges:
                if bits & req == req and not bits & forb:
                    target |= dsts
            key = frozenset(target)
            dst = ids.get(key)
            if dst is None:
                dst = enter(key)
            row[bits] = dst
        lits_of[sid] = lits
        table[sid] = row

    return DFA(states=list(range(len(order))), initial=0,
               accepting=frozenset(accepting), signed=nfa.signed,
               lits=lits_of, table=table, flagged=frozenset(flagged))


def _compact(mask: int, rank: dict[int, int]) -> int:
    """The mask with each set bit moved to the bit ``rank`` gives it."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rank[low]
        mask ^= low
    return out


def minimize(dfa: DFA) -> DFA:
    """Merge language-equivalent states with equal flags by partition
    refinement, reading each row under the current blocks over only the
    literals it depends on: states that behave alike read alike whatever
    literals they store, and no event over their union is built.

    Always a new ``DFA``.  When no two states merge (each state its own
    block, numbered as itself), it shares the input's literal tuples and
    rows instead of rebuilding them."""
    def read(row, block) -> tuple:
        lits, table = row
        if not lits:  # one entry, under mask 0
            return (), (block[table[0]],)
        at = {m: block[dst] for m, dst in table.items()}
        blocks = set(at.values())
        if len(blocks) == 1:  # one successor block: no literal matters
            return (), tuple(blocks)
        kept = 0  # a literal is kept when clearing it changes some successor's block
        for i in range(len(lits)):
            bit = 1 << i
            for m, b in at.items():
                if m & bit and b != at[m ^ bit]:
                    kept |= bit
                    break
        if kept == (1 << len(lits)) - 1:  # every literal matters: the whole row
            return lits, tuple(at[m] for m in sorted(at))
        return (tuple(lit for i, lit in enumerate(lits) if kept >> i & 1),
                tuple(b for m, b in sorted(at.items()) if not m & ~kept))

    rows = {q: (lits, dfa.table[q]) for q, lits in dfa.lits.items()}
    block = coarsest_partition({q: (q in dfa.accepting, q in dfa.flagged) for q in dfa.states},
                               rows, read)
    if _discrete(block):
        return DFA(states=list(dfa.states), initial=dfa.initial, accepting=dfa.accepting,
                   signed=dfa.signed, lits=dfa.lits, table=dfa.table, flagged=dfa.flagged)

    # Blocks are numbered 0, 1, ... by their first state, which represents them.
    rep: dict[int, int] = {}
    for q in dfa.states:
        rep.setdefault(block[q], q)
    return DFA(states=list(rep), initial=block[dfa.initial],
               accepting=frozenset(block[q] for q in dfa.accepting), signed=dfa.signed,
               lits={b: dfa.lits[q] for b, q in rep.items()},
               table={b: {bits: block[dst] for bits, dst in dfa.table[q].items()}
                      for b, q in rep.items()},
               flagged=frozenset(block[q] for q in dfa.flagged))


def product_successors(a: DFA, s: int, b: DFA, v: int) -> set[tuple[int, int]]:
    """The distinct successor pairs of the product state ``(s, v)`` under
    every consistent event over the union of the two states' literals.

    When either row has one distinct successor, every pair of their
    successors is reached: an event can agree with any mask of one row and
    any mask of the other.  When both read the same literal tuple, as two
    states of one monitor often do, each consistent mask over it gives one
    pair, zipped from the two rows.  Otherwise a choice over the names both
    rows read picks none of a name's literals or one of them
    (``_joined_rows``); the two rows' private names never conflict, so each
    choice contributes the cross product of the successors each row reaches
    under it, and rows that share no name make one empty choice.  The
    choices are walked as every choice over one half of the shared names
    joined with every choice over the other half, so only two lists of
    about the square root of their number are held.
    """
    row_a, row_b = a.table[s], b.table[v]
    succ_a, succ_b = set(row_a.values()), set(row_b.values())
    lits_a, lits_b = a.lits[s], b.lits[v]
    if len(succ_a) == 1 or len(succ_b) == 1:
        return {(p, q) for p in succ_a for q in succ_b}
    if lits_a == lits_b:  # both rows map exactly the consistent masks over them
        return {(dst, row_b[bits]) for bits, dst in row_a.items()}
    joint, leaves_a, leaves_b = _joined_rows(a, s, b, v)
    options = list(joint.values())
    half = len(options) // 2
    head, tail = _choices(options[:half]), _choices(options[half:])
    return {(p, q) for x, y in head for u, w in tail
            for p in leaves_a[x | u] for q in leaves_b[y | w]}


def _choices(options: list) -> list[tuple[int, int]]:
    """Every consistent choice over the names whose ``options`` are given,
    as the pair of the two rows' masks over them."""
    choices = [(0, 0)]
    for opts in options:
        choices = [(x | p, y | q) for x, y in choices for p, q in opts]
    return choices


def _joined_rows(a: DFA, s: int, b: DFA, v: int) -> tuple[dict, dict, dict]:
    """The two rows joined on the names both read, not on shared literal
    bits: one row may list only ``n=1`` and the other only ``n=0``, and no
    consistent event sets both.  Returns, per shared name, its choices as
    the pair of bits they set in each row (none set, or one literal, set in
    whichever rows list it), and per row its leaves: the successors over
    its private names, by the part of the mask over its shared names."""
    la, lb = a.lits[s], b.lits[v]
    name_a, name_b = _names(la), _names(lb)
    in_b = set(name_b)
    joint = {n: [(0, 0)] for n in name_a if n in in_b}
    bit_a = {lit: 1 << i for i, (lit, n) in enumerate(zip(la, name_a)) if n in joint}
    bit_b = {lit: 1 << j for j, (lit, n) in enumerate(zip(lb, name_b)) if n in joint}
    names = dict(zip(la, name_a)) | dict(zip(lb, name_b))
    for lit in bit_a | bit_b:
        joint[names[lit]].append((bit_a.get(lit, 0), bit_b.get(lit, 0)))
    return (joint, _leaves(a.table[s], sum(bit_a.values())),
            _leaves(b.table[v], sum(bit_b.values())))


def _leaves(row: dict[int, int], shared: int) -> dict[int, set[int]]:
    """The row's successors grouped by the part of the mask over ``shared``."""
    leaves: dict[int, set[int]] = {}
    for bits, dst in row.items():
        leaves.setdefault(bits & shared, set()).add(dst)
    return leaves
