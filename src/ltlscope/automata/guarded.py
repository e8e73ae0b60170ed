"""Nondeterministic guarded automata (NBA and NFA stages).

Transitions carry symbolic guards instead of letters from the (astronomically
large) powerset alphabet.  A guard requires some literals to be present in the
event and forbids others; literals the guard does not mention are ignored.
A guard is a pair of int masks over the automaton's literal table, the
literals it requires and those it forbids: bit ``i`` stands for
``literals[i]``, and the table is in ``str`` order, the order of a DFA
state's literals.  An event is matched by its own mask over the table
(``valuation_bits``).

The NBA is transition-based: its states are the tableau's obligation sets,
and each edge carries acceptance marks, bit ``k`` for the ``k``-th Until.
The NFA is the same object: emptiness fills its accepting states in place.
"""

from __future__ import annotations

from dataclasses import dataclass

Edge = tuple[int, int, int, int]  # (require mask, forbid mask, marks, target)


def bit_positions(mask: int) -> tuple[int, ...]:
    """Positions of the set bits, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def valuation_bits(lits: tuple, event) -> int:
    """The mask of ``event`` over ``lits``; other literals are ignored."""
    bits = 0
    for i, lit in enumerate(lits):
        if lit in event:
            bits |= 1 << i
    return bits


@dataclass
class GuardedAutomaton:
    """NBA and NFA in one object: a state set and guarded transitions, each
    an ``Edge``.  The NBA reads the marks and ``acceptance``, one bit per
    Until: a run is accepted when the marks of the edges it takes
    infinitely often cover it together, so 0 accepts every infinite run.
    The NFA reads ``accepting``, the states that accept a finite word
    ending there: the tableau leaves it empty and emptiness fills it in
    place.  ``flagged`` marks the states from which the all-empty word is
    Büchi accepted; only a signed monitor's pipeline fills it in.
    ``initial`` holds one state per root, in the roots' order: a monitor's
    automaton has two, its satisfaction and its violation branch, and
    membership reads them together.
    """

    states: list[int]
    initial: tuple[int, ...]
    transitions: dict[int, list[Edge]]
    signed: bool  # signed literals (open world) vs plain atoms (closed world)
    literals: tuple = ()  # the literal table, in ``str`` order
    acceptance: int = 0
    accepting: frozenset[int] = frozenset()
    flagged: frozenset[int] = frozenset()
