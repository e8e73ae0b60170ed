"""Nondeterministic guarded automata (NBA and NFA stages).

Transitions carry symbolic guards instead of letters from the (astronomically
large) powerset alphabet.  A guard requires some literals to be present in the
event and forbids others; literals the guard does not mention are ignored.
The NBA is the tableau graph with generalised Büchi acceptance; the NFA has
the same structure and a set of accepting states for finite words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple


class Guard(NamedTuple):
    """Conjunction of presence requirements and absence requirements."""

    require: frozenset = frozenset()
    forbid: frozenset = frozenset()

    def matches(self, event: frozenset) -> bool:
        return self.require <= event and not (self.forbid & event)

    def mentioned(self) -> frozenset:
        return self.require | self.forbid

    def __str__(self) -> str:
        parts = [str(l) for l in sorted(self.require, key=str)]
        parts += [f"!{l}" for l in sorted(self.forbid, key=str)]
        return " & ".join(parts) if parts else "true"


@dataclass
class GuardedAutomaton:
    """NBA or NFA: a state set and guarded transitions.

    On an NBA, ``acceptance`` holds the generalised Büchi sets: a run is
    accepted when it visits every set infinitely often, so the empty tuple
    accepts every infinite run.  On an NFA, ``accepting`` holds the states
    that accept a finite word ending there.  ``flagged`` marks the states
    from which the all-empty word is Büchi accepted; only the signed branch
    of the pipeline fills it in.
    """

    states: list[int]
    initial: frozenset[int]
    transitions: dict[int, list[tuple[Guard, int]]]
    signed: bool  # signed literals (open world) vs plain atoms (closed world)
    acceptance: tuple[frozenset[int], ...] = ()
    accepting: frozenset[int] = frozenset()
    flagged: frozenset[int] = frozenset()

    def successors(self, state: int, event: frozenset) -> Iterator[int]:
        for guard, dst in self.transitions.get(state, ()):
            if guard.matches(event):
                yield dst

    def accepts_prefix(self, events: Iterable[frozenset]) -> bool:
        """Nondeterministic membership of a finite word (subset simulation)."""
        current = set(self.initial)
        for event in events:
            current = {dst for q in current for dst in self.successors(q, event)}
            if not current:
                return False
        return bool(current & self.accepting)
