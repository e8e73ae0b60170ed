"""Nondeterministic guarded automata (NBA and NFA stages).

Transitions carry symbolic guards instead of letters from the (astronomically
large) powerset alphabet.  A guard requires some literals to be present in the
event and forbids others; literals the guard does not mention are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Guard:
    """Conjunction of presence requirements and absence requirements."""

    require: frozenset = frozenset()
    forbid: frozenset = frozenset()

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.require, self.forbid))
            object.__setattr__(self, "_hash", h)
        return h

    def matches(self, event: frozenset) -> bool:
        return self.require <= event and not (self.forbid & event)

    def mentioned(self) -> frozenset:
        return self.require | self.forbid

    def __str__(self) -> str:
        # Cached like the hash: edge lists are sorted by guard text.
        text = self.__dict__.get("_text")
        if text is None:
            parts = [str(l) for l in sorted(self.require, key=str)]
            parts += [f"!{l}" for l in sorted(self.forbid, key=str)]
            text = " & ".join(parts) if parts else "true"
            object.__setattr__(self, "_text", text)
        return text


@dataclass
class GuardedAutomaton:
    """NBA or NFA: a state set, guarded transitions, one accepting set.

    ``flagged`` marks the states from which the all-empty word is Büchi
    accepted; only the signed branch of the pipeline fills it in.
    """

    kind: str  # 'nba' | 'nfa'
    states: list[int]
    initial: frozenset[int]
    transitions: dict[int, list[tuple[Guard, int]]]
    accepting: frozenset[int]
    signed: bool  # signed literals (open world) vs plain atoms (closed world)
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
