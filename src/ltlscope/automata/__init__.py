"""Automata pipeline: tableau, emptiness, determinisation, Moore products."""

from .dot import automaton_to_dot, moore_to_dot
from .guarded import GuardedAutomaton
from .moore import (ImpossibleStateError, MooreMachine, REFINEMENTS, Verdict,
                    classify2, classify3, product2, product3)
from .pipeline import (DFA, consistent_masks, determinize, minimize,
                       nonempty_states, tarjan_sccs)
from .tableau import ltl_to_nba

__all__ = [
    "DFA", "GuardedAutomaton", "ImpossibleStateError", "MooreMachine",
    "REFINEMENTS", "Verdict", "automaton_to_dot", "classify2", "classify3",
    "consistent_masks", "determinize", "ltl_to_nba", "minimize",
    "moore_to_dot", "nonempty_states", "product2", "product3",
    "tarjan_sccs",
]
