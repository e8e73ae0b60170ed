"""Independent ground-truth engine used to validate the synthesis pipeline."""

from .closure import (ClosureAutomaton, accepts_lasso, build_closure_automaton,
                      live_states, prefix_in_language)
from .lasso import LassoWord, eval_lasso
from .verdict import InstanceTooLarge, OracleVerdict, oracle_verdict, signed_triple

__all__ = [
    "ClosureAutomaton", "InstanceTooLarge", "LassoWord", "OracleVerdict",
    "accepts_lasso", "build_closure_automaton", "eval_lasso", "live_states",
    "oracle_verdict", "prefix_in_language", "signed_triple",
]
