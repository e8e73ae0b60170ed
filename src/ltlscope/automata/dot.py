"""Graphviz DOT rendering of guarded automata and Moore machines."""

from __future__ import annotations

from .guarded import GuardedAutomaton
from .moore import MooreMachine
from .pipeline import DFA, check_row, literal_order


def automaton_to_dot(aut) -> str:
    lines = ["digraph automaton {", "  rankdir=LR;", "  node [shape=circle];"]
    for q in aut.states:
        shape = "doublecircle" if q in aut.accepting else "circle"
        lines.append(f'  q{q} [shape={shape}, label="{q}"];')
    initial = aut.initial if isinstance(aut, GuardedAutomaton) else frozenset({aut.initial})
    for q in sorted(initial):
        lines.append(f"  __start{q} [shape=point];")
        lines.append(f"  __start{q} -> q{q};")
    for src in aut.states:
        if isinstance(aut, DFA):
            edges = aut.guard_edges(src)
        else:
            edges = [(aut.guard(require, forbid), dst)
                     for require, forbid, _, dst in aut.transitions.get(src, ())]
        for guard, dst in edges:
            lines.append(f'  q{src} -> q{dst} [label="{_escape(str(guard))}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def moore_to_dot(machine: MooreMachine) -> str:
    """One edge per consistent event over the union of the components'
    literals in each state.  A union whose row would exceed the synthesis
    row bound raises ``TooWideError`` before any edge is drawn."""
    ids = {state: i for i, state in enumerate(machine.states)}
    a, b = machine.components
    for s, v in ids:
        check_row(literal_order({*a.lits[s], *b.lits[v]}), machine.signed, "a product state")
    lines = ["digraph monitor {", "  rankdir=LR;", "  node [shape=box];"]
    for state, i in ids.items():
        verdict = machine.output(state)
        label = ",".join(map(str, state))
        lines.append(f'  s{i} [label="({label})\\n{_escape(verdict.symbol)}"];')
    init = ids[machine.initial]
    lines.append("  __start [shape=point];")
    lines.append(f"  __start -> s{init};")
    for state, i in ids.items():
        for guard, target in machine.transitions(state):
            lines.append(f'  s{i} -> s{ids[target]} [label="{_escape(str(guard))}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
