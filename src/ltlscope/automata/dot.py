"""Graphviz DOT rendering of guarded automata and Moore machines.

An edge is labelled with its guard, a pair of masks over a literal table:
the literals it requires, then the literals it forbids, negated, each part
in ``str`` order, or ``true`` when it reads none."""

from __future__ import annotations

from .guarded import GuardedAutomaton, bit_positions, valuation_bits
from .moore import MooreMachine
from .pipeline import DFA, check_row, consistent_masks, literal_order, mask_event


def automaton_to_dot(aut) -> str:
    lines = ["digraph automaton {", "  rankdir=LR;", "  node [shape=circle];"]
    for q in aut.states:
        shape = "doublecircle" if q in aut.accepting else "circle"
        lines.append(f'  q{q} [shape={shape}, label="{q}"];')
    initial = set(aut.initial) if isinstance(aut, GuardedAutomaton) else {aut.initial}
    for q in sorted(initial):
        lines.append(f"  __start{q} [shape=point];")
        lines.append(f"  __start{q} -> q{q};")
    for src in aut.states:
        if isinstance(aut, DFA):  # one edge per mask: it requires what it sets
            lits, row = aut.lits[src], aut.table[src]
            full = (1 << len(lits)) - 1
            edges = [(bits, full ^ bits, row[bits]) for bits in sorted(row)]
        else:
            lits = aut.literals
            edges = [(require, forbid, dst)
                     for require, forbid, _, dst in aut.transitions.get(src, ())]
        for require, forbid, dst in edges:
            lines.append(f'  q{src} -> q{dst} [label="{_label(lits, require, forbid)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def moore_to_dot(machine: MooreMachine) -> str:
    """One edge per consistent event over the union of the components'
    literals in each state, in mask order.  A union whose row would exceed
    the synthesis row bound raises ``TooWideError`` before any edge is
    drawn.  The unions' masks are built for this call only and kept out of
    the ``consistent_masks`` cache, and each event is valued over each
    component's own literals and read from its row, so the export leaves the
    components' ``successors`` memos as it found them."""
    ids = {state: i for i, state in enumerate(machine.states)}
    a, b = machine.components
    unions = {(s, v): literal_order({*a.lits[s], *b.lits[v]}) for s, v in ids}
    for lits in unions.values():
        check_row(lits, "a product state")
    lines = ["digraph monitor {", "  rankdir=LR;", "  node [shape=box];"]
    for state, i in ids.items():
        verdict = machine.output(state)
        label = ",".join(map(str, state))
        lines.append(f'  s{i} [label="({label})\\n{_escape(verdict.symbol)}"];')
    init = ids[machine.initial]
    lines.append("  __start [shape=point];")
    lines.append(f"  __start -> s{init};")
    for (s, v), i in ids.items():
        lits = unions[s, v]
        full = (1 << len(lits)) - 1
        for bits in consistent_masks.__wrapped__(lits):
            event = mask_event(lits, bits)
            target = ids[a.table[s][valuation_bits(a.lits[s], event)],
                         b.table[v][valuation_bits(b.lits[v], event)]]
            lines.append(f'  s{i} -> s{target} [label="{_label(lits, bits, full ^ bits)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _label(lits: tuple, require: int, forbid: int) -> str:
    """The escaped label of the guard that requires and forbids the
    literals of ``lits`` the two masks set."""
    parts = sorted(str(lits[i]) for i in bit_positions(require))
    parts += sorted(f"!{lits[i]}" for i in bit_positions(forbid))
    return _escape(" & ".join(parts) or "true")


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
