"""User-facing monitors.

``synthesize_standard`` builds the classic three-valued monitor over plain
closed-world events.  ``synthesize_imperfect`` builds the six-valued monitor
over signed events: the formula and its negation are translated onto the
signed alphabet of the visibility classes, and each becomes a DFA whose
states are flagged when the prefix, continued by empty events forever,
satisfies the branch formula.  A prefix can still become forever-undefined
exactly when neither branch is flagged, so the Moore product of the two
flagged DFAs assigns one of the six verdicts to every reachable state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .automata.moore import MooreMachine, Verdict, product2, product3
from .automata.pipeline import (DFA, determinize, empty_event_edges, minimize,
                                nba_to_nfa, nonempty_states, quotient_bisim)
from .automata.tableau import ltl_to_nba
from .formula import (MAX_NESTING, Formula, SLit, height, make_signed, negate_nnf,
                      parse_slit, to_nnf)
from .visibility import EqClass, check_consistent, rendering_map


def formula_to_dfa(f: Formula, signed: bool, minimized: bool = True) -> DFA:
    """Run one branch of the pipeline: the tableau's generalised NBA,
    per-state emptiness, NFA, its bisimulation quotient, DFA and, if
    ``minimized``, the minimal DFA.

    A signed branch also flags the states from which the all-empty word is
    accepted; the plain branch never reads flags and skips that check.  The
    NBA is neither quotiented nor degeneralised: emptiness reads its
    acceptance sets directly, and bisimilar NBA states have the same Büchi
    language, so the NFA quotient merges them anyway.
    """
    nba = ltl_to_nba(f, signed=signed)
    if signed:
        nba = replace(nba, flagged=nonempty_states(empty_event_edges(nba)))
    nfa = quotient_bisim(nba_to_nfa(nba, nonempty_states(nba)))
    dfa = determinize(nfa)
    return minimize(dfa) if minimized else dfa


@dataclass
class MonitorInstance:
    """A Moore machine with a cursor; safe to hand around, not to share."""

    machine: MooreMachine
    mode: str  # 'standard' | 'imperfect'
    current: tuple[int, ...] = field(init=False)
    history_len: int = field(init=False, default=0)

    def __post_init__(self):
        self.current = self.machine.initial

    @property
    def verdict(self) -> Verdict:
        return self.machine.output(self.current)

    def step(self, event) -> Verdict:
        event = self.encode_event(event)
        self.current = self.machine.step(self.current, event)
        self.history_len += 1
        return self.verdict

    def run(self, trace: Iterable) -> Verdict:
        for event in trace:
            self.step(event)
        return self.verdict

    def reset(self) -> None:
        self.current = self.machine.initial
        self.history_len = 0

    def clone(self) -> "MonitorInstance":
        fresh = MonitorInstance(self.machine, self.mode)
        fresh.current = self.current
        fresh.history_len = self.history_len
        return fresh

    def encode_event(self, event) -> frozenset:
        if self.mode == "standard":
            encoded = frozenset(event)
            for name in encoded:
                if not isinstance(name, str):
                    raise ValueError(f"standard events are sets of atom names, got {name!r}")
            return encoded
        encoded = frozenset(event)
        for lit in encoded:
            if not isinstance(lit, SLit):
                raise ValueError(f"imperfect events are sets of signed literals, got {lit!r}")
        check_consistent(encoded)
        return encoded


def _check_height(f: Formula) -> None:
    """Refuse a formula the recursive normal forms cannot take, with the
    limit the parser applies to text."""
    if height(f) > MAX_NESTING:
        raise ValueError(f"formula nests deeper than {MAX_NESTING} levels")


@lru_cache(maxsize=4096)
def _standard_machine(f: Formula, minimized: bool) -> MooreMachine:
    _check_height(f)
    pos = formula_to_dfa(to_nnf(f), signed=False, minimized=minimized)
    neg = formula_to_dfa(negate_nnf(f), signed=False, minimized=minimized)
    return product2(pos, neg)


def signed_triple(f: Formula, classes: Sequence[EqClass]) -> tuple[Formula, Formula]:
    """The satisfaction and violation formulas of ``f`` over the signed
    alphabet induced by the classes.

    Only the two branches the product reads are built; the oracle keeps its
    own triple, forever-undefined formula included, so that it shares no
    code with the pipeline.  The name is kept because the benchmark's tracer
    wraps this module attribute by it."""
    rendering = rendering_map(classes)
    return make_signed(to_nnf(f), rendering), make_signed(negate_nnf(f), rendering)


@lru_cache(maxsize=4096)
def _imperfect_machine(f: Formula, classes: tuple[EqClass, ...],
                       minimized: bool) -> MooreMachine:
    _check_height(f)
    sat, viol = signed_triple(f, classes)
    return product3(formula_to_dfa(sat, signed=True, minimized=minimized),
                    formula_to_dfa(viol, signed=True, minimized=minimized))


def synthesize_standard(f: Formula, minimized: bool = True) -> MonitorInstance:
    """Three-valued monitor: product of the satisfaction and violation DFAs
    over plain closed-world events.  The underlying machine is immutable and
    cached; every call hands out a fresh cursor.  A formula nested deeper
    than ``MAX_NESTING`` raises ``ValueError``."""
    return MonitorInstance(_standard_machine(f, minimized), "standard")


def synthesize_imperfect(f: Formula, classes: Sequence[EqClass],
                         minimized: bool = True) -> MonitorInstance:
    """Six-valued monitor over the signed alphabet of the given classes."""
    return MonitorInstance(_imperfect_machine(f, tuple(classes), minimized), "imperfect")


# ---------------------------------------------------------------------------
# Machine serialisation (reloadable bit-identically)
# ---------------------------------------------------------------------------

# Version of the machine file layout: two components with their flagged
# states.  Files without it (acceptance only, and a third component for
# imperfect machines) cannot be classified and are refused.
MACHINE_FORMAT = 2


def _literal_to_json(lit, signed: bool):
    return str(lit) if signed else lit


def _literal_from_json(raw, signed: bool):
    return parse_slit(raw) if signed else raw


def _automaton_to_json(dfa: DFA) -> dict:
    return {
        "kind": "dfa",
        "signed": dfa.signed,
        "states": sorted(dfa.states),
        "initial": dfa.initial,
        "accepting": sorted(dfa.accepting),
        "flagged": sorted(dfa.flagged),
        "literals": {str(q): [_literal_to_json(l, dfa.signed) for l in dfa.lits[q]]
                     for q in sorted(dfa.states)},
        "table": {str(q): {str(bits): dst for bits, dst in sorted(dfa.table[q].items())}
                  for q in sorted(dfa.states)},
    }


def _automaton_from_json(data: dict) -> DFA:
    signed = data["signed"]
    lits = {int(q): tuple(_literal_from_json(l, signed) for l in row)
            for q, row in data["literals"].items()}
    table = {int(q): {int(bits): dst for bits, dst in row.items()}
             for q, row in data["table"].items()}
    return DFA(
        states=list(data["states"]),
        initial=data["initial"],
        accepting=frozenset(data["accepting"]),
        signed=signed,
        lits=lits,
        table=table,
        flagged=frozenset(data["flagged"]),
    )


def machine_to_json(monitor: MonitorInstance, formula_text: Optional[str] = None,
                    classes_text: Optional[str] = None) -> str:
    payload = {
        "format": MACHINE_FORMAT,
        "mode": monitor.mode,
        "formula": formula_text,
        "classes": classes_text,
        "components": [_automaton_to_json(dfa) for dfa in monitor.machine.components],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def machine_from_json(text: str) -> MonitorInstance:
    """Reload a machine written by ``machine_to_json``.  A file of another
    format, mode or shape raises ``ValueError`` with a one-line reason."""
    payload = json.loads(text)
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != MACHINE_FORMAT:
        raise ValueError(f"machine file format {found!r} is not {MACHINE_FORMAT}; "
                         "synthesize the machine again")
    mode = payload.get("mode")
    if mode not in ("standard", "imperfect"):
        raise ValueError(f"machine file mode {mode!r} is neither 'standard' nor 'imperfect'")
    raw = payload.get("components")
    if not isinstance(raw, list) or len(raw) != 2:
        count = len(raw) if isinstance(raw, list) else 0
        raise ValueError(f"machine file has {count} components, expected 2")
    try:
        components = tuple(_automaton_from_json(c) for c in raw)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"malformed machine component: {exc!r}") from None
    machine = product2(*components) if mode == "standard" else product3(*components)
    return MonitorInstance(machine, mode)


def clear_machine_caches() -> None:
    """Reset the memoised machines and the rational sessions' shared memos
    (benchmarking support)."""
    from .rational import session_memo  # imported here: rational imports this module
    _standard_machine.cache_clear()
    _imperfect_machine.cache_clear()
    session_memo.cache_clear()
