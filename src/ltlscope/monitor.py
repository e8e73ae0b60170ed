"""User-facing monitors.

``synthesize_standard`` builds the classic three-valued monitor over plain
closed-world events.  ``synthesize_imperfect`` builds the six-valued monitor
over signed events: the formula and its negation are translated onto the
signed alphabet of the visibility classes, and each becomes a DFA whose
states are flagged when the prefix, continued by empty events forever,
satisfies the branch formula.  A prefix can still become forever-undefined
exactly when neither branch is flagged, so the Moore product of the two
flagged DFAs assigns one of the six verdicts to every reachable state.
Either monitor runs its two branches through one front end: one tableau,
one emptiness pass and one NFA quotient (``subset_dfas``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .automata.moore import (MEMO_LIMIT, ImpossibleStateError, MooreMachine, Verdict,
                             product2, product3)
from .automata.pipeline import (DFA, TooWideError, check_row, consistent_masks,
                                determinize, guard_free, minimize, nonempty_states,
                                quotient_bisim)
from .automata.tableau import ltl_to_nba
from .formula import (MAX_NESTING, Formula, Lit, SLit, _children, is_atom_name,
                      is_literal_name, nnf_pair, parse_slit)
from .visibility import EqClass, check_consistent, event_set, rendering_map


def subset_dfas(roots: tuple[Formula, ...], signed: bool) -> tuple[DFA, ...]:
    """Run a monitor's pipeline up to the subset construction: one front
    end for all its roots, then one subset DFA per root.

    The front end is one automaton object, the roots' tableau: a
    transition-based generalised NBA over obligation sets with one initial
    state per root, whose marks the NBA reads and whose ``accepting`` set
    the NFA reads.  One emptiness pass over its marks fills that set.  On a
    signed monitor one more, over the edges an empty event can take, fills
    ``flagged`` with the states from which the all-empty word is accepted;
    a plain monitor never reads flags and skips it.  The bisimulation
    quotient returns that object when it merges nothing.  Guards stay int
    masks over the tableau's literal table until the DFA.  Each root's
    subset construction starts from its own quotient state and reads only
    what that state reaches, so it gives the DFA the root would get alone.
    The NBA is neither quotiented nor degeneralised: bisimilar NBA states
    have the same Büchi language, so the NFA quotient merges them anyway.
    Every stage is called through this module's globals.
    """
    aut = ltl_to_nba(roots, signed)
    if signed:
        aut.flagged = nonempty_states(guard_free(aut.transitions), aut.acceptance)
    aut.accepting = nonempty_states(aut.transitions, aut.acceptance)
    nfa = quotient_bisim(aut)
    return tuple(determinize(nfa, root) for root in nfa.initial)


def minimal_dfas(roots: tuple[Formula, ...], signed: bool) -> tuple[DFA, ...]:
    """A monitor's pipeline: the minimal DFA of each root's ``subset_dfas``."""
    return tuple(minimize(dfa) for dfa in subset_dfas(roots, signed))


@dataclass
class MonitorInstance:
    """A Moore machine with a cursor; safe to hand around, not to share."""

    machine: MooreMachine
    current: tuple[int, int] = field(init=False)

    def __post_init__(self):
        self.current = self.machine.initial

    @property
    def mode(self) -> str:
        """'imperfect' over signed events, 'standard' over plain ones."""
        return "imperfect" if self.machine.signed else "standard"

    @property
    def verdict(self) -> Verdict:
        return self.machine.output(self.current)

    def step(self, event) -> Verdict:
        """Move the cursor over one event and return the new verdict.  An
        event is checked by ``encode_event`` the first time this machine
        meets its value; a ``frozenset`` that passed is remembered in
        ``machine.validated``.  A later step skips the check for that very
        object, and for an equal ``frozenset`` whose items are all of the
        machine's literal type (``SLit`` when signed, ``str`` when plain);
        any other value is checked afresh.  The checked event then makes
        one ``MooreMachine.step``, which gives the successor with its
        verdict.  Callers that share one object per event value
        (``SessionMemo``, ``random_plain_trace``, the command line's trace
        readers) hit both this memo and the machine's ``steps`` by
        identity, so they pay for each distinct event once and compare no
        items."""
        machine = self.machine
        if type(event) is not frozenset or machine.validated.get(event) is not event:
            event = self._checked(event)
        self.current, verdict = machine.step(self.current, event)
        return verdict

    def _checked(self, event) -> frozenset:
        """``step``'s check of an event it has not met as this object."""
        machine = self.machine
        validated = machine.validated
        if type(event) is frozenset and event in validated:
            kind = SLit if machine.signed else str
            if all(type(item) is kind for item in event):
                return event
        encoded = self.encode_event(event)
        if encoded is event and len(validated) < MEMO_LIMIT:
            validated[event] = event
        return encoded

    def run(self, trace: Iterable) -> Verdict:
        for event in trace:
            self.step(event)
        return self.verdict

    def reset(self) -> None:
        self.current = self.machine.initial

    def clone(self) -> "MonitorInstance":
        fresh = MonitorInstance(self.machine)
        fresh.current = self.current
        return fresh

    def encode_event(self, event) -> frozenset:
        """The event as a frozenset of literals (``event_set``), each of
        the machine's kind and, when signed, no two signs of one name."""
        signed = self.machine.signed
        what = "signed literals" if signed else "atom names"
        encoded = event_set(event, what)
        for item in encoded:
            if not isinstance(item, SLit if signed else str):
                raise ValueError(f"{self.mode} events are sets of {what}, got {item!r}")
        if signed:
            check_consistent(encoded)
        return encoded


def _check_formula(f: Formula) -> None:
    """Refuse a formula the parser cannot give: one nested deeper than it
    accepts from text, since synthesis work grows with height, or one with
    a signed-literal leaf, which synthesis makes itself from atoms.  One
    walk over the levels of distinct nodes, as ``height`` takes them."""
    level, h = {f}, 0
    while level:
        lit = next((g.lit for g in level if type(g) is Lit), None)
        if lit is not None:
            raise ValueError(f"formula has the signed literal {str(lit)!r}: "
                             "synthesis takes atoms, not literals")
        if h > MAX_NESTING:
            raise ValueError(f"formula nests deeper than {MAX_NESTING} levels")
        level = {child for g in level for child in _children(g)}
        h += 1


@lru_cache(maxsize=4096)
def _standard_machine(f: Formula) -> MooreMachine:
    _check_formula(f)
    return product2(*minimal_dfas(nnf_pair(f), signed=False))


def signed_triple(f: Formula, classes: Sequence[EqClass]) -> tuple[Formula, Formula]:
    """The satisfaction and violation formulas of ``f`` over the signed
    alphabet induced by the classes.

    Only the two branches the product reads are built; the oracle keeps its
    own triple, forever-undefined formula included, so that it shares no
    code with the pipeline.  The name is kept because the benchmark's tracer
    wraps this module attribute by it."""
    return nnf_pair(f, rendering_map(classes))


@lru_cache(maxsize=4096)
def _imperfect_machine(f: Formula, classes: tuple[EqClass, ...]) -> MooreMachine:
    _check_formula(f)
    return product3(*minimal_dfas(signed_triple(f, classes), signed=True))


def synthesize_standard(f: Formula) -> MonitorInstance:
    """Three-valued monitor: product of the satisfaction and violation DFAs
    over plain closed-world events.  The underlying machine is immutable and
    cached; every call hands out a fresh cursor.  A formula nested deeper
    than ``MAX_NESTING``, or with a signed-literal leaf, raises
    ``ValueError``."""
    return MonitorInstance(_standard_machine(f))


def synthesize_imperfect(f: Formula, classes: Sequence[EqClass]) -> MonitorInstance:
    """Six-valued monitor over the signed alphabet of the given classes."""
    return MonitorInstance(_imperfect_machine(f, tuple(classes)))


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


def _automaton_problem(dfa: DFA) -> Optional[str]:
    """Why a component read from a file cannot be stepped, or ``None``: its
    initial state and every table target must be states, a plain state's
    literals must be atom names and a signed state's must name an atom or
    a class witness (``is_literal_name``), each state's literals must be
    distinct and within the synthesis row bound (``check_row``), and its
    row must map every consistent mask over them, and nothing else, to a
    successor."""
    states = set(dfa.states)
    if dfa.initial not in states:
        return f"initial state {dfa.initial!r} is not a state"
    for q in dfa.states:
        if q not in dfa.lits or q not in dfa.table:
            return f"state {q!r} has no literals or no table row"
        lits, row = dfa.lits[q], dfa.table[q]
        for lit in lits:
            if dfa.signed:
                if not is_literal_name(lit.name):
                    return (f"state {q!r}: signed literal {str(lit)!r} names neither "
                            "an atom nor a class witness")
            elif not (isinstance(lit, str) and is_atom_name(lit)):
                return f"state {q!r}: plain literal {lit!r} is not an atom name"
        if len(set(lits)) != len(lits):
            return f"state {q!r} repeats a literal in {[str(l) for l in lits]}"
        for bits, dst in row.items():
            if not 0 <= bits < 1 << len(lits):
                return f"state {q!r}: mask {bits} does not fit its {len(lits)} literal(s)"
            if dst not in states:
                return f"state {q!r}: mask {bits} steps to {dst!r}, which is not a state"
        try:
            check_row(lits, f"state {q!r}")
        except TooWideError as exc:
            return str(exc)
        masks = consistent_masks(lits)
        inconsistent = min(set(row).difference(masks), default=None)
        if inconsistent is not None:
            return f"state {q!r}: mask {inconsistent} sets both signs of one name"
        missing = next((bits for bits in masks if bits not in row), None)
        if missing is not None:
            return f"state {q!r}: mask {missing} has no successor"
    return None


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
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("machine file nests deeper than the recursion limit") from None
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
        problems = [_automaton_problem(c) for c in components]
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"malformed machine component: {exc!r}") from None
    for k, problem in enumerate(problems):
        if problem is not None:
            raise ValueError(f"component {k}: {problem}")
    signed = mode == "imperfect"
    if any(c.signed != signed for c in components):
        want = "signed" if signed else "plain"
        raise ValueError(f"machine file mode {mode!r} needs {want} components")
    try:
        machine = product3(*components) if signed else product2(*components)
    except ImpossibleStateError:
        raise ValueError("machine file reaches a product state that no verdict "
                         "describes: its accepting or flagged states are inconsistent") from None
    return MonitorInstance(machine)


def clear_machine_caches() -> None:
    """Reset the memoised standard, imperfect and rational machines,
    ``session_memo`` and the node memos of ``progress`` and ``metric``
    (benchmarking support).  The node memos have no count bound; apart
    from progression's reset on changed knowledge, this is what empties
    them."""
    from . import formula
    # rational imports this module
    from .rational import _metric_values, rational_machine, session_memo
    _standard_machine.cache_clear()
    _imperfect_machine.cache_clear()
    rational_machine.cache_clear()
    session_memo.cache_clear()
    formula._last_progressed = ({}, {})
    _metric_values.clear()
