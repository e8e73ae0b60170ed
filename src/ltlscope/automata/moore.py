"""Moore-machine products of the prefix DFAs.

The product of the satisfaction and violation DFAs implements the classic
three-valued monitor over plain events.  Over signed events the same product
also reads the DFAs' flags, which say whether the prefix continued by empty
events forever satisfies the branch formula.  Signed formulas are monotone
in the information order and the all-empty continuation lies below every
other, so a prefix can still end forever undefined exactly when neither
branch is flagged.  The three memberships classify each state into the
six-valued outcome set.  Two membership combinations are impossible by
construction; reaching one is asserted as a pipeline bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .pipeline import DFA, MEMO_LIMIT, product_successors


class Verdict(Enum):
    TRUE = "TRUE"
    FALSE = "FALSE"
    UU = "UU"
    UNKNOWN = "UNKNOWN"
    UNKNOWN_NOT_FALSE = "UNKNOWN_NOT_FALSE"
    UNKNOWN_NOT_TRUE = "UNKNOWN_NOT_TRUE"

    @property
    def symbol(self) -> str:
        return _SYMBOLS[self]

    @property
    def final(self) -> bool:
        return self in (Verdict.TRUE, Verdict.FALSE, Verdict.UU)

    def __str__(self) -> str:
        return self.symbol


_SYMBOLS = {
    Verdict.TRUE: "⊤",
    Verdict.FALSE: "⊥",
    Verdict.UU: "uu",
    Verdict.UNKNOWN: "?",
    Verdict.UNKNOWN_NOT_FALSE: "?≁⊥",
    Verdict.UNKNOWN_NOT_TRUE: "?≁⊤",
}

# Allowed evolutions under the refinement order: once a side of the verdict
# is settled it can never be contradicted.
REFINEMENTS: dict[Verdict, frozenset[Verdict]] = {
    Verdict.TRUE: frozenset({Verdict.TRUE}),
    Verdict.FALSE: frozenset({Verdict.FALSE}),
    Verdict.UU: frozenset({Verdict.UU}),
    Verdict.UNKNOWN: frozenset(Verdict),
    Verdict.UNKNOWN_NOT_FALSE: frozenset({Verdict.UNKNOWN_NOT_FALSE, Verdict.TRUE, Verdict.UU}),
    Verdict.UNKNOWN_NOT_TRUE: frozenset({Verdict.UNKNOWN_NOT_TRUE, Verdict.FALSE, Verdict.UU}),
}


class ImpossibleStateError(AssertionError):
    """A membership combination excluded by construction was reached."""


_SIX_WAY = {
    (True, False, False): Verdict.TRUE,
    (False, True, False): Verdict.FALSE,
    (False, False, True): Verdict.UU,
    (True, False, True): Verdict.UNKNOWN_NOT_FALSE,
    (False, True, True): Verdict.UNKNOWN_NOT_TRUE,
    (True, True, True): Verdict.UNKNOWN,
}


def classify3(in_sat: bool, in_viol: bool, in_und: bool) -> Verdict:
    """Six-way classification of membership in the three prefix languages."""
    key = (in_sat, in_viol, in_und)
    try:
        return _SIX_WAY[key]
    except KeyError:
        raise ImpossibleStateError(
            f"impossible membership combination {key}: pipeline bug") from None


def classify2(in_sat: bool, in_viol: bool) -> Verdict:
    if in_sat and in_viol:
        return Verdict.UNKNOWN
    if in_sat:
        return Verdict.TRUE
    if in_viol:
        return Verdict.FALSE
    raise ImpossibleStateError(
        "prefix outside both languages in the two-automata product: pipeline bug")


@dataclass
class MooreMachine:
    """Product of the two component DFAs with a verdict per reachable state.

    ``validated`` holds each ``frozenset`` event that
    ``MonitorInstance.step`` has checked against this machine, keyed by
    value, at most ``MEMO_LIMIT`` of them.  Equality alone does not make a
    later event safe: ``frozenset({("p", True)})`` equals and hashes like
    ``frozenset({SLit("p", True)})``, but only the latter is a signed event.
    So a step skips the check for the stored object itself, which callers
    that share their event objects step (``SessionMemo``, the command
    line's trace readers, ``random_plain_trace``), or for an equal event
    whose items are all of the machine's literal type (``SLit`` when
    signed, ``str`` when plain).

    ``steps`` is the machine's one step memo: the (successor, verdict) pair
    of each (state, ``frozenset`` event) that ``step`` has valued on a state
    where a component reads literals, at most ``MEMO_LIMIT`` of them.  An
    event's successor depends only on its value, so equal events share an
    entry, and a shared event object hits it without comparing items.  Both
    memos are no part of the machine's value: they are left out of equality
    and ``repr`` and never serialised.
    """

    components: tuple[DFA, DFA]
    initial: tuple[int, int]
    outputs: dict[tuple[int, int], Verdict]
    signed: bool
    validated: dict[frozenset, frozenset] = field(default_factory=dict, compare=False, repr=False)
    steps: dict[tuple[tuple[int, int], frozenset], tuple[tuple[int, int], Verdict]] = field(
        default_factory=dict, compare=False, repr=False)

    @property
    def states(self) -> list[tuple[int, int]]:
        return sorted(self.outputs)

    def output(self, state: tuple[int, int]) -> Verdict:
        return self.outputs[state]

    def step(self, state: tuple[int, int],
             event: frozenset) -> tuple[tuple[int, int], Verdict]:
        """The successor pair of ``state`` on ``event`` and its verdict.  A
        ``frozenset`` event is looked up in ``steps`` first; on a miss, and
        for any other event, such as a ``set``, which cannot key the memo,
        both components step and ``outputs`` gives the verdict.  A pair
        where neither component reads a literal takes one successor on
        every event, so only pairs that read literals are remembered."""
        remember = type(event) is frozenset
        if remember:
            key = (state, event)
            found = self.steps.get(key)
            if found is not None:
                return found
        (a, b), (s, v) = self.components, state
        successor = a.step(s, event), b.step(v, event)
        found = successor, self.outputs[successor]
        if remember and (a.lits[s] or b.lits[v]) and len(self.steps) < MEMO_LIMIT:
            self.steps[key] = found
        return found


def _build_product(a: DFA, b: DFA, classify) -> MooreMachine:
    """Walk the reachable state pairs; ``classify`` maps one to its verdict."""
    initial = (a.initial, b.initial)
    outputs: dict[tuple[int, int], Verdict] = {}

    work = [initial]
    while work:
        state = work.pop()
        if state in outputs:
            continue
        outputs[state] = classify(*state)
        work.extend(target for target in product_successors(a, state[0], b, state[1])
                    if target not in outputs)

    return MooreMachine(components=(a, b), initial=initial,
                        outputs=outputs, signed=a.signed)


def product2(pos: DFA, neg: DFA) -> MooreMachine:
    """Moore machine of the classic three-valued monitor."""
    def classify(p: int, n: int) -> Verdict:
        return classify2(p in pos.accepting, n in neg.accepting)
    return _build_product(pos, neg, classify)


def product3(sat: DFA, viol: DFA) -> MooreMachine:
    """Moore machine of the six-valued imperfect-information monitor: the
    product of the flagged satisfaction and violation DFAs, classified by
    the three memberships (satisfiable, violable, forever-undefinable).

    Building the product eagerly walks every reachable state, so the
    impossible membership combinations are asserted away here and now.
    """
    def classify(s: int, v: int) -> Verdict:
        return classify3(s in sat.accepting, v in viol.accepting,
                         not (s in sat.flagged or v in viol.flagged))
    return _build_product(sat, viol, classify)
