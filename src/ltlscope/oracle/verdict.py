"""Ground-truth six-valued verdicts by continuation analysis.

Memberships of a visible prefix in the three prefix languages (satisfiable,
violable, forever-undefinable continuations) are decided with the closure
machinery instead of the synthesis pipeline, then mapped onto the six
outcomes.  Meant for desk-size instances; a guard rail rejects anything
larger unless explicitly overridden.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Sequence

from ..formula import Formula, _mk_and, atoms, negate_nnf, nnf_pair
from ..visibility import EqClass, rendering_map
from .closure import build_closure_automaton, live_states, prefix_in_language


class OracleVerdict(Enum):
    TRUE = "TRUE"
    FALSE = "FALSE"
    UU = "UU"
    UNKNOWN = "UNKNOWN"
    UNKNOWN_NOT_FALSE = "UNKNOWN_NOT_FALSE"
    UNKNOWN_NOT_TRUE = "UNKNOWN_NOT_TRUE"


_CLASSIFY = {
    (True, False, False): OracleVerdict.TRUE,
    (False, True, False): OracleVerdict.FALSE,
    (False, False, True): OracleVerdict.UU,
    (True, False, True): OracleVerdict.UNKNOWN_NOT_FALSE,
    (False, True, True): OracleVerdict.UNKNOWN_NOT_TRUE,
    (True, True, True): OracleVerdict.UNKNOWN,
}


class InstanceTooLarge(ValueError):
    pass


def signed_triple(f: Formula, classes: Sequence[EqClass]) -> tuple[Formula, Formula, Formula]:
    """The satisfaction, violation and forever-undefined formulas over the
    signed alphabet induced by the classes."""
    sat, viol = nnf_pair(f, rendering_map(classes))
    und = _mk_and(negate_nnf(sat), negate_nnf(viol))
    return sat, viol, und


@lru_cache(maxsize=256)
def _automata_for(f: Formula, classes: tuple[EqClass, ...]):
    sat, viol, und = signed_triple(f, classes)
    out = []
    for formula in (sat, viol, und):
        aut = build_closure_automaton(formula, signed=True)
        out.append((aut, live_states(aut)))
    return tuple(out)


def oracle_verdict(f: Formula, classes: Sequence[EqClass],
                   prefix: Sequence[frozenset], bound: int = 0,
                   allow_large: bool = False) -> OracleVerdict:
    """Classify a visible prefix by direct continuation analysis.

    ``bound`` documents the lasso-length budget the caller derived from the
    pipeline machine; the closure machinery is exact regardless, so the value
    only participates in the guard rail.
    """
    if not allow_large:
        if len(atoms(f)) > 3:
            raise InstanceTooLarge("more than 3 base atoms; pass allow_large to override")
        if len(prefix) > 6:
            raise InstanceTooLarge("prefix longer than 6 events; pass allow_large to override")
        if bound < 0:
            raise InstanceTooLarge("negative bound")
    memberships = tuple(
        prefix_in_language(aut, prefix, live)
        for aut, live in _automata_for(f, tuple(classes))
    )
    try:
        return _CLASSIFY[memberships]
    except KeyError:
        raise AssertionError(
            f"impossible membership combination {memberships} in oracle") from None
