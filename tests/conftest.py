"""Shared generators, event spaces and reference helpers for the test
suite.  The helpers are the ones only tests need: the plain NNF, the payoff
of each class and the metric with no memo, the prefix NFA of a tableau, and
membership of a finite word in an NFA or a DFA."""

from __future__ import annotations

import itertools
import random

import pytest

from ltlscope.automata.guarded import valuation_bits
from ltlscope.automata.pipeline import DFA, guard_free, nonempty_states
from ltlscope.formula import (Always, And, Atom, Eventually, FalseConst,
                              Implies, Lit, Next, Not, Or, Release, SLit,
                              TrueConst, Until, nnf_pair, postorder,
                              to_metric_form)
from ltlscope.rational import _combine, metric


def to_nnf(f):
    """Push negation to atoms; expand ->, F and G into their core duals."""
    return nnf_pair(f)[0]


def is_nnf(f) -> bool:
    """True when negation occurs only directly above leaves and no derived
    operators remain.  Each distinct subformula is visited once."""
    for g in postorder(f):
        if isinstance(g, (Implies, Eventually, Always)):
            return False
        if isinstance(g, Not) and not isinstance(g.operand, (Atom, Lit)):
            return False
    return True


def payoff(classes, f, spec) -> dict[str, float]:
    """Expected payoff of breaking each class: the sum of its members'
    metrics on the metric form of ``f``, as ``allocate`` scores it."""
    form = to_metric_form(f)
    return {cls.canonical_id: sum(metric(form, atom, spec) for atom in sorted(cls.members))
            for cls in classes}


def reference_metric(f, atom, spec) -> float:
    """The payoff metric as one fold over the distinct nodes of ``f`` that
    keeps nothing between calls: every call scores every node."""
    value = {}
    for g in postorder(f):
        kind = type(g)
        if kind is And:
            v = _combine(spec.and_comb, value[g.left], value[g.right])
        elif kind is Or:
            v = _combine(spec.or_comb, value[g.left], value[g.right])
        elif kind is Implies:
            v = _combine(spec.implies_comb, value[g.left], value[g.right])
        elif kind is Until:
            wl, wr = spec.until_weights
            v = wl * value[g.left] + wr * value[g.right]
        elif kind is Release:
            wl, wr = spec.release_weights
            v = wl * value[g.left] + wr * value[g.right]
        elif kind is Next:
            v = spec.next_factor * value[g.operand]
        elif kind is Not:
            v = value[g.operand]
        elif kind is Atom:
            v = 1.0 if g.name == atom else 0.0
        elif kind is Lit:
            v = 1.0 if g.lit.name == atom else 0.0
        elif kind in (TrueConst, FalseConst):
            v = 0.0
        else:
            raise TypeError(f"metric expects metric-form input, got {g!r}")
        value[g] = v
    return value[f]


def prefix_nfa(aut):
    """The tableau ``aut`` made the prefix NFA in place, as
    ``monitor.subset_dfas`` does before its quotient: on a signed automaton
    the flag pass, then the nonempty states accepting.  Returns ``aut``."""
    if aut.signed:
        aut.flagged = nonempty_states(guard_free(aut.transitions), aut.acceptance)
    aut.accepting = nonempty_states(aut.transitions, aut.acceptance)
    return aut


def successors(aut, state: int, event: frozenset):
    """The targets of the edges of a guarded automaton's ``state`` whose
    guards ``event`` meets."""
    bits = valuation_bits(aut.literals, event)
    for require, forbid, _, dst in aut.transitions.get(state, ()):
        if bits & require == require and not bits & forbid:
            yield dst


def run_prefix(dfa: DFA, events) -> int:
    """The state a DFA reaches on a finite word."""
    q = dfa.initial
    for event in events:
        q = dfa.step(q, event)
    return q


def accepts_prefix(aut, events) -> bool:
    """Membership of a finite word in a DFA, or in an NFA by subset
    simulation."""
    if isinstance(aut, DFA):
        return run_prefix(aut, events) in aut.accepting
    current = set(aut.initial)
    for event in events:
        current = {dst for q in current for dst in successors(aut, q, event)}
        if not current:
            return False
    return bool(current & aut.accepting)


def random_formula(rng: random.Random, size: int, pool=("p", "q", "r", "s")):
    if size <= 0:
        return Atom(rng.choice(pool))
    ctor = rng.choice((Not, Next, Eventually, Always, And, Or, Implies, Until, Release))
    if ctor in (Not, Next, Eventually, Always):
        return ctor(random_formula(rng, size - 1, pool))
    split = rng.randint(0, size - 1)
    return ctor(random_formula(rng, split, pool),
                random_formula(rng, size - 1 - split, pool))


def balanced_conjunction(count: int):
    """``((p0 & p1) & (p2 & p3)) & …``: ``count`` atoms wide, but only about
    log2(count) levels deep."""
    level = [Atom(f"p{i}") for i in range(count)]
    while len(level) > 1:
        level = [And(*level[i:i + 2]) if i + 1 < len(level) else level[i]
                 for i in range(0, len(level), 2)]
    return level[0]


def plain_events(pool=("p", "q")):
    out = []
    for n in range(len(pool) + 1):
        for combo in itertools.combinations(pool, n):
            out.append(frozenset(combo))
    return out


def all_words(events, length):
    return itertools.product(events, repeat=length)


def random_plain_trace(rng: random.Random, length: int, pool=("p", "q", "r", "s")):
    return [frozenset(a for a in pool if rng.random() < 0.5) for _ in range(length)]


def random_signed_event(rng: random.Random, names) -> frozenset[SLit]:
    event = set()
    for name in names:
        roll = rng.random()
        if roll < 1 / 3:
            event.add(SLit(name, True))
        elif roll < 2 / 3:
            event.add(SLit(name, False))
    return frozenset(event)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
