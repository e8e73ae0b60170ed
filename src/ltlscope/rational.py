"""Budget-aware monitors: metric, payoff, knapsack, and the rational session.

The drivers never resynthesise the Moore machine while a trace is running.
One machine is built per formula over the all-singleton class structure, so
it reads individual signed literals only; visibility enters purely through
event filtering, with witness literals decoded into the member knowledge they
carry.  Breaking a class therefore changes what the machine gets to see, not
the machine itself.

One decision is made per window: ``allocate`` scores each breakable class
(the sum of ``metric`` over its members) and ``knapsack`` picks the classes
to break within the budget.  ``Session`` runs it once before the first event
and, with a window, again at every window boundary on the progressed
residual; ``ActiveSession`` is a session without a window, ``ReactiveSession``
one with ``cfg.window``.  ``RationalRun`` records every window's
``Allocation``.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence

from .automata.moore import MEMO_LIMIT, MooreMachine, Verdict
from .formula import (And, Atom, FalseConst, Formula, Implies, Lit, Next, Not,
                      Or, Release, TrueConst, Until, postorder, progress,
                      to_metric_form)
from .monitor import MonitorInstance, synthesize_imperfect
from .visibility import (EqClass, VisibilitySpec, check_breakable, event_set,
                         expand_witnesses, explicit_trace, identity_classes,
                         knowledge_from_event, visible_event)

_EPS = 1e-9
_SETTLED = (TrueConst, FalseConst)


@dataclass(frozen=True)
class MetricSpec:
    """Per-connective weight rules for the atom-relevance metric."""

    name: str
    or_comb: str            # 'avg' | 'max' | 'min'
    and_comb: str
    implies_comb: str
    next_factor: float
    until_weights: tuple[float, float]
    release_weights: tuple[float, float]

    def __post_init__(self):
        for comb in (self.or_comb, self.and_comb, self.implies_comb):
            if comb not in ("avg", "max", "min"):
                raise ValueError(f"unknown combiner {comb!r}")
        if not 0.0 <= self.next_factor <= 1.0:
            raise ValueError("next factor must lie in [0,1]")
        for weights in (self.until_weights, self.release_weights):
            if min(weights) < 0 or sum(weights) > 1.0 + _EPS:
                raise ValueError("until/release weights must be non-negative with sum <= 1")


# metric2 is the headline evaluation; the published walk-through of the
# two-safety-property example only comes out tie-exact with a unit Next
# factor, so that is what metric2 carries here.
METRICS: dict[str, MetricSpec] = {
    "metric0": MetricSpec("metric0", "avg", "min", "avg", 0.1, (0.9, 0.1), (0.9, 0.1)),
    "metric1": MetricSpec("metric1", "avg", "max", "avg", 0.5, (0.3, 0.7), (0.5, 0.5)),
    "metric2": MetricSpec("metric2", "avg", "max", "avg", 1.0, (0.3, 0.7), (0.3, 0.7)),
}


def _combine(comb: str, left: float, right: float) -> float:
    if comb == "avg":
        return (left + right) / 2.0
    if comb == "max":
        return max(left, right)
    return min(left, right)


# The node values of each (atom, metric) kept for the next call: a residual
# that progression grew from the last one scored is scored only on the nodes
# it added.  Every node scored is interned in ``formula`` and never evicted,
# so a table holds at most one float per node that lives anyway; a count
# bound would instead reset the tables on every call once one residual's
# nodes, times the atoms scored, passed it.
_metric_values: dict[tuple[str, MetricSpec], dict[Formula, float]] = {}


def metric(f: Formula, atom: str, spec: MetricSpec) -> float:
    """Relevance of ``atom`` in the metric-form formula, in [0,1].

    Walks the formula without recursion, each distinct node once
    (``postorder``), so a residual of any depth is safe to score.  The node
    values are kept per ``(atom, spec)`` across calls for as long as the
    nodes live, so a node scored before is not walked again and a window
    costs the same at any trace length."""
    value = _metric_values.get((atom, spec))
    if value is None:
        value = _metric_values[atom, spec] = {}
    for g in postorder(f, known=value):
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
        elif kind in _SETTLED:
            v = 0.0
        else:
            raise TypeError(f"metric expects metric-form input, got {g!r}")
        value[g] = v
    return value[f]


def knapsack(payoffs: Mapping[str, float], costs: Mapping[str, int], bound: int,
             sizes: Mapping[str, int], seed: int = 0) -> frozenset[str]:
    """0/1 knapsack over the cost dimension.

    Maximises total payoff; among optima prefers breaking classes with more
    atoms (``sizes``, the member count of each class), then falls back to a
    seeded deterministic order.  Classes with no payoff are never selected:
    leaving them unbroken costs nothing.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    items = [cid for cid in payoffs if payoffs[cid] > _EPS]
    for cid in items:
        cost = costs.get(cid)
        if cost is None:
            raise ValueError(f"missing cost for class {cid!r}")
        if cost != int(cost) or cost < 0:
            raise ValueError(f"cost of {cid!r} must be a non-negative integer")
        if cid not in sizes:
            raise ValueError(f"missing size for class {cid!r}")
    rng = random.Random(seed)
    items.sort()
    rng.shuffle(items)
    # The best (payoff, atom count, selection) within a budget changes only
    # at reachable cost sums, so keep just those steps, ascending; a budget
    # gets the value of the last step at or below it.  Each class merges the
    # steps with a copy of them shifted by its cost.
    steps: list[tuple[int, tuple[float, int, frozenset[str]]]] = [(0, (0.0, 0, frozenset()))]
    for cid in items:
        cost = int(costs[cid])
        gain = payoffs[cid]
        size = sizes[cid]
        ats = [at for at, _ in steps]
        merged = []
        for at in sorted({*ats, *(a + cost for a in ats if a + cost <= bound)}):
            cur = steps[bisect_right(ats, at) - 1][1]
            if at >= cost:
                base_pay, base_atoms, base_sel = steps[bisect_right(ats, at - cost) - 1][1]
                pay = base_pay + gain
                if pay > cur[0] + _EPS or (abs(pay - cur[0]) <= _EPS and base_atoms + size > cur[1]):
                    cur = (pay, base_atoms + size, base_sel | {cid})
            merged.append((at, cur))
        steps = merged
    # The first budget with the best value, as over every budget.
    return max(steps, key=lambda step: step[1][:2])[1][2]


@dataclass(frozen=True)
class RationalConfig:
    """The metric, budget, window and knapsack seed of a rational run.  An
    unknown metric, a window that is not a positive integer and a seed that
    is not an integer raise ``ValueError``; the budget is checked by
    ``VisibilitySpec`` and ``knapsack``."""

    metric: str = "metric2"
    bound: int = 0
    window: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.metric, str) or self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.window is not None and (type(self.window) is not int or self.window < 1):
            raise ValueError(f"reactive monitoring needs a positive window, got {self.window!r}")
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an integer, got {self.seed!r}")

    def metric_spec(self) -> MetricSpec:
        return METRICS[self.metric]


@dataclass(frozen=True, slots=True)
class Allocation:
    """One budget decision: the payoff of breaking each breakable class,
    sorted by class id, and the classes the knapsack chose to break."""

    payoffs: tuple[tuple[str, float], ...]
    selection: frozenset[str]


def allocate(form: Formula, vspec: VisibilitySpec, cfg: RationalConfig) -> Allocation:
    """Score each breakable class by its members' summed metrics on ``form``,
    already in metric form, and break the best ones within the budget."""
    breakable = vspec.breakable
    spec = cfg.metric_spec()
    pays = {cls.canonical_id: sum(metric(form, atom, spec) for atom in sorted(cls.members))
            for cls in breakable}
    sizes = {c.canonical_id: len(c) for c in breakable}
    selection = knapsack(pays, vspec.costs, cfg.bound, sizes, cfg.seed)
    return Allocation(tuple(sorted(pays.items())), selection)


@dataclass(slots=True)
class RationalRun:
    """Outcome of one active or reactive run: one allocation per window, a
    window that repeats the previous decision holding the same object."""

    final: Verdict
    step_verdicts: list[Verdict]
    allocations: list[Allocation]
    visible_events: list[frozenset]

    @property
    def broken_per_window(self) -> list[frozenset[str]]:
        return [a.selection for a in self.allocations]

    @property
    def broken(self) -> frozenset[str]:
        return self.allocations[0].selection if self.allocations else frozenset()


class SessionMemo:
    """What the sessions over one class structure computed, shared between
    them: the visible and the decoded form of each (plain event, broken
    classes), one decoded object per decoded value, the allocation of each
    (residual, costs, config), the metric form of each formula, and the
    residual each (residual, visible event) progresses to.  Entries are
    never mutated, so a run holds references to them, not copies: an active
    run over shared events keeps about four objects alive instead of forty,
    and stepping leaves the cyclic collector little to do.  The metric form
    is kept per formula so that it is built once per formula, not once per
    session.  A reactive run that meets a residual and an event it met
    before progresses without decoding the event or walking the residual;
    one that misses decodes the event's member knowledge afresh
    (``knowledge_from_event``) and progresses, paying only for the nodes the
    window adds.  So its windows cost as little late in a long trace as
    early.  Equal events decoded under different (plain event, broken
    classes) keys are one object (``decoded``), so every session steps the
    same object for a value: the machine finds it in
    ``MooreMachine.validated`` and each component finds it in
    ``DFA.successors`` by identity, comparing no items.  Each dict holds at
    most ``MEMO_LIMIT`` entries.
    """

    __slots__ = ("events", "decoded", "allocations", "forms", "progressions")

    def __init__(self) -> None:
        self.events: dict = {}
        self.decoded: dict = {}
        self.allocations: dict = {}
        self.forms: dict = {}
        self.progressions: dict = {}


@lru_cache(maxsize=512)
def session_memo(classes: tuple[EqClass, ...]) -> SessionMemo:
    return SessionMemo()


def _remember(memo: dict, key, value) -> None:
    if len(memo) < MEMO_LIMIT:
        memo[key] = value


def rational_machine(f: Formula, alphabet: frozenset[str]) -> MonitorInstance:
    """A fresh cursor on the visibility-independent machine the rational
    drivers run.

    The machine is synthesised once per formula over all-singleton
    classes: the current indistinguishability state is not an input, only
    the events are.  The machine is cached, never the cursor, so a caller
    that steps its cursor moves no one else's.  ``cache_info`` and
    ``cache_clear`` are the machine cache's.
    """
    return MonitorInstance(_rational_moore(f, alphabet))


@lru_cache(maxsize=512)
def _rational_moore(f: Formula, alphabet: frozenset[str]) -> MooreMachine:
    return synthesize_imperfect(f, identity_classes(alphabet)).machine


rational_machine.cache_info = _rational_moore.cache_info
rational_machine.cache_clear = _rational_moore.cache_clear


class Session:
    """Incremental rational monitor, fed one plain event at a time.

    The budget is allocated before the first event and, with a ``window``,
    again at every window boundary: the formula is revised by progression
    over the window just finished and payoffs are recomputed on the
    residual; the Moore machine itself is never rebuilt.  A residual that
    collapsed to a constant keeps the last allocation and stops decoding
    events: reallocation cannot change a settled verdict.  A window that
    ends on the residual the current allocation was scored on keeps that
    allocation without a lookup.  ``forced_break`` replaces the first
    allocation with an exogenous class selection (used to reproduce the fixed
    configurations of the verdict grid); it was scored on no residual, so
    the first window boundary allocates.  Decoded events and allocations,
    the formula's metric form and progressed residuals come from the
    ``SessionMemo`` of the session's classes.  A config whose budget differs
    from the spec's raises ``ValueError``.
    """

    def __init__(self, f: Formula, vspec: VisibilitySpec, cfg: RationalConfig,
                 window: Optional[int], forced_break: Optional[Iterable[str]]):
        if cfg.bound != vspec.bound:
            raise ValueError(f"config budget {cfg.bound!r} differs from spec budget "
                             f"{vspec.bound!r}")
        self.vspec = vspec
        self.cfg = cfg
        self.window = window
        # The machine first: it refuses a formula too tall for the normal forms.
        self.monitor = rational_machine(f, vspec.alphabet)
        self.memo = session_memo(vspec.classes)
        self.residual = self.memo.forms.get(f)
        if self.residual is None:
            self.residual = to_metric_form(f)
            _remember(self.memo.forms, f, self.residual)
        self._costs = frozenset(vspec.costs.items())
        self._scored = None  # the residual the current allocation was scored on
        if forced_break is None:
            allocation = self._allocate()
        else:
            forced_break = frozenset(forced_break)
            check_breakable(forced_break, vspec.classes)
            allocation = Allocation((), forced_break)
        self.allocations = [allocation]
        self.broken = allocation.selection
        self.step_verdicts: list[Verdict] = []
        self.visible_events: list[frozenset] = []

    @property
    def verdict(self) -> Verdict:
        return self.monitor.verdict

    def step(self, plain_event: Iterable[str]) -> Verdict:
        """Feed the next event.  An event naming an atom outside the
        alphabet, or a value that is not a set of names (a ``str``, a
        mapping, ``None``: ``event_set``), raises ``ValueError`` and leaves
        the session as it was."""
        event = event_set(plain_event, "atom names")
        seen = len(self.visible_events)
        if not event <= self.vspec.alphabet:
            unknown = sorted(event - self.vspec.alphabet)
            raise ValueError(f"unknown atom(s) {unknown} at position {seen}")
        if self.window is not None and seen and seen % self.window == 0:
            self._reallocate()
        key = (event, self.broken)
        view = self.memo.events.get(key)
        if view is None:
            explicit = explicit_trace([event], self.vspec.alphabet)[0]
            visible = visible_event(explicit, self.vspec.classes, self.broken)
            decoded = expand_witnesses(visible, self.vspec.classes)
            decoded = self.memo.decoded.get(decoded, decoded)
            _remember(self.memo.decoded, decoded, decoded)
            view = visible, decoded
            _remember(self.memo.events, key, view)
        visible, decoded = view
        self.visible_events.append(visible)
        verdict = self.monitor.step(decoded)
        self.step_verdicts.append(verdict)
        return verdict

    def _reallocate(self) -> None:
        allocation = self.allocations[-1]
        if not isinstance(self.residual, _SETTLED):
            memo = self.memo
            residual = self.residual
            for past in self.visible_events[-self.window:]:
                key = (residual, past)
                progressed = memo.progressions.get(key)
                if progressed is None:
                    progressed = progress(residual, knowledge_from_event(past, self.vspec.classes))
                    _remember(memo.progressions, key, progressed)
                residual = progressed
            self.residual = residual
            if residual is not self._scored and not isinstance(residual, _SETTLED):
                fresh = self._allocate()
                if fresh != allocation:
                    allocation = fresh
        self.allocations.append(allocation)
        self.broken = allocation.selection

    def _allocate(self) -> Allocation:
        self._scored = self.residual
        key = (self.residual, self._costs, self.cfg)
        allocation = self.memo.allocations.get(key)
        if allocation is None:
            allocation = allocate(self.residual, self.vspec, self.cfg)
            _remember(self.memo.allocations, key, allocation)
        return allocation

    def result(self) -> RationalRun:
        return RationalRun(final=self.verdict, step_verdicts=list(self.step_verdicts),
                           allocations=list(self.allocations),
                           visible_events=list(self.visible_events))


class ActiveSession(Session):
    """Active monitor: the budget is allocated once, before the first event;
    ``cfg.window`` is ignored."""

    def __init__(self, f: Formula, vspec: VisibilitySpec, cfg: RationalConfig,
                 forced_break: Optional[Iterable[str]] = None):
        super().__init__(f, vspec, cfg, None, forced_break)


class ReactiveSession(Session):
    """Reactive monitor: the budget is reallocated every ``cfg.window`` events."""

    def __init__(self, f: Formula, vspec: VisibilitySpec, cfg: RationalConfig):
        if cfg.window is None:
            raise ValueError("reactive monitoring needs a positive window")
        super().__init__(f, vspec, cfg, cfg.window, None)


def active_monitor(trace: Sequence[Iterable[str]], f: Formula, vspec: VisibilitySpec,
                   cfg: RationalConfig,
                   forced_break: Optional[Iterable[str]] = None) -> RationalRun:
    """Batch form of :class:`ActiveSession` over a whole trace."""
    session = ActiveSession(f, vspec, cfg, forced_break=forced_break)
    for event in trace:
        session.step(event)
    return session.result()


def reactive_monitor(trace: Sequence[Iterable[str]], f: Formula, vspec: VisibilitySpec,
                     cfg: RationalConfig) -> RationalRun:
    """Batch form of :class:`ReactiveSession` over a whole trace."""
    session = ReactiveSession(f, vspec, cfg)
    for event in trace:
        session.step(event)
    return session.result()
