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
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence

from .automata.moore import Verdict
from .formula import (And, Atom, FalseConst, Formula, Implies, Lit, Next, Not,
                      Or, Release, TrueConst, Until, progress, to_metric_form)
from .monitor import MonitorInstance, synthesize_imperfect
from .visibility import (EqClass, VisibilitySpec, expand_witnesses,
                         explicit_trace, identity_classes,
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
# metric3 is an alias of metric2: the appendix weight table that would tell
# them apart went with the body of the paper.
METRICS["metric3"] = METRICS["metric2"]


def _combine(comb: str, left: float, right: float) -> float:
    if comb == "avg":
        return (left + right) / 2.0
    if comb == "max":
        return max(left, right)
    return min(left, right)


def metric(f: Formula, atom: str, spec: MetricSpec) -> float:
    """Relevance of ``atom`` in the metric-form formula, in [0,1]."""
    if isinstance(f, (TrueConst, FalseConst)):
        return 0.0
    if isinstance(f, Atom):
        return 1.0 if f.name == atom else 0.0
    if isinstance(f, Lit):
        return 1.0 if f.lit.name == atom else 0.0
    if isinstance(f, Not):
        return metric(f.operand, atom, spec)
    if isinstance(f, And):
        return _combine(spec.and_comb, metric(f.left, atom, spec), metric(f.right, atom, spec))
    if isinstance(f, Or):
        return _combine(spec.or_comb, metric(f.left, atom, spec), metric(f.right, atom, spec))
    if isinstance(f, Implies):
        return _combine(spec.implies_comb, metric(f.left, atom, spec), metric(f.right, atom, spec))
    if isinstance(f, Next):
        return spec.next_factor * metric(f.operand, atom, spec)
    if isinstance(f, Until):
        wl, wr = spec.until_weights
        return wl * metric(f.left, atom, spec) + wr * metric(f.right, atom, spec)
    if isinstance(f, Release):
        wl, wr = spec.release_weights
        return wl * metric(f.left, atom, spec) + wr * metric(f.right, atom, spec)
    raise TypeError(f"metric expects metric-form input, got {f!r}")


def _payoffs(classes: Iterable[EqClass], form: Formula,
             spec: MetricSpec) -> dict[str, float]:
    return {cls.canonical_id: sum(metric(form, atom, spec) for atom in sorted(cls.members))
            for cls in classes}


def payoff(classes: Sequence[EqClass], f: Formula, spec: MetricSpec) -> dict[str, float]:
    """Expected payoff of breaking each class: sum of its members' metrics."""
    return _payoffs(classes, to_metric_form(f), spec)


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

    # value at each budget: (payoff, atom count, selection)
    best: list[tuple[float, int, frozenset[str]]] = [(0.0, 0, frozenset())] * (bound + 1)
    for cid in items:
        cost = int(costs[cid])
        gain = payoffs[cid]
        size = sizes[cid]
        if cost > bound:
            continue
        updated = list(best)
        for b in range(cost, bound + 1):
            base_pay, base_atoms, base_sel = best[b - cost]
            cand = (base_pay + gain, base_atoms + size, base_sel | {cid})
            cur = updated[b]
            if (cand[0] > cur[0] + _EPS
                    or (abs(cand[0] - cur[0]) <= _EPS and cand[1] > cur[1])):
                updated[b] = cand
        best = updated
    return max(best, key=lambda v: (v[0], v[1]))[2]


@dataclass(frozen=True)
class RationalConfig:
    metric: str = "metric2"
    bound: int = 0
    window: Optional[int] = None
    seed: int = 0

    def metric_spec(self) -> MetricSpec:
        try:
            return METRICS[self.metric]
        except KeyError:
            raise ValueError(f"unknown metric {self.metric!r}") from None


@dataclass(frozen=True, slots=True)
class Allocation:
    """One budget decision: the payoff of breaking each breakable class,
    sorted by class id, and the classes the knapsack chose to break."""

    payoffs: tuple[tuple[str, float], ...]
    selection: frozenset[str]


def allocate(form: Formula, vspec: VisibilitySpec, cfg: RationalConfig) -> Allocation:
    """Score every breakable class on ``form``, already in metric form, and
    break the best ones within the budget."""
    breakable = vspec.breakable
    pays = _payoffs(breakable, form, cfg.metric_spec())
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


# Most entries each dict of a SessionMemo holds; past it, results are
# computed and not kept.
MEMO_LIMIT = 4096


class SessionMemo:
    """What the sessions over one alphabet and class structure computed,
    shared between them: the visible and the decoded form of each (plain
    event, broken classes), the allocation of each (residual, costs,
    config), the metric form of each formula, and the member knowledge each
    visible event carries.  Entries are never mutated, so a run holds
    references to them, not copies: an active run over shared events keeps
    about four objects alive instead of forty, and stepping leaves the
    cyclic collector little to do.  Sessions over one formula start from one
    residual object, whose hash is already cached for the allocation key.
    """

    __slots__ = ("events", "allocations", "forms", "knowledge")

    def __init__(self) -> None:
        self.events: dict = {}
        self.allocations: dict = {}
        self.forms: dict = {}
        self.knowledge: dict = {}


@lru_cache(maxsize=512)
def session_memo(alphabet: frozenset[str], classes: tuple[EqClass, ...]) -> SessionMemo:
    return SessionMemo()


def _remember(memo: dict, key, value) -> None:
    if len(memo) < MEMO_LIMIT:
        memo[key] = value


@lru_cache(maxsize=512)
def rational_machine(f: Formula, alphabet: frozenset[str]) -> MonitorInstance:
    """The visibility-independent machine the rational drivers run.

    Synthesised once per formula over all-singleton classes: the current
    indistinguishability state is not an input, only the events are.
    """
    return synthesize_imperfect(f, identity_classes(alphabet))


class Session:
    """Incremental rational monitor, fed one plain event at a time.

    The budget is allocated before the first event and, with a ``window``,
    again at every window boundary: the formula is revised by progression
    over the window just finished and payoffs are recomputed on the
    residual; the Moore machine itself is never rebuilt.  A residual that
    collapsed to a constant keeps the last allocation and stops decoding
    events: reallocation cannot change a settled verdict.  ``forced_break``
    replaces the first allocation with an exogenous class selection (used to
    reproduce the fixed configurations of the verdict grid).  Decoded events
    and allocations, the formula's metric form and the knowledge each
    visible event carries come from the ``SessionMemo`` of the session's
    classes.
    """

    def __init__(self, f: Formula, vspec: VisibilitySpec, cfg: RationalConfig,
                 window: Optional[int], forced_break: Optional[Iterable[str]] = None):
        if window is not None and window < 1:
            raise ValueError("reactive monitoring needs a positive window")
        self.vspec = vspec
        self.cfg = cfg
        self.window = window
        # The machine first: it refuses a formula too tall for the normal forms.
        self.monitor = rational_machine(f, vspec.alphabet).clone()
        self.monitor.reset()
        self.memo = session_memo(vspec.alphabet, vspec.classes)
        self.residual = self.memo.forms.get(f)
        if self.residual is None:
            self.residual = to_metric_form(f)
            _remember(self.memo.forms, f, self.residual)
        self._costs = frozenset(vspec.costs.items())
        if forced_break is None:
            allocation = self._allocate()
        else:
            allocation = Allocation((), frozenset(forced_break))
        self.allocations = [allocation]
        self.broken = allocation.selection
        self.step_verdicts: list[Verdict] = []
        self.visible_events: list[frozenset] = []

    @property
    def verdict(self) -> Verdict:
        return self.monitor.verdict

    def step(self, plain_event: Iterable[str]) -> Verdict:
        seen = len(self.visible_events)
        if self.window is not None and seen and seen % self.window == 0:
            self._reallocate()
        key = (frozenset(plain_event), self.broken)
        view = self.memo.events.get(key)
        if view is None:
            explicit = explicit_trace([key[0]], self.vspec.alphabet)[0]
            visible = visible_event(explicit, self.vspec.classes, self.broken)
            view = visible, expand_witnesses(visible, self.vspec.classes)
            _remember(self.memo.events, key, view)
        visible, decoded = view
        self.visible_events.append(visible)
        verdict = self.monitor.step(decoded)
        self.step_verdicts.append(verdict)
        return verdict

    def _reallocate(self) -> None:
        allocation = self.allocations[-1]
        if not isinstance(self.residual, _SETTLED):
            known = self.memo.knowledge
            for past in self.visible_events[-self.window:]:
                knowledge = known.get(past)
                if knowledge is None:
                    knowledge = knowledge_from_event(past, self.vspec.classes)
                    _remember(known, past, knowledge)
                self.residual = progress(self.residual, knowledge)
            if not isinstance(self.residual, _SETTLED):
                fresh = self._allocate()
                if fresh != allocation:
                    allocation = fresh
        self.allocations.append(allocation)
        self.broken = allocation.selection

    def _allocate(self) -> Allocation:
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
        super().__init__(f, vspec, cfg, cfg.window)


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
