"""The three workloads: inputs from a seed, set-up steps and round steps.

Each workload is a closed loop with one caller.  ``setup_steps`` generates
the inputs and builds whatever the timed operations need; ``round_steps``
is one round of operations, the same operations in every round.  Inputs
depend on the seed only, never on the hash seed or on timing.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from ltlscope import casestudy
from ltlscope.automata.pipeline import consistent_masks
from ltlscope.formula import Always, Eventually, Release, Until, subformulas
from ltlscope.monitor import (clear_machine_caches, synthesize_imperfect,
                              synthesize_standard)
from ltlscope.randgen import (derive_seed, experiment_visibility,
                              random_formula, random_partition,
                              random_plain_trace)
from ltlscope.rational import (RationalConfig, ReactiveSession, active_monitor,
                               rational_machine)

POOL = ("p", "q", "r", "s")

Steps = tuple[int, Callable[[int], object], Optional[Callable[[], None]]]


def clear_caches() -> None:
    """Forget every machine and valuation table the program memoised."""
    clear_machine_caches()
    rational_machine.cache_clear()
    consistent_masks.cache_clear()


_SYNTHESIS = frozenset({"automata.tableau", "automata.quotient", "automata.emptiness",
                        "automata.determinize", "automata.minimize", "automata.product",
                        "formula.signed_triple"})
_STEPPING = frozenset({"visibility.explicit", "visibility.visible", "visibility.expand",
                       "monitor.step", "monitor.moore_step", "rational.session_init",
                       "rational.metric", "rational.knapsack", "formula.metric_form"})


class Workload:
    name = ""
    ops_per_round = 0
    layers: frozenset[str] = frozenset()  # spans a traced pass must see

    def __init__(self, seed: int):
        self.seed = seed

    @property
    def tail_quantile(self) -> float:
        """The highest quantile with at least ten samples of one round
        beyond it."""
        return 1.0 - 10.0 / self.ops_per_round

    def setup_steps(self) -> Steps:
        raise NotImplementedError

    def round_steps(self) -> Steps:
        raise NotImplementedError

    def signature(self, result) -> object:
        """What must repeat exactly when the same operation runs again."""
        return result

    def machine_states(self) -> int:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# synth-corpus
# ---------------------------------------------------------------------------

def temporal_operators(f) -> int:
    return sum(1 for g in subformulas(f)
               if isinstance(g, (Until, Release, Eventually, Always)))


def _body_draws(seed: int, quotas: dict[tuple[int, int], int]) -> list:
    """For each (size, k) in ``quotas``, that many draws of a formula of that
    size and a partition, from a stream of their own, keeping those with
    ``k`` temporal operators: criterion 6's draw conditioned on both."""
    out = []
    for (size, k), n in quotas.items():
        rng = random.Random(derive_seed(seed, 6, size, k))
        while n:
            f = random_formula(rng, size, POOL)
            classes = random_partition(rng, POOL)
            if temporal_operators(f) == k:
                out.append((f, classes))
                n -= 1
    return out


def _panel_draws(seed: int, quotas: dict[int, int]) -> list:
    """For each ``k`` in ``quotas``, the first ``quotas[k]`` criterion-6 draws
    from ``seed`` with ``k`` temporal operators."""
    rng = random.Random(seed)
    need = dict(quotas)
    found: dict[int, list] = {k: [] for k in quotas}
    while any(need.values()):
        f = random_formula(rng, rng.randint(1, 8), POOL)
        classes = random_partition(rng, POOL)
        k = temporal_operators(f)
        if need.get(k):
            found[k].append((f, classes))
            need[k] -= 1
    return [e for k in quotas for e in found[k]]


class SynthCorpus(Workload):
    """Cold synthesis of a corpus drawn as in criterion 6:
    ``synthesize_imperfect`` and ``synthesize_standard`` per entry, with the
    machine caches cleared first.

    Synthesis cost grows steeply with the number of temporal operators
    (U, R, F, G): the median entry takes a few milliseconds, while some
    draws with six or more take over 20 s.  A fully seeded draw gives every
    seed its own handful of costly entries, and throughput moved between
    66/s and 157/s over five seeds.  The corpus therefore has two parts.
    The body is drawn from the run's seed and holds the cheap entries:
    ``BODY`` gives, per (size, temporal operators) with at most one
    temporal operator, how many, in the proportions of criterion 6's draw.
    The panel is drawn from ``PANEL_SEED``, the same for every run, and
    holds the costly entries: ``PANEL`` gives how many with two to four
    temporal operators, fewer of the costlier kinds so that a round stays
    short.  The panel sets the tail and most of the time.  Draws with five
    or more temporal operators (5.8% of criterion 6's draws) are left out:
    one of them can outlast a run.
    """

    name = "synth-corpus"
    BODY = {(1, 0): 45, (1, 1): 35, (2, 0): 24, (2, 1): 39, (3, 0): 14, (3, 1): 32,
            (4, 0): 8, (4, 1): 24, (5, 0): 4, (5, 1): 17, (6, 0): 2, (6, 1): 12,
            (7, 0): 1, (7, 1): 8, (8, 0): 1, (8, 1): 4}
    PANEL = {2: 40, 3: 16, 4: 8}
    PANEL_SEED = 20240817
    ops_per_round = sum(BODY.values()) + sum(PANEL.values())
    layers = _SYNTHESIS

    def _generate(self) -> None:
        self.corpus = (_body_draws(self.seed, self.BODY)
                       + _panel_draws(self.PANEL_SEED, self.PANEL))

    def setup_steps(self) -> Steps:
        return 1, lambda _i: self._generate(), None

    def round_steps(self) -> Steps:
        def step(i: int):
            f, classes = self.corpus[i]
            clear_machine_caches()
            return synthesize_imperfect(f, classes), synthesize_standard(f)
        return self.ops_per_round, step, consistent_masks.cache_clear

    def signature(self, result) -> object:
        imperfect, standard = result
        return len(imperfect.machine.outputs), len(standard.machine.outputs)

    def machine_states(self) -> int:
        return sum(sum(self.signature(r)) for r in self.first_results)


# ---------------------------------------------------------------------------
# rover-stream
# ---------------------------------------------------------------------------

_BARRELS = frozenset({"b1", "b2", "b3"})
STREAM_DENSITY = 0.3


def rover_stream(rng: random.Random, length: int) -> list[frozenset[str]]:
    """Random rover events that settle none of the seven case-study
    properties, so every residual stays open and every window reallocates.

    Each atom is drawn with probability ``STREAM_DENSITY``; then the atoms
    that would complete an F-property or violate a G-property are dropped.
    """
    prev: frozenset[str] = frozenset()
    out = []
    for _ in range(length):
        event = {a for a in casestudy.ALPHABET if rng.random() < STREAM_DENSITY}
        if "g" in event:
            event -= _BARRELS                 # psi2, and phi2's g & b
        else:
            event.discard("mb")               # psi3
        if prev & _BARRELS:
            event.discard("c")                # psi1
        if "c" in prev:
            event.discard("w")                # phi1
        if "c" not in prev:
            if "b1" in prev:
                event.discard("b2")           # phi3, first disjunct
            if "b2" in prev:
                event.discard("b3")           # phi3, second disjunct
        prev = frozenset(event)
        out.append(prev)
    return out


class RoverStream(Workload):
    """One seeded rover stream fed event by event to seven reactive
    sessions, one per case-study property, with the case study's classes,
    costs, budget 3 and window 2.

    An operation is one window: its two events through all seven monitors.
    Every second event starts a window and reallocates, so per-event
    latencies split evenly between two modes, and their median would sit
    on the edge of one of them.
    """

    name = "rover-stream"
    ops_per_round = 750
    layers = _SYNTHESIS | _STEPPING | {"visibility.knowledge", "formula.progress"}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.vspec = casestudy.spec()
        self.props = list(casestudy.formulas().items())
        self.cfg = RationalConfig(metric="metric2", bound=casestudy.BOUND,
                                  window=casestudy.WINDOW, seed=0)

    def setup_steps(self) -> Steps:
        def step(i: int):
            if i == 0:
                self.stream = rover_stream(random.Random(derive_seed(self.seed, 7)),
                                           self.ops_per_round * self.cfg.window)
            else:
                rational_machine(self.props[i - 1][1], self.vspec.alphabet)
        return 1 + len(self.props), step, None

    def round_steps(self) -> Steps:
        def prelude():
            self.sessions = [ReactiveSession(f, self.vspec, self.cfg)
                             for _, f in self.props]
            if not hasattr(self, "first_sessions"):
                self.first_sessions = self.sessions

        window = self.cfg.window

        def step(i: int):
            return tuple(tuple(s.step(event) for s in self.sessions)
                         for event in self.stream[i * window:(i + 1) * window])
        return self.ops_per_round, step, prelude

    def machine_states(self) -> int:
        return sum(len(rational_machine(f, self.vspec.alphabet).machine.outputs)
                   for _, f in self.props)


# ---------------------------------------------------------------------------
# metric-sessions
# ---------------------------------------------------------------------------

class MetricSessions(Workload):
    """The metric comparison as ``run_metrics_experiment`` builds it:
    size-4 formulas over ``p q r s``, ``experiment_visibility``, 20 traces
    of 8 events per formula, each run through ``active_monitor`` under
    ``metric0`` and ``metric2``.  Set-up synthesises every machine.

    The formulas are the first ``FORMULAS`` of criterion 10's experiment
    (seed ``FORMULA_SEED``), the same in every run: one size-4 formula in
    twenty has four temporal operators and takes up to 0.7 s, so with
    seeded formulas set-up time moved between 2.8 s and 4.5 s from seed to
    seed.  The run's seed draws each formula's visibility, its traces and
    its knapsack seed, which is all the timed sessions read.
    """

    name = "metric-sessions"
    layers = _SYNTHESIS | _STEPPING
    FORMULAS = 250
    FORMULA_SEED = 20240821
    TRACES = 20
    TRACE_LEN = 8
    METRICS = ("metric0", "metric2")
    ops_per_round = FORMULAS * TRACES * len(METRICS)

    def _generate(self) -> None:
        seed = self.seed
        self.formulas = []
        self.vspecs = []
        self.traces = []
        self.sessions = []  # (formula index, cfg, trace index)
        for i in range(self.FORMULAS):
            self.formulas.append(random_formula(
                random.Random(derive_seed(self.FORMULA_SEED, 1, i)), 4))
            self.vspecs.append(experiment_visibility(random.Random(derive_seed(seed, 2, i))))
            self.traces.append([
                random_plain_trace(random.Random(derive_seed(seed, 3, i, j)), self.TRACE_LEN)
                for j in range(self.TRACES)])
            for metric_name in self.METRICS:
                cfg = RationalConfig(metric=metric_name, bound=self.vspecs[i].bound,
                                     seed=derive_seed(seed, 4, i))
                self.sessions.extend((i, cfg, j) for j in range(self.TRACES))

    def setup_steps(self) -> Steps:
        def step(i: int):
            if i == 0:
                self._generate()
            else:
                rational_machine(self.formulas[i - 1], self.vspecs[i - 1].alphabet)
        return 1 + self.FORMULAS, step, None

    def round_steps(self) -> Steps:
        def step(k: int):
            i, cfg, j = self.sessions[k]
            return active_monitor(self.traces[i][j], self.formulas[i], self.vspecs[i], cfg)
        return self.ops_per_round, step, None

    def signature(self, result) -> object:
        return result.final, result.broken, tuple(result.step_verdicts)

    def machine_states(self) -> int:
        machines = {(f, v.alphabet) for f, v in zip(self.formulas, self.vspecs)}
        return sum(len(rational_machine(f, alphabet).machine.outputs)
                   for f, alphabet in machines)


WORKLOADS = {w.name: w for w in (SynthCorpus, RoverStream, MetricSessions)}
