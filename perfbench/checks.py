"""Checks of each workload's outputs against computations made apart from
the synthesis pipeline: the closure oracle, the lasso evaluator, brute-force
knapsack and the refinement order.  They run after the timed region.

Each check returns ``{operation index: reason}`` for the operations whose
output is wrong; an empty dict means every output passed.
"""

from __future__ import annotations

import itertools
import random

from ltlscope.automata.moore import REFINEMENTS, Verdict
from ltlscope.formula import FalseConst, TrueConst, atoms, progress, to_metric_form
from ltlscope.oracle.lasso import LassoWord, eval_lasso
from ltlscope.oracle.verdict import oracle_verdict
from ltlscope.randgen import derive_seed, random_plain_trace
from ltlscope.rational import METRICS, metric, rational_machine
from ltlscope.visibility import (expand_witnesses, explicit_trace,
                                 identity_classes, knowledge_from_event,
                                 visible_trace)

from workloads import POOL

_EPS = 1e-9
_DEFINITE = (Verdict.TRUE, Verdict.FALSE)

# Prefix lengths at which the rover monitors are held to the oracle.  Its
# cost grows with the prefix (a 4000-event prefix costs ~45 s over the seven
# properties), so the checkpoints stay short.
ROVER_CHECKPOINTS = (3, 8, 20)
# Entries of synth-corpus and sessions of metric-sessions held to the oracle,
# drawn from the seed: the closure construction costs up to 2.5 s for one
# size-8 formula, so holding every output to it would dwarf the run.
SYNTH_ORACLE_SAMPLE = 80
METRIC_ORACLE_SAMPLE = 24


def _first_unrefined(initial: Verdict, verdicts) -> int:
    """Index of the first verdict that does not refine its predecessor, or -1."""
    prev = initial
    for t, v in enumerate(verdicts):
        if v not in REFINEMENTS[prev]:
            return t
        prev = v
    return -1


def _initial_verdict(monitor) -> Verdict:
    return monitor.machine.output(monitor.machine.initial)


def _walk(monitor, events) -> tuple[bool, Verdict]:
    """Step a fresh cursor of ``monitor``; did every verdict refine the last?"""
    cursor = monitor.clone()
    cursor.reset()
    verdicts = [cursor.step(e) for e in events]
    return _first_unrefined(_initial_verdict(monitor), verdicts) < 0, cursor.verdict


def _best_selection(payoffs: dict[str, float], costs, bound: int) -> float:
    """Highest total payoff of any class set within the budget."""
    best = 0.0
    ids = sorted(payoffs)
    for n in range(len(ids) + 1):
        for subset in itertools.combinations(ids, n):
            if sum(costs[c] for c in subset) <= bound:
                best = max(best, sum(payoffs[c] for c in subset))
    return best


def _selection_error(residual, classes, broken, costs, bound, spec) -> str | None:
    pays = {c.canonical_id: sum(metric(residual, a, spec) for a in sorted(c.members))
            for c in classes if not c.is_singleton}
    spent = sum(costs[c] for c in broken)
    if spent > bound:
        return f"broke {sorted(broken)} at cost {spent} over budget {bound}"
    got = sum(pays[c] for c in broken)
    best = _best_selection(pays, costs, bound)
    if got < best - _EPS:
        return f"broke {sorted(broken)} for payoff {got}, brute force finds {best}"
    return None


def check_synth(w, results) -> dict[int, str]:
    """Per entry, on a seeded plain prefix of 1-6 events: both monitors'
    verdicts only refine; a standard ⊤/⊥ agrees with the lasso evaluator
    on seeded continuations; a definite imperfect verdict equals the
    standard one (Lemma 2).  On a seeded sample of entries within the
    oracle's guard rail (3 atoms, 6 events) the imperfect verdict equals
    the oracle's."""
    bad: dict[int, str] = {}
    sample = set(random.Random(derive_seed(w.seed, 9)).sample(range(len(results)),
                                                              SYNTH_ORACLE_SAMPLE))
    for i, ((f, classes), result) in enumerate(zip(w.corpus, results)):
        if result is None:
            continue
        imperfect, standard = result
        rng = random.Random(derive_seed(w.seed, 8, i))
        trace = random_plain_trace(rng, rng.randint(1, 6), POOL)
        ok, std = _walk(standard, trace)
        if not ok:
            bad[i] = "standard verdict left the refinement order"
            continue
        if std in _DEFINITE:
            for _ in range(3):
                stem = tuple(trace) + tuple(random_plain_trace(rng, rng.randint(0, 3), POOL))
                loop = tuple(random_plain_trace(rng, rng.randint(1, 3), POOL))
                if eval_lasso(f, LassoWord(stem, loop)) != (std is Verdict.TRUE):
                    bad[i] = f"standard {std.name} contradicted by the lasso evaluator"
                    break
            if i in bad:
                continue
        visible = visible_trace(explicit_trace(trace, POOL), classes, ())
        ok, imp = _walk(imperfect, visible)
        if not ok:
            bad[i] = "imperfect verdict left the refinement order"
        elif imp in _DEFINITE and imp != std:
            bad[i] = f"Lemma 2: imperfect {imp.name}, standard {std.name}"
        elif i in sample and len(atoms(f)) <= 3:
            oracle = oracle_verdict(f, classes, visible)
            if oracle.value != imp.value:
                bad[i] = f"imperfect {imp.name}, oracle {oracle.value}"
    return bad


def check_rover(w, results) -> dict[int, str]:
    """Per session: verdicts only refine; at the checkpoints the verdict
    equals the oracle's over identity classes on the decoded visible
    prefix; every window's broken set fits the budget and is
    payoff-optimal against brute force.  A failure counts against the
    window (operation) where it shows.  Also counts the windows whose
    residual was still open (``w.open_windows`` of ``w.windows``)."""
    bad: dict[int, str] = {}
    vspec, cfg = w.vspec, w.cfg
    spec = METRICS[cfg.metric]
    window = cfg.window
    w.windows = w.open_windows = 0
    for (name, f), session in zip(w.props, w.first_sessions):
        run = session.result()
        initial = _initial_verdict(rational_machine(f, vspec.alphabet))
        t = _first_unrefined(initial, run.step_verdicts)
        if t >= 0:
            bad.setdefault(t // window, f"{name}: verdict left the refinement order")
        for cp in ROVER_CHECKPOINTS:
            decoded = [expand_witnesses(e, vspec.classes) for e in run.visible_events[:cp]]
            oracle = oracle_verdict(f, identity_classes(vspec.alphabet), decoded,
                                    bound=0, allow_large=True)
            if oracle.value != run.step_verdicts[cp - 1].value:
                bad.setdefault((cp - 1) // window, f"{name}: {run.step_verdicts[cp - 1].name} "
                                       f"after {cp} events, oracle {oracle.value}")
        residual = to_metric_form(f)
        for k, broken in enumerate(run.broken_per_window):
            if k > 0:
                for event in run.visible_events[(k - 1) * window:k * window]:
                    residual = progress(residual, knowledge_from_event(event, vspec.classes))
                w.windows += 1
            if isinstance(residual, (TrueConst, FalseConst)):
                if broken != run.broken_per_window[k - 1]:
                    bad.setdefault(k, f"{name}: window {k} changed a settled selection")
                continue
            if k > 0:
                w.open_windows += 1
            error = _selection_error(residual, vspec.classes, broken, vspec.costs,
                                     cfg.bound, spec)
            if error:
                bad.setdefault(k, f"{name}: window {k} {error}")
    return bad


def check_metric(w, results) -> dict[int, str]:
    """Every selection is payoff-optimal against brute force; verdicts only
    refine; a seeded sample of final verdicts equals the oracle's; the
    verdict counts of each metric sum to the number of sessions."""
    bad: dict[int, str] = {}
    counts = {m: dict.fromkeys(Verdict, 0) for m in w.METRICS}
    forms = {}
    for k, run in enumerate(results):
        i, cfg, _ = w.sessions[k]
        if run is None:
            continue
        f, vspec = w.formulas[i], w.vspecs[i]
        counts[cfg.metric][run.final] += 1
        form = forms.setdefault(i, to_metric_form(f))
        error = _selection_error(form, vspec.classes, run.broken, vspec.costs,
                                 vspec.bound, METRICS[cfg.metric])
        if error:
            bad[k] = error
        elif _first_unrefined(_initial_verdict(rational_machine(f, vspec.alphabet)),
                              run.step_verdicts) >= 0:
            bad[k] = "verdict left the refinement order"
    sample = random.Random(derive_seed(w.seed, 9)).sample(range(len(results)),
                                                           METRIC_ORACLE_SAMPLE)
    for k in sample:
        run = results[k]
        if run is None or k in bad:
            continue
        i, _, _ = w.sessions[k]
        vspec = w.vspecs[i]
        decoded = [expand_witnesses(e, vspec.classes) for e in run.visible_events]
        oracle = oracle_verdict(w.formulas[i], identity_classes(vspec.alphabet), decoded,
                                bound=0, allow_large=True)
        if oracle.value != run.final.value:
            bad[k] = f"final {run.final.name}, oracle {oracle.value}"
    for m, by_verdict in counts.items():
        sessions = sum(1 for k, s in enumerate(w.sessions)
                       if s[1].metric == m and results[k] is not None)
        if sum(by_verdict.values()) != sessions:
            bad.setdefault(0, f"{m}: verdict counts sum to {sum(by_verdict.values())}, "
                              f"not {sessions}")
    return bad


CHECKS = {"synth-corpus": check_synth, "rover-stream": check_rover,
          "metric-sessions": check_metric}
