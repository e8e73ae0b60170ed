"""Metric, payoff, knapsack, and the active/reactive drivers."""

import itertools

import pytest

from ltlscope.automata import Verdict
from ltlscope.formula import FALSE, TRUE, parse_formula, progress, to_metric_form
from ltlscope.monitor import clear_machine_caches, synthesize_imperfect
from ltlscope.randgen import random_partition
import ltlscope.rational as rational
from ltlscope.rational import (METRICS, MetricSpec, RationalConfig,
                               ReactiveSession, active_monitor, allocate,
                               knapsack, metric, payoff, reactive_monitor)
from ltlscope.visibility import (VisibilitySpec, explicit_trace,
                                 knowledge_from_event, parse_classes,
                                 visible_trace)

from conftest import random_formula, random_plain_trace

ALPHABET = ("b1", "b2", "b3", "c", "s", "a", "b", "g", "mb", "w")
CLASSES = parse_classes("c~s; a~b~g", ALPHABET)
COSTS = {"cs": 2, "abg": 3}
SIGMA = [set(), {"g", "b1", "c"}, {"g", "c", "mb", "b2"}, {"c"}, {"w"}]

PHI1 = parse_formula("F (c & X w)")
PSI = parse_formula("(G ((b1 | b2 | b3) -> X !c)) | (G (g -> !(b1 | b2 | b3)))")


def vspec(bound=3):
    return VisibilitySpec(alphabet=frozenset(ALPHABET), classes=CLASSES,
                          costs=COSTS, bound=bound)


class TestMetric:
    def test_liveness_cut_relevance(self):
        assert metric(to_metric_form(PHI1), "c", METRICS["metric2"]) == pytest.approx(0.7, abs=1e-12)

    def test_disjoined_safety_relevances(self):
        form = to_metric_form(PSI)
        spec = METRICS["metric2"]
        assert metric(form, "c", spec) == pytest.approx(0.175, abs=1e-9)
        assert metric(form, "g", spec) == pytest.approx(0.175, abs=1e-9)
        for atom in ("s", "a", "b"):
            assert metric(form, atom, spec) == 0.0

    def test_absent_atom_scores_zero(self):
        for spec in METRICS.values():
            assert metric(to_metric_form(PHI1), "mb", spec) == 0.0

    def test_constants_score_zero(self):
        for spec in METRICS.values():
            assert metric(TRUE, "p", spec) == 0.0
            assert metric(FALSE, "p", spec) == 0.0

    def test_range_on_random_formulas(self, rng):
        """Every built-in metric maps into [0,1]."""
        for _ in range(80):
            f = to_metric_form(random_formula(rng, rng.randint(1, 10)))
            for spec in METRICS.values():
                for atom in ("p", "q", "r", "s"):
                    value = metric(f, atom, spec)
                    assert 0.0 <= value <= 1.0

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            MetricSpec("x", "avg", "max", "avg", 1.5, (0.3, 0.7), (0.3, 0.7))
        with pytest.raises(ValueError):
            MetricSpec("x", "oops", "max", "avg", 0.5, (0.3, 0.7), (0.3, 0.7))


class TestPayoff:
    def test_example_liveness(self):
        pays = payoff([c for c in CLASSES if not c.is_singleton], PHI1, METRICS["metric2"])
        assert pays["cs"] == pytest.approx(0.7, abs=1e-12)
        assert pays["abg"] == 0.0

    def test_example_disjoined_safety(self):
        pays = payoff([c for c in CLASSES if not c.is_singleton], PSI, METRICS["metric2"])
        assert pays["cs"] == pytest.approx(0.175, abs=1e-9)
        assert pays["abg"] == pytest.approx(0.175, abs=1e-9)

    def test_formula_without_class_atoms(self):
        f = parse_formula("G (mb -> X w)")
        pays = payoff([c for c in CLASSES if not c.is_singleton], f, METRICS["metric2"])
        assert set(pays.values()) == {0.0}

    def test_allocation_records_the_payoffs_it_selected_on(self):
        cfg = RationalConfig(metric="metric2", bound=3)
        allocation = allocate(to_metric_form(PSI), vspec(), cfg)
        breakable = [c for c in CLASSES if not c.is_singleton]
        assert allocation.payoffs == tuple(sorted(
            payoff(breakable, PSI, METRICS["metric2"]).items()))
        assert [cid for cid, _ in allocation.payoffs] == ["abg", "cs"]
        assert allocation.selection == frozenset({"abg"})

    def test_metric3_is_metric2(self):
        assert METRICS["metric3"] is METRICS["metric2"]


class TestKnapsack:
    def test_liveness_pick(self):
        assert knapsack({"cs": 0.7, "abg": 0.0}, COSTS, 3, {"cs": 2, "abg": 3}) \
            == frozenset({"cs"})

    def test_tie_prefers_larger_class(self):
        assert knapsack({"cs": 0.175, "abg": 0.175}, COSTS, 3, {"cs": 2, "abg": 3}) \
            == frozenset({"abg"})

    def test_tie_counts_members_not_id_letters(self):
        """``b1b2`` has the longer id but two atoms to ``abg``'s three."""
        assert knapsack({"b1b2": 1.0, "abg": 1.0}, {"b1b2": 1, "abg": 1}, 1,
                        {"b1b2": 2, "abg": 3}) == frozenset({"abg"})

    def test_sizes_required(self):
        with pytest.raises(TypeError):
            knapsack({"cs": 0.7}, COSTS, 3)
        with pytest.raises(ValueError):
            knapsack({"cs": 0.7}, COSTS, 3, {})

    def test_zero_bound_breaks_nothing(self):
        assert knapsack({"cs": 0.7}, COSTS, 0, {"cs": 2}) == frozenset()

    def test_zero_payoff_never_selected(self):
        assert knapsack({"cs": 0.0, "abg": 0.0}, COSTS, 10, {"cs": 2, "abg": 3}) \
            == frozenset()

    def test_optimal_and_feasible_vs_bruteforce(self, rng):
        """DP selection matches exhaustive subset search on payoff, and never
        exceeds the budget."""
        for _ in range(120):
            n = rng.randint(1, 12)
            ids = [f"k{i}" for i in range(n)]
            pays = {i: rng.choice([0.0, rng.random()]) for i in ids}
            costs = {i: rng.randint(0, 6) for i in ids}
            sizes = {i: rng.randint(1, 4) for i in ids}
            bound = rng.randint(0, 10)
            chosen = knapsack(pays, costs, bound, sizes, seed=rng.randint(0, 99))
            assert sum(costs[i] for i in chosen) <= bound
            best = 0.0
            for r in range(n + 1):
                for combo in itertools.combinations(ids, r):
                    if sum(costs[i] for i in combo) <= bound:
                        best = max(best, sum(pays[i] for i in combo))
            assert sum(pays[i] for i in chosen) == pytest.approx(best, abs=1e-9)


class TestActiveMonitor:
    def test_liveness_concludes_true(self):
        cfg = RationalConfig(metric="metric2", bound=3)
        result = active_monitor(SIGMA, PHI1, vspec(), cfg)
        assert result.broken == frozenset({"cs"})
        assert result.final == Verdict.TRUE

    def test_breaking_cut_class_falsifies_no_cut_safety(self):
        cfg = RationalConfig(metric="metric2", bound=3)
        f = parse_formula("G ((b1 | b2 | b3) -> X !c)")
        result = active_monitor(SIGMA, f, vspec(), cfg)
        assert result.broken == frozenset({"cs"})
        assert result.final == Verdict.FALSE

    def test_insufficient_budget_equals_plain_imperfect(self):
        """With the radiation class unaffordable nothing is broken, so the
        verdict matches the plain imperfect monitor."""
        cfg = RationalConfig(metric="metric2", bound=2)
        f = parse_formula("F (g & (b1 | b2 | b3) & X mb)")
        result = active_monitor(SIGMA, f, vspec(bound=2), cfg)
        assert result.broken == frozenset()
        plain = synthesize_imperfect(f, CLASSES)
        plain.run(visible_trace(explicit_trace(SIGMA, ALPHABET), CLASSES, ()))
        assert result.final == plain.verdict == Verdict.UNKNOWN_NOT_FALSE

    def test_affordable_radiation_class_concludes_true(self):
        cfg = RationalConfig(metric="metric2", bound=3)
        f = parse_formula("F (g & (b1 | b2 | b3) & X mb)")
        result = active_monitor(SIGMA, f, vspec(), cfg)
        assert result.broken == frozenset({"abg"})
        assert result.final == Verdict.TRUE

    def test_multi_letter_atoms_tie_prefers_larger_class(self):
        """Classes ``b1~b2`` and ``a~b~g`` tie on payoff; the three-atom class
        wins although its id is the shorter one."""
        alphabet = ("b1", "b2", "a", "b", "g")
        spec = VisibilitySpec(alphabet=frozenset(alphabet),
                              classes=parse_classes("b1~b2; a~b~g", alphabet),
                              costs={"b1b2": 1, "abg": 1}, bound=1)
        cfg = RationalConfig(metric="metric2", bound=1)
        result = active_monitor([{"b1", "a"}], parse_formula("F (b1 & a)"), spec, cfg)
        pays = dict(result.allocations[0].payoffs)
        assert pays["b1b2"] == pytest.approx(pays["abg"]) and pays["abg"] > 0
        assert result.broken == frozenset({"abg"})

    def test_step_verdicts_cover_trace(self):
        cfg = RationalConfig(metric="metric2", bound=3)
        result = active_monitor(SIGMA, PHI1, vspec(), cfg)
        assert len(result.step_verdicts) == len(SIGMA)


class TestReactiveMonitor:
    def test_example_window_schedule(self):
        """Window two: the radiation class goes first, the cut class second,
        and the disjoined safety property lands on FALSE."""
        cfg = RationalConfig(metric="metric2", bound=3, window=2)
        result = reactive_monitor(SIGMA, PSI, vspec(), cfg)
        assert result.final == Verdict.FALSE
        assert result.broken_per_window[0] == frozenset({"abg"})
        assert result.broken_per_window[1] == frozenset({"cs"})

    def test_revision_falsifies_radiation_safety_in_first_window(self):
        """Hand progression: after the first two visible events the radiation
        disjunct is gone."""
        residual = to_metric_form(PSI)
        sv = visible_trace(explicit_trace(SIGMA, ALPHABET), CLASSES, ("abg",))
        for event in sv[:2]:
            residual = progress(residual, knowledge_from_event(event, CLASSES))
        # psi2 collapsed: what remains is the pending no-cut obligation.
        pays = {cls.canonical_id: sum(metric(residual, atom, METRICS["metric2"])
                                      for atom in cls.members)
                for cls in CLASSES if not cls.is_singleton}
        assert pays["abg"] == 0.0
        assert pays["cs"] > 0.0

    def test_spec_progress_example(self):
        """The radiation safety half is falsified by the second visible event
        once the radiation class is broken."""
        psi2 = to_metric_form(parse_formula("G (g -> !(b1 | b2 | b3))"))
        sv = visible_trace(explicit_trace(SIGMA, ALPHABET), CLASSES, ("abg",))
        residual = progress(psi2, knowledge_from_event(sv[0], CLASSES))
        residual = progress(residual, knowledge_from_event(sv[1], CLASSES))
        assert residual is FALSE

    def test_window_at_least_trace_length_equals_active(self, rng):
        """A single frame makes reactive and active verdict streams identical."""
        pool = ("p", "q", "r", "s")
        for _ in range(25):
            f = random_formula(rng, rng.randint(1, 6), pool=pool)
            classes = random_partition(rng, pool)
            costs = {c.canonical_id: rng.randint(1, 3)
                     for c in classes if not c.is_singleton}
            trace = random_plain_trace(rng, rng.randint(1, 6), pool)
            bound, window = rng.randint(0, 4), len(trace) + rng.randint(0, 3)
            spec = VisibilitySpec(alphabet=frozenset(pool), classes=classes,
                                  costs=costs, bound=bound)
            cfg = RationalConfig(metric="metric2", bound=bound, window=window, seed=7)
            active = active_monitor(trace, f, spec, cfg)
            reactive = reactive_monitor(trace, f, spec, cfg)
            assert active.step_verdicts == reactive.step_verdicts
            assert active.final == reactive.final

    def test_reactive_requires_window(self):
        cfg = RationalConfig(metric="metric2", bound=3, window=None)
        with pytest.raises(ValueError):
            reactive_monitor(SIGMA, PSI, vspec(), cfg)

    def test_case_study_phi3_stays_unknown(self):
        cfg = RationalConfig(metric="metric2", bound=3, window=2)
        f = parse_formula("F ((!c & b1 & X b2) | (!c & b2 & X b3))")
        result = reactive_monitor(SIGMA, f, vspec(), cfg)
        assert result.final == Verdict.UNKNOWN


class TestSessions:
    def test_incremental_equals_batch(self, rng):
        """Feeding events one at a time replays the batch run exactly."""
        from ltlscope.rational import ActiveSession, ReactiveSession
        pool = ("p", "q", "r", "s")
        for _ in range(15):
            f = random_formula(rng, rng.randint(1, 6), pool=pool)
            classes = random_partition(rng, pool)
            costs = {c.canonical_id: rng.randint(1, 3)
                     for c in classes if not c.is_singleton}
            trace = random_plain_trace(rng, rng.randint(1, 7), pool)
            bound, window = rng.randint(0, 4), rng.randint(1, 3)
            spec = VisibilitySpec(alphabet=frozenset(pool), classes=classes,
                                  costs=costs, bound=bound)
            cfg = RationalConfig(metric="metric2", bound=bound, window=window, seed=11)
            for session_cls, batch in ((ActiveSession, active_monitor),
                                       (ReactiveSession, reactive_monitor)):
                session = session_cls(f, spec, cfg)
                for event in trace:
                    session.step(event)
                live = session.result()
                ref = batch(trace, f, spec, cfg)
                assert live.step_verdicts == ref.step_verdicts
                assert live.broken_per_window == ref.broken_per_window
                assert live.final == ref.final

    def test_active_session_ignores_window(self):
        from ltlscope.rational import ActiveSession
        cfg = RationalConfig(metric="metric2", bound=3, window=2)
        session = ActiveSession(PSI, vspec(), cfg)
        for event in SIGMA:
            session.step(event)
        assert len(session.result().allocations) == 1

    def test_settled_residual_stops_decoding(self, monkeypatch):
        """Once ``F p`` is settled at event 1, later window boundaries decode
        no past event and keep the settled window's allocation object."""
        calls = []
        decode = rational.knowledge_from_event

        def counted(event, classes):
            calls.append(event)
            return decode(event, classes)

        monkeypatch.setattr(rational, "knowledge_from_event", counted)
        rational.session_memo.cache_clear()
        classes = parse_classes("p~q; r", ("p", "q", "r"))
        spec = VisibilitySpec(alphabet=frozenset("pqr"), classes=classes,
                              costs={"pq": 1}, bound=1)
        cfg = RationalConfig(metric="metric2", bound=1, window=2)
        session = ReactiveSession(parse_formula("F p"), spec, cfg)
        counts = []
        for event in [set(), {"p"}, {"q"}, set(), {"r"}, set(), {"p", "r"}]:
            session.step(event)
            counts.append(len(calls))
        run = session.result()
        assert counts == [0, 0, 2, 2, 2, 2, 2]
        assert run.step_verdicts == [Verdict.UNKNOWN] + [Verdict.TRUE] * 6
        assert run.broken_per_window == [frozenset({"pq"})] * 4
        assert all(a is run.allocations[0] for a in run.allocations)

    def test_memo_changes_no_result(self, rng, monkeypatch):
        """Runs over a warm session memo, and over one capped at two
        entries, equal runs that decode every event afresh."""
        pool = ("p", "q", "r", "s")
        cases = []
        for _ in range(15):
            f = random_formula(rng, rng.randint(1, 6), pool=pool)
            classes = random_partition(rng, pool)
            costs = {c.canonical_id: rng.randint(1, 3)
                     for c in classes if not c.is_singleton}
            trace = random_plain_trace(rng, rng.randint(1, 9), pool)
            spec = VisibilitySpec(alphabet=frozenset(pool), classes=classes,
                                  costs=costs, bound=rng.randint(0, 4))
            cfg = RationalConfig(metric="metric2", bound=spec.bound,
                                 window=rng.randint(1, 3), seed=5)
            cases.append((trace, f, spec, cfg))

        def runs():
            return [batch(*case) for case in cases
                    for batch in (active_monitor, reactive_monitor)]

        def fields(run):
            return (run.final, run.step_verdicts, run.allocations, run.visible_events)

        rational.session_memo.cache_clear()
        monkeypatch.setattr(rational, "MEMO_LIMIT", 0)
        fresh = [fields(run) for run in runs()]
        for _, _, spec, _ in cases:
            memo = rational.session_memo(spec.alphabet, spec.classes)
            assert not (memo.events or memo.allocations or memo.forms or memo.knowledge)
        monkeypatch.setattr(rational, "MEMO_LIMIT", 2)
        assert [fields(run) for run in runs()] == fresh
        rational.session_memo.cache_clear()
        monkeypatch.undo()
        runs()
        assert [fields(run) for run in runs()] == fresh
        for _, _, spec, _ in cases:
            assert rational.session_memo(spec.alphabet, spec.classes).events

    def test_sessions_share_events_and_allocations(self):
        """Two runs over the same classes hold the same event and allocation
        objects; other costs are another key."""
        cfg = RationalConfig(metric="metric2", bound=3)
        first = active_monitor(SIGMA, PSI, vspec(), cfg)
        second = active_monitor(SIGMA, PSI, vspec(), cfg)
        assert second.allocations[0] is first.allocations[0]
        assert all(a is b for a, b in zip(first.visible_events, second.visible_events))
        assert first.broken == frozenset({"abg"})
        dear = VisibilitySpec(alphabet=frozenset(ALPHABET), classes=CLASSES,
                              costs={"cs": 2, "abg": 4}, bound=3)
        assert active_monitor(SIGMA, PSI, dear, cfg).broken == frozenset({"cs"})

    def test_sessions_over_one_formula_share_its_metric_form(self, monkeypatch):
        """Twenty active sessions over one formula build its metric form once
        and start from the same residual object."""
        calls = []
        build = rational.to_metric_form

        def counted(f):
            calls.append(f)
            return build(f)

        monkeypatch.setattr(rational, "to_metric_form", counted)
        rational.session_memo.cache_clear()
        cfg = RationalConfig(metric="metric2", bound=3)
        sessions = [rational.ActiveSession(PSI, vspec(), cfg) for _ in range(20)]
        assert calls == [PSI]
        assert all(s.residual is sessions[0].residual for s in sessions)
        assert sessions[0].residual == to_metric_form(PSI)

    def test_sessions_over_one_class_structure_decode_each_event_once(self, monkeypatch):
        """Two reactive sessions over the same classes and events decode each
        distinct visible event once between them."""
        calls = []
        decode = rational.knowledge_from_event

        def counted(event, classes):
            calls.append(event)
            return decode(event, classes)

        monkeypatch.setattr(rational, "knowledge_from_event", counted)
        rational.session_memo.cache_clear()
        cfg = RationalConfig(metric="metric2", bound=3, window=2)
        sessions = [ReactiveSession(f, vspec(), cfg) for f in (PSI, PHI1)]
        for event in SIGMA + SIGMA:
            for session in sessions:
                session.step(event)
        assert calls and len(calls) == len(set(calls))
        assert set(calls) <= {e for s in sessions for e in s.visible_events}

    def test_clear_machine_caches_forgets_session_memos(self):
        spec = vspec()
        memo = rational.session_memo(spec.alphabet, spec.classes)
        assert rational.session_memo(spec.alphabet, spec.classes) is memo
        clear_machine_caches()
        assert rational.session_memo(spec.alphabet, spec.classes) is not memo

    def test_session_exposes_running_verdict(self):
        from ltlscope.rational import ActiveSession
        cfg = RationalConfig(metric="metric2", bound=3)
        session = ActiveSession(PHI1, vspec(), cfg)
        assert session.verdict == Verdict.UNKNOWN
        for event in SIGMA:
            session.step(event)
        assert session.verdict == Verdict.TRUE


class TestDominance:
    def test_active_preserves_definite_verdicts(self, rng):
        """With every class affordable, a definite plain-imperfect verdict
        carries over to the active monitor and the two never contradict.

        The epistemic outcomes (uu and the two ?-variants) are claims about
        the monitor's own future vision, which a better-sighted monitor may
        legitimately escape, so only the definite halves are law.
        """
        pool = ("p", "q", "r")
        for _ in range(40):
            f = random_formula(rng, rng.randint(1, 5), pool=pool)
            classes = random_partition(rng, pool)
            costs = {c.canonical_id: rng.randint(1, 3)
                     for c in classes if not c.is_singleton}
            spec = VisibilitySpec(alphabet=frozenset(pool), classes=classes,
                                  costs=costs, bound=sum(costs.values()))
            cfg = RationalConfig(metric="metric2", bound=spec.bound, seed=3)
            trace = random_plain_trace(rng, rng.randint(1, 5), pool)
            active = active_monitor(trace, f, spec, cfg)
            plain = synthesize_imperfect(f, classes)
            plain.run(visible_trace(explicit_trace(trace, pool), classes, ()))
            a, p = active.final, plain.verdict
            if p == Verdict.TRUE:
                assert a == Verdict.TRUE
            if p == Verdict.FALSE:
                assert a == Verdict.FALSE
            assert not (a == Verdict.TRUE and p == Verdict.FALSE)
            assert not (a == Verdict.FALSE and p == Verdict.TRUE)
