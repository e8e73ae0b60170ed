"""Metric, payoff, knapsack, and the active/reactive drivers."""

import hashlib
import itertools
import random
import re
import time

import pytest

from ltlscope.automata import Verdict
from ltlscope.formula import (FALSE, TRUE, And, Atom, FalseConst, Formula,
                              Implies, Lit, Next, Not, Or, Release, SLit, TrueConst,
                              Until, _mk_and, _mk_implies, _mk_not, _mk_or,
                              height, parse_formula, postorder, progress,
                              to_metric_form)
from ltlscope.monitor import (MonitorInstance, clear_machine_caches,
                              synthesize_imperfect)
from ltlscope import casestudy, randgen
from ltlscope.randgen import random_partition
import ltlscope.rational as rational
from ltlscope.rational import (METRICS, MetricSpec, RationalConfig,
                               ReactiveSession, active_monitor, allocate,
                               knapsack, metric, reactive_monitor)
from ltlscope.visibility import (VisibilitySpec, expand_witnesses,
                                 explicit_trace, knowledge_from_event,
                                 parse_classes, visible_event, visible_trace)

from conftest import payoff, random_formula, random_plain_trace, reference_metric

ALPHABET = ("b1", "b2", "b3", "c", "s", "a", "b", "g", "mb", "w")
CLASSES = parse_classes("c~s; a~b~g", ALPHABET)
COSTS = {"cs": 2, "abg": 3}
SIGMA = [set(), {"g", "b1", "c"}, {"g", "c", "mb", "b2"}, {"c"}, {"w"}]

PHI1 = parse_formula("F (c & X w)")
PSI = parse_formula("(G ((b1 | b2 | b3) -> X !c)) | (G (g -> !(b1 | b2 | b3)))")


def vspec(bound=3):
    return VisibilitySpec(classes=CLASSES, costs=COSTS, bound=bound)


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

    def test_metric3_is_refused(self):
        """``metric3`` was an alias reporting ``metric2``'s numbers under a
        name whose weights the paper does not give."""
        assert "metric3" not in METRICS
        with pytest.raises(ValueError, match="unknown metric 'metric3'"):
            RationalConfig(metric="metric3").metric_spec()


def dense_knapsack(payoffs, costs, bound, sizes, seed=0):
    """Reference: the knapsack as a table over every budget 0..bound, which
    ``knapsack`` kept before it kept only the reachable cost sums."""
    items = [cid for cid in payoffs if payoffs[cid] > 1e-9]
    rng = random.Random(seed)
    items.sort()
    rng.shuffle(items)
    bound = min(bound, sum(costs[cid] for cid in items))
    best = [(0.0, 0, frozenset())] * (bound + 1)
    for cid in items:
        cost, gain, size = costs[cid], payoffs[cid], sizes[cid]
        updated = list(best)
        for b in range(cost, bound + 1):
            base_pay, base_atoms, base_sel = best[b - cost]
            cand = (base_pay + gain, base_atoms + size, base_sel | {cid})
            cur = updated[b]
            if (cand[0] > cur[0] + 1e-9
                    or (abs(cand[0] - cur[0]) <= 1e-9 and cand[1] > cur[1])):
                updated[b] = cand
        best = updated
    top = best[0]
    for cand in best:
        if (cand[0] > top[0] + 1e-9
                or (abs(cand[0] - top[0]) <= 1e-9 and cand[1] > top[1])):
            top = cand
    return top[2]


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

    def test_tie_within_eps_at_a_higher_cost_prefers_more_atoms(self):
        """``a`` and ``b`` sum to 0.30000000000000004 at cost 2 and ``c``
        pays 0.3 at cost 3: a tie within the tolerance, which goes to the
        three atoms of ``c`` whatever cost step each optimum sits at."""
        sizes = {"a": 1, "b": 1, "c": 3}
        payoffs = {"a": .1, "b": .2, "c": .3}
        assert knapsack(payoffs, {"a": 1, "b": 1, "c": 3}, 3, sizes) == frozenset({"c"})
        assert knapsack(payoffs, {"a": 1, "b": 1, "c": 2}, 2, sizes) == frozenset({"c"})
        assert dense_knapsack(payoffs, {"a": 1, "b": 1, "c": 3}, 3, sizes) == frozenset({"c"})

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

    def test_bound_past_the_total_cost_selects_as_the_total(self, rng):
        """A budget that covers every candidate breaks all of them, whether
        it equals their total cost or lies far above it."""
        for _ in range(200):
            ids = [f"k{i}" for i in range(rng.randint(0, 8))]
            pays = {i: rng.choice([0.0, rng.random()]) for i in ids}
            costs = {i: rng.randint(0, 6) for i in ids}
            sizes = {i: rng.randint(1, 4) for i in ids}
            seed = rng.randint(0, 99)
            total = sum(costs[i] for i in ids if pays[i] > 0)
            at_total = knapsack(pays, costs, total, sizes, seed=seed)
            assert at_total == frozenset(i for i in ids if pays[i] > 0)
            for bound in (total + 1, total + rng.randint(2, 50), 10 ** 9):
                assert knapsack(pays, costs, bound, sizes, seed=seed) == at_total

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


    def test_matches_the_dense_table(self, rng):
        """Keeping only the reachable cost sums selects what the table over
        every budget selects, with ties in payoff (also within 1e-9) and in
        size."""
        for _ in range(3000):
            ids = [f"k{i}" for i in range(rng.randint(0, 8))]
            pays = {i: rng.choice([0.0, 0.25, 0.5, 0.5 + 1e-10, rng.random()]) for i in ids}
            costs = {i: rng.randint(0, 7) for i in ids}
            sizes = {i: rng.randint(1, 3) for i in ids}
            bound = rng.choice([0, rng.randint(0, 12), rng.randint(0, 40)])
            seed = rng.randint(0, 50)
            assert knapsack(pays, costs, bound, sizes, seed) \
                == dense_knapsack(pays, costs, bound, sizes, seed)

    def test_huge_costs_are_as_cheap_as_small_ones(self):
        pays = {"pq": 0.5, "rs": 0.5, "tu": 0.25}
        sizes = {"pq": 2, "rs": 2, "tu": 2}
        start = time.perf_counter()
        chosen = knapsack(pays, {"pq": 10 ** 8, "rs": 10 ** 8, "tu": 1}, 10 ** 8 + 1, sizes)
        assert time.perf_counter() - start < 1.0
        assert chosen in (frozenset({"pq", "tu"}), frozenset({"rs", "tu"}))


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
        spec = VisibilitySpec(classes=parse_classes("b1~b2; a~b~g", alphabet),
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

    @pytest.mark.parametrize("stray", ["zz", "w"], ids=["no-class", "singleton"])
    def test_forced_break_names_only_breakable_classes(self, stray):
        """A forced break of a class that does not exist, or of a singleton,
        is refused as ``visible_trace`` refuses it, not run unbroken and
        reported as broken."""
        cfg = RationalConfig(metric="metric2", bound=3)
        with pytest.raises(ValueError, match="cannot break non-existent or singleton"):
            active_monitor(SIGMA, PHI1, vspec(), cfg, forced_break=(stray,))
        assert active_monitor(SIGMA, PHI1, vspec(), cfg, forced_break=("cs",)).broken \
            == frozenset({"cs"})

    @pytest.mark.parametrize("field, value", [
        ("metric", "nope"), ("metric", ["metric2"]), ("window", 0), ("window", 1.5),
        ("window", True), ("seed", "x"), ("seed", 1.0)])
    def test_config_refuses_what_it_cannot_use(self, field, value):
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            RationalConfig(**{field: value})


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
            spec = VisibilitySpec(classes=classes, costs=costs, bound=bound)
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
            spec = VisibilitySpec(classes=classes, costs=costs, bound=bound)
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
        spec = VisibilitySpec(classes=classes, costs={"pq": 1}, bound=1)
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

    def test_kept_residual_keeps_its_allocation_without_a_lookup(self, monkeypatch):
        """``p & G p`` over events that leave ``p`` unknown progresses to
        itself: ten windows allocate once, at set-up, and repeat that
        allocation object."""
        scored = []
        allocate_once = rational.Session._allocate

        def counted(session):
            scored.append(session.residual)
            return allocate_once(session)

        monkeypatch.setattr(rational.Session, "_allocate", counted)
        cfg = RationalConfig(metric="metric2", bound=1, window=1)
        session = ReactiveSession(parse_formula("p & G p"), unknown_spec(), cfg)
        for _ in range(11):
            session.step({"p"})
        run = session.result()
        assert scored == [session.residual]
        assert len(run.allocations) == 11
        assert all(a is run.allocations[0] for a in run.allocations)

    def test_forced_break_is_revised_at_the_first_boundary(self):
        """A forced selection was scored on no residual, so the first window
        boundary allocates although the residual ``p & G p`` did not
        change, and breaks the class the knapsack picks."""
        spec = VisibilitySpec(classes=parse_classes("p~q"), costs={"pq": 5}, bound=5)
        cfg = RationalConfig(metric="metric2", bound=5, window=1)
        session = rational.Session(parse_formula("p & G p"), spec, cfg, 1, frozenset())
        first = session.residual
        session.step({"p"})
        session.step({"p"})
        assert session.residual is first
        assert session.result().broken_per_window == [frozenset(), frozenset({"pq"})]

    def test_memo_changes_no_result(self, rng, monkeypatch):
        """Runs over a warm session memo, and over one capped at three
        entries, equal runs that decode every event afresh.  No table holds
        more than ``MEMO_LIMIT`` entries, and with the limit at 0 no
        allocation table of a (costs, config) is stored."""
        pool = ("p", "q", "r", "s")
        cases = []
        for _ in range(15):
            f = random_formula(rng, rng.randint(1, 6), pool=pool)
            classes = random_partition(rng, pool)
            costs = {c.canonical_id: rng.randint(1, 3)
                     for c in classes if not c.is_singleton}
            trace = random_plain_trace(rng, rng.randint(1, 9), pool)
            spec = VisibilitySpec(classes=classes, costs=costs, bound=rng.randint(0, 4))
            cfg = RationalConfig(metric="metric2", bound=spec.bound,
                                 window=rng.randint(1, 3), seed=5)
            cases.append((trace, f, spec, cfg))
        # A residual that grows in every window: more residuals than a
        # capped allocation table holds.
        cases.append(([{"p"}] * 8, parse_formula("G (p -> F q)"), unknown_spec(),
                      RationalConfig(metric="metric2", bound=1, window=1, seed=5)))

        def runs():
            return [batch(*case) for case in cases
                    for batch in (active_monitor, reactive_monitor)]

        def fields(run):
            return (run.final, run.step_verdicts, run.allocations, run.visible_events)

        def tables(spec):
            memo = rational.session_memo(spec.classes)
            return [memo.events, memo.decoded, memo.allocations, memo.forms,
                    memo.progressions, *memo.allocations.values()]

        def within_limit():
            return all(len(table) <= rational.MEMO_LIMIT
                       for _, _, spec, _ in cases for table in tables(spec))

        rational.session_memo.cache_clear()
        monkeypatch.setattr(rational, "MEMO_LIMIT", 0)
        fresh = [fields(run) for run in runs()]
        for _, _, spec, _ in cases:
            assert not any(tables(spec))
        monkeypatch.setattr(rational, "MEMO_LIMIT", 3)
        assert [fields(run) for run in runs()] == fresh
        assert within_limit()
        assert any(len(table) == 3 for _, _, spec, _ in cases
                   for table in rational.session_memo(spec.classes).allocations.values())
        rational.session_memo.cache_clear()
        monkeypatch.undo()
        runs()
        assert [fields(run) for run in runs()] == fresh
        assert within_limit()
        for _, _, spec, _ in cases:
            assert rational.session_memo(spec.classes).events

    def test_sessions_share_events_and_allocations(self):
        """Two runs over the same classes hold the same event and allocation
        objects; other costs are another key."""
        cfg = RationalConfig(metric="metric2", bound=3)
        first = active_monitor(SIGMA, PSI, vspec(), cfg)
        second = active_monitor(SIGMA, PSI, vspec(), cfg)
        assert second.allocations[0] is first.allocations[0]
        assert all(a is b for a, b in zip(first.visible_events, second.visible_events))
        assert first.broken == frozenset({"abg"})
        dear = VisibilitySpec(classes=CLASSES, costs={"cs": 2, "abg": 4}, bound=3)
        assert active_monitor(SIGMA, PSI, dear, cfg).broken == frozenset({"cs"})

    def test_sessions_step_one_decoded_object_per_value(self, monkeypatch):
        """The empty event decodes to every atom false whether ``cs`` is
        broken (``c=0, s=0`` seen) or not (the witness ``cs=0`` seen): two
        sessions that decode it under the two keys step the same object."""
        from ltlscope.rational import ActiveSession
        stepped = []
        step = MonitorInstance.step

        def recorded(self, event):
            stepped.append(event)
            return step(self, event)

        monkeypatch.setattr(MonitorInstance, "step", recorded)
        rational.session_memo.cache_clear()
        cfg = RationalConfig(metric="metric2", bound=3)
        whole = ActiveSession(PHI1, vspec(), cfg, forced_break=())
        broken = ActiveSession(PHI1, vspec(), cfg, forced_break=["cs"])
        whole.step(frozenset())
        broken.step(frozenset())
        assert whole.visible_events[0] != broken.visible_events[0]
        assert len(stepped) == 2 and stepped[0] is stepped[1]
        memo = rational.session_memo(vspec().classes)
        assert memo.decoded[stepped[0]] is stepped[0]

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

    def test_sessions_decode_an_event_only_when_its_progression_misses(self, monkeypatch):
        """Reactive sessions over one class structure decode a past visible
        event once per progression they compute; sessions that meet the same
        residuals and events again progress from the shared memo and decode
        nothing."""
        calls, progressed = [], []
        decode, progress_once = rational.knowledge_from_event, rational.progress

        def counted(event, classes):
            calls.append(event)
            return decode(event, classes)

        def counted_progress(f, knowledge):
            progressed.append(f)
            return progress_once(f, knowledge)

        monkeypatch.setattr(rational, "knowledge_from_event", counted)
        monkeypatch.setattr(rational, "progress", counted_progress)
        rational.session_memo.cache_clear()
        cfg = RationalConfig(metric="metric2", bound=3, window=2)

        def run_pair():
            sessions = [ReactiveSession(f, vspec(), cfg) for f in (PSI, PHI1)]
            for event in SIGMA + SIGMA:
                for session in sessions:
                    session.step(event)
            return {e for s in sessions for e in s.visible_events}

        visible = run_pair()
        assert calls and len(calls) == len(progressed)
        assert set(calls) <= visible
        before = len(calls)
        assert run_pair() == visible
        assert len(calls) == before and len(progressed) == before

    def test_clear_machine_caches_forgets_session_memos(self):
        spec = vspec()
        memo = rational.session_memo(spec.classes)
        assert rational.session_memo(spec.classes) is memo
        clear_machine_caches()
        assert rational.session_memo(spec.classes) is not memo

    def test_clear_machine_caches_forgets_rational_machines(self):
        rational.rational_machine(PHI1, vspec().alphabet)
        assert rational.rational_machine.cache_info().currsize > 0
        clear_machine_caches()
        assert rational.rational_machine.cache_info().currsize == 0

    def test_rational_machine_hands_out_a_fresh_cursor(self):
        """A caller that steps its cursor moves no one else's: the next
        call starts at the initial state of the one cached machine."""
        f, alphabet = parse_formula("F p"), frozenset({"p"})
        first = rational.rational_machine(f, alphabet)
        assert first.step(frozenset({SLit("p", True)})) == Verdict.TRUE
        second = rational.rational_machine(f, alphabet)
        assert second is not first and second.machine is first.machine
        assert second.current == second.machine.initial
        assert second.verdict == Verdict.UNKNOWN

    def test_clear_machine_caches_forgets_progressed_nodes(self):
        """``progress`` keeps its node results for the next call under the
        same knowledge; clearing the caches empties that memo too."""
        from ltlscope import formula
        progress(to_metric_form(PHI1), {"c": False})
        assert formula._last_progressed[1]
        clear_machine_caches()
        assert formula._last_progressed == ({}, {})

    def test_clear_machine_caches_forgets_metric_values(self):
        """``metric`` keeps its node values per atom and metric for the next
        call; clearing the caches empties that memo too."""
        metric(to_metric_form(PHI1), "c", METRICS["metric2"])
        assert rational._metric_values[("c", METRICS["metric2"])]
        clear_machine_caches()
        assert rational._metric_values == {}

    def test_config_budget_must_be_the_spec_budget(self):
        """A spec budget of 5 with a config budget of 0 is refused, naming
        both, instead of running on the config's budget alone."""
        spec = vspec(bound=5)
        for make in (lambda cfg: rational.ActiveSession(PSI, spec, cfg),
                     lambda cfg: ReactiveSession(PSI, spec, cfg)):
            with pytest.raises(ValueError, match="config budget 0 differs from spec budget 5"):
                make(RationalConfig(metric="metric2", bound=0, window=2))
        assert active_monitor(SIGMA, PSI, spec, RationalConfig(bound=5)).broken

    @pytest.mark.parametrize("window", [None, 1, 2])
    def test_refused_event_names_its_position_and_changes_nothing(self, window):
        """An event with an atom outside the alphabet is refused before a
        window boundary reallocates, and the session runs on as if it had
        never been offered."""
        from ltlscope.rational import Session
        cfg = RationalConfig(metric="metric2", bound=3, window=window)
        session = Session(PSI, vspec(), cfg, window, None)
        for event in SIGMA[:2]:
            session.step(event)
        before = session.result()
        for _ in range(3):
            with pytest.raises(ValueError, match=r"unknown atom\(s\) \['zz'\] at position 2"):
                session.step({"c", "zz"})
        assert session.result() == before
        for event in SIGMA[2:]:
            session.step(event)
        batch = active_monitor if window is None else reactive_monitor
        assert session.result() == batch(SIGMA, PSI, vspec(), cfg)

    def test_string_event_is_refused(self):
        """Over the alphabet ``p, q`` the string ``"pq"`` is not read as the
        event {p, q}: it is refused and the session runs on unchanged."""
        from ltlscope.rational import Session
        spec = VisibilitySpec(classes=parse_classes("p; q", ("p", "q")))
        session = Session(parse_formula("p & q"), spec, RationalConfig(metric="metric2"), None, None)
        with pytest.raises(ValueError, match="not the string 'pq'"):
            session.step("pq")
        assert session.result().visible_events == []
        assert session.step({"p", "q"}) == Verdict.TRUE

    @pytest.mark.parametrize("event", [{"p": 1, "q": 0}, None, 7])
    def test_non_set_event_is_refused(self, event):
        """A mapping is not read as its keys, and ``None`` or an int raise
        ``ValueError``, not ``TypeError``; the session runs on unchanged."""
        from ltlscope.rational import Session
        spec = VisibilitySpec(classes=parse_classes("p; q", ("p", "q")))
        session = Session(parse_formula("p & q"), spec, RationalConfig(metric="metric2"), None, None)
        with pytest.raises(ValueError, match="an event is a set of atom names, not"):
            session.step(event)
        assert session.result().visible_events == []
        assert session.step({"p", "q"}) == Verdict.TRUE

    def test_session_exposes_running_verdict(self):
        from ltlscope.rational import ActiveSession
        cfg = RationalConfig(metric="metric2", bound=3)
        session = ActiveSession(PHI1, vspec(), cfg)
        assert session.verdict == Verdict.UNKNOWN
        for event in SIGMA:
            session.step(event)
        assert session.verdict == Verdict.TRUE

    @pytest.mark.parametrize("window", [None, 2])
    def test_every_event_reaches_both_step_layers(self, monkeypatch, window):
        """``N`` session steps make ``N`` calls each to ``MonitorInstance.step``
        and ``MooreMachine.step``, however many of the events the machine
        remembers as checked; the benchmark's tracer wraps both by name."""
        from ltlscope.automata.moore import MooreMachine
        from ltlscope.monitor import MonitorInstance
        from ltlscope.rational import ActiveSession
        calls = {"monitor": 0, "moore": 0}

        def counted(key, step):
            def wrapper(*args):
                calls[key] += 1
                return step(*args)
            return wrapper

        monkeypatch.setattr(MonitorInstance, "step", counted("monitor", MonitorInstance.step))
        monkeypatch.setattr(MooreMachine, "step", counted("moore", MooreMachine.step))
        cfg = RationalConfig(metric="metric2", bound=3, window=window)
        trace = SIGMA * 3
        for _ in range(2):
            session = (ActiveSession(PSI, vspec(), cfg) if window is None
                       else ReactiveSession(PSI, vspec(), cfg))
            for event in trace:
                session.step(event)
        assert calls == {"monitor": 2 * len(trace), "moore": 2 * len(trace)}


class TestReactiveDigest:
    """Reactive allocations are pinned: the sha256 of each case-study
    session's step verdicts and per-window payoffs and selection, over a
    seeded sparse stream that leaves most properties open for many windows.
    A change to stepping or to the window bookkeeping that moves one verdict,
    one payoff's last bit or one selection changes the digest.  CI runs this
    test under two hash seeds, so set iteration order cannot leak into an
    allocation."""

    DIGEST = "35a2055f5530421c07fadb6107d4532de7bfce7bd293fc44565517b11dc79bc1"

    def test_case_study_sessions(self):
        rng = random.Random(3)
        stream = [frozenset(a for a in casestudy.ALPHABET if rng.random() < 0.1)
                  for _ in range(200)]
        cfg = RationalConfig(metric="metric2", bound=casestudy.BOUND,
                             window=casestudy.WINDOW, seed=0)
        digest = hashlib.sha256()
        changes = 0
        for name, f in casestudy.formulas().items():
            session = ReactiveSession(f, casestudy.spec(), cfg)
            for event in stream:
                session.step(event)
            run = session.result()
            changes += sum(a != b for a, b in zip(run.allocations, run.allocations[1:]))
            windows = [(a.payoffs, sorted(a.selection)) for a in run.allocations]
            digest.update(repr((name, [v.name for v in run.step_verdicts], windows)).encode())
        assert changes >= 20
        assert digest.hexdigest() == self.DIGEST


def previous_random_plain_trace(rng, length, pool=randgen.DEFAULT_POOL):
    """``random_plain_trace`` before it shared equal events."""
    return [frozenset(a for a in pool if rng.random() < 0.5)
            for _ in range(length)]


class TestRandomPlainTrace:
    @pytest.mark.parametrize("seed", [0, 1, 7, 20240821])
    @pytest.mark.parametrize("pool", [randgen.DEFAULT_POOL, ("b", "a"), ()])
    def test_same_values_as_before(self, seed, pool):
        assert randgen.random_plain_trace(random.Random(seed), 40, pool) == \
            previous_random_plain_trace(random.Random(seed), 40, pool)

    def test_equal_events_are_one_object(self):
        events = [event for seed in range(20)
                  for event in randgen.random_plain_trace(random.Random(seed), 8)]
        distinct = {id(event) for event in events}
        assert len(distinct) == len(set(events)) <= 16


def reference_progress(f, knowledge):
    """Progression as it was first written: a tree recursion that conjoins
    with ``_mk_and``, so repeated conjuncts are kept."""
    if isinstance(f, (TrueConst, FalseConst)):
        return f
    if isinstance(f, Atom):
        value = knowledge.get(f.name)
        return f if value is None else TRUE if value else FALSE
    if isinstance(f, Not):
        inner = reference_progress(f.operand, knowledge)
        return _mk_not(inner) if isinstance(inner, (TrueConst, FalseConst)) else f
    if isinstance(f, And):
        return _mk_and(reference_progress(f.left, knowledge), reference_progress(f.right, knowledge))
    if isinstance(f, Or):
        return _mk_or(reference_progress(f.left, knowledge), reference_progress(f.right, knowledge))
    if isinstance(f, Implies):
        return _mk_implies(reference_progress(f.left, knowledge),
                           reference_progress(f.right, knowledge))
    if isinstance(f, Next):
        return f.operand
    if isinstance(f, Until):
        return _mk_or(reference_progress(f.right, knowledge),
                      _mk_and(reference_progress(f.left, knowledge), f))
    if isinstance(f, Release):
        return _mk_and(reference_progress(f.right, knowledge),
                       _mk_or(reference_progress(f.left, knowledge), f))
    raise TypeError(f"not a formula: {f!r}")


def recursive_metric(f, atom, spec):
    """The payoff metric as a tree recursion."""
    if isinstance(f, (TrueConst, FalseConst)):
        return 0.0
    if isinstance(f, Atom):
        return 1.0 if f.name == atom else 0.0
    if isinstance(f, Lit):
        return 1.0 if f.lit.name == atom else 0.0
    if isinstance(f, Not):
        return recursive_metric(f.operand, atom, spec)
    if isinstance(f, Next):
        return spec.next_factor * recursive_metric(f.operand, atom, spec)
    left, right = recursive_metric(f.left, atom, spec), recursive_metric(f.right, atom, spec)
    if isinstance(f, And):
        return rational._combine(spec.and_comb, left, right)
    if isinstance(f, Or):
        return rational._combine(spec.or_comb, left, right)
    if isinstance(f, Implies):
        return rational._combine(spec.implies_comb, left, right)
    wl, wr = spec.until_weights if isinstance(f, Until) else spec.release_weights
    return wl * left + wr * right


def and_tree(f):
    """``f`` and every node of its top-level ``And`` tree."""
    nodes, stack = set(), [f]
    while stack:
        g = stack.pop()
        nodes.add(g)
        if isinstance(g, And):
            stack += (g.left, g.right)
    return nodes


def repeats_a_conjunct(f):
    """Whether some conjunction of ``f`` has a side that already occurs in
    the other side's top-level ``And`` tree."""
    seen, stack = set(), [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        if isinstance(g, And) and (g.left in and_tree(g.right) or g.right in and_tree(g.left)):
            return True
        stack += [getattr(g, name) for name in g._fields if isinstance(getattr(g, name), Formula)]
    return False


def unknown_spec():
    """Classes under which an event with ``p`` and not ``q`` leaves both unknown."""
    return VisibilitySpec(classes=parse_classes("p~q"), costs={"pq": 5}, bound=1)


class TestProgression:
    def test_payoffs_equal_the_reference(self, rng):
        """Window after window of partial knowledge, the residual scores
        exactly as the reference residual under every metric, and is the
        same object whenever the reference repeats no conjunct."""
        pool = ("p", "q", "r")
        specs = [METRICS[name] for name in ("metric0", "metric1", "metric2")]
        same = 0
        for _ in range(300):
            residual = reference = to_metric_form(random_formula(rng, rng.randint(1, 7), pool=pool))
            for _ in range(rng.randint(1, 6)):
                knowledge = {a: rng.random() < 0.5 for a in pool if rng.random() < 0.4}
                residual = progress(residual, knowledge)
                reference = reference_progress(reference, knowledge)
                for spec in specs:
                    for atom in pool:
                        assert metric(residual, atom, spec) == recursive_metric(reference, atom, spec)
                if not repeats_a_conjunct(reference):
                    assert residual is reference
                    same += 1
        assert same > 300

    def test_metric_equals_the_reference(self, rng):
        for _ in range(200):
            f = to_metric_form(random_formula(rng, rng.randint(0, 8)))
            for spec in METRICS.values():
                for atom in ("p", "q", "z"):
                    assert metric(f, atom, spec) == recursive_metric(f, atom, spec)

    @pytest.mark.parametrize("preloaded", [1 << 16, 2])
    def test_memoised_metric_equals_the_fold(self, preloaded):
        """Along seeded progression chains of criterion-6 draws, twenty
        windows of random knowledge each, the metric that keeps node values
        between calls equals the memo-free fold exactly, for every atom and
        metric, in one table per (atom, metric); so it does when every table
        already holds a residual of ``preloaded`` disjunctions, and the
        tables still hold each of that residual's nodes at the end."""
        clear_machine_caches()
        held = Atom("q")
        for _ in range(preloaded):
            held = Or(Atom("p"), held)
        rng = random.Random(33)
        pool = ("p", "q", "r", "s")
        scored = {(atom, spec): metric(held, atom, spec)
                  for spec in METRICS.values() for atom in pool}
        for _ in range(40):
            residual = to_metric_form(randgen.random_formula(rng, rng.randint(1, 8), pool))
            for _ in range(20):
                for spec in METRICS.values():
                    for atom in pool:
                        assert metric(residual, atom, spec) == \
                            reference_metric(residual, atom, spec), residual
                knowledge = {a: rng.random() < 0.5 for a in pool if rng.random() < 0.4}
                residual = progress(residual, knowledge)
        assert len(rational._metric_values) == 12
        for (atom, spec), table in rational._metric_values.items():
            assert all(node in table for node in postorder(held))
            assert table[held] == scored[atom, spec]
        clear_machine_caches()

    def test_node_memos_keep_a_residual_past_two_to_the_sixteen(self, monkeypatch):
        """After a residual of more than 2^16 distinct nodes was scored and
        progressed, scoring and progressing it under one more disjunct walk
        only the two new nodes: the node memos keep every node, so a long
        run's windows never rescore or reprogress the whole residual."""
        clear_machine_caches()
        p, z = Atom("p"), Atom("z")
        residual = Atom("q")
        for _ in range((1 << 16) + 10):
            residual = Or(p, residual)
        grown = Or(z, residual)
        spec = METRICS["metric2"]
        walked = []

        def counted(walk):
            def postorder(*args, **kwargs):
                nodes = walk(*args, **kwargs)
                walked.append(len(nodes))
                return nodes
            return postorder

        monkeypatch.setattr(rational, "postorder", counted(postorder))
        value = metric(residual, "p", spec)
        assert metric(grown, "p", spec) == value / 2
        assert walked == [(1 << 16) + 12, 2]
        walked.clear()
        from ltlscope import formula
        monkeypatch.setattr(formula, "postorder", counted(postorder))
        assert progress(residual, {"r": True}) is residual
        assert progress(grown, {"r": True}) is grown
        assert walked == [(1 << 16) + 12, 2]
        clear_machine_caches()

    def test_repeated_conjunct_is_dropped(self):
        """A side that is the other side, or one of that side's two operands,
        is dropped; a conjunct two levels down is kept, and disjunctions are
        kept as built."""
        p, q, r = Atom("p"), Atom("q"), Atom("r")
        assert progress(And(p, p), {}) is p
        assert progress(And(p, And(q, p)), {}) is And(q, p)
        assert progress(And(And(q, And(r, p)), p), {}) is And(And(q, And(r, p)), p)
        assert progress(And(And(p, q), And(r, And(p, q))), {}) is And(r, And(p, q))
        assert progress(And(p, Or(p, q)), {}) is And(p, Or(p, q))
        assert progress(Or(p, Or(p, q)), {}) is Or(p, Or(p, q))
        assert progress(And(p, And(q, p)), {"q": True}) is p

    def test_knowledge_changed_between_calls(self):
        """Consecutive calls share node results only under equal knowledge,
        even when the caller changes its dict in place."""
        p, q = Atom("p"), Atom("q")
        f = to_metric_form(parse_formula("p U q"))
        knowledge = {}
        assert progress(f, knowledge) is Or(q, And(p, f))
        assert progress(f, knowledge) is Or(q, And(p, f))
        knowledge["q"] = True
        assert progress(f, knowledge) is TRUE
        knowledge["q"] = False
        assert progress(f, knowledge) is And(p, f)

    def test_always_residual_is_one_object_after_window_two(self):
        """Over 10^5 events that leave ``p`` unknown, the ``G p`` residual is
        the same object from the second window on."""
        cfg = RationalConfig(metric="metric2", bound=1, window=1)
        session = ReactiveSession(parse_formula("G p"), unknown_spec(), cfg)
        session.step({"p"})
        session.step({"p"})
        fixed = session.residual
        for _ in range(10 ** 5):
            session.step({"p"})
            assert session.residual is fixed
        assert fixed == to_metric_form(parse_formula("p & G p"))

    @pytest.mark.parametrize("text", ["F p", "p U q", "G (p -> F q)"])
    def test_growing_residuals_do_not_overflow(self, text):
        """Residuals that grow by a node or more per unknown event pass the
        recursion limit in 2000 events; progression and the metric walk them
        without recursion."""
        cfg = RationalConfig(metric="metric2", bound=1, window=100)
        session = ReactiveSession(parse_formula(text), unknown_spec(), cfg)
        for _ in range(2000):
            session.step({"p"})
        session.step({"p"})
        assert height(session.residual) > 1900
        assert len(session.allocations) == 21
        assert dict(session.allocations[-1].payoffs)["pq"] > 0

    def test_shared_subformulas_are_walked_once(self):
        """60 levels of ``g & g`` are a tree of 2^60 leaves over 61 nodes."""
        g = Implies(Atom("p"), Next(Atom("q")))
        for _ in range(60):
            g = And(g, g)
        assert progress(g, {"p": True}) is Atom("q")
        assert metric(g, "p", METRICS["metric0"]) == 0.5


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
            spec = VisibilitySpec(classes=classes, costs=costs, bound=sum(costs.values()))
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


class TestProgressionAgreement:
    """Progression rewrites the formula over each event's knowledge and
    shares no code with the automata, so it checks the rational machine at
    any number of atoms: wherever the machine says ⊤ the progressed metric
    form is ``TRUE``, and wherever it says ⊥ it is ``FALSE``.  The converse
    does not hold: ``progress`` resolves an unknown literal with a later
    event's knowledge of the same atom, so a residual can settle while the
    monitor stays open."""

    @pytest.mark.parametrize("pool, formulas, sizes", [
        (("p", "q", "r", "s"), 600, (1, 7)),
        (("p", "q", "r", "s", "t", "u", "v", "w"), 150, (3, 10)),
    ])
    def test_definite_verdicts_settle_the_residual(self, pool, formulas, sizes):
        """Random formulas of size 1-7 over four atoms and 3-10 over eight,
        each under a random partition, a random set of broken classes and
        one 8-event trace."""
        rng = random.Random(len(pool))
        alphabet = frozenset(pool)
        definite = 0
        for _ in range(formulas):
            f = randgen.random_formula(rng, rng.randint(*sizes), pool)
            classes = random_partition(rng, pool)
            broken = {c.canonical_id for c in classes
                      if not c.is_singleton and rng.random() < 0.5}
            monitor = MonitorInstance(rational.rational_machine(f, alphabet).machine)
            residual = to_metric_form(f)
            for event in explicit_trace(random_plain_trace(rng, 8, pool), pool):
                visible = visible_event(event, classes, broken)
                verdict = monitor.step(expand_witnesses(visible, classes))
                residual = progress(residual, knowledge_from_event(visible, classes))
                if verdict == Verdict.TRUE:
                    assert residual is TRUE, (f, classes, broken)
                elif verdict == Verdict.FALSE:
                    assert residual is FALSE, (f, classes, broken)
                else:
                    continue
                definite += 1
        assert definite > formulas
