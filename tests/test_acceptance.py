"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 holds the case-study grid to the published table on every cell
but the six in ``DISPUTED_CELLS``.  Those published values cannot come from a
sound six-valued monitor on the grid's own visible traces; each is held
instead to its recorded sound verdict, to the independent oracle, and to the
structural argument that settles it (visible atoms, classes broken).
"""

import itertools
import random
import statistics
import time

from ltlscope.automata import Verdict
from ltlscope.automata.moore import REFINEMENTS
from ltlscope.casestudy import (DISPUTED_CELLS, FLAGGED_CELL, GLOBAL_TRACE,
                                formulas, run_grid)
from ltlscope.cli import run_metrics_experiment
from ltlscope.formula import Next, Atom, parse_formula, to_metric_form
from ltlscope.monitor import synthesize_imperfect, synthesize_standard
from ltlscope.oracle.verdict import OracleVerdict, oracle_verdict
from ltlscope.randgen import (derive_seed, experiment_visibility,
                              random_formula, random_partition,
                              random_plain_trace)
from ltlscope.rational import (METRICS, RationalConfig, active_monitor,
                               knapsack, metric, rational_machine,
                               reactive_monitor)
from ltlscope.visibility import (VisibilitySpec, derive_classes,
                                 explicit_trace, parse_classes, visible_trace)

from conftest import accepts_prefix, payoff, prefix_nfa

SEED = 20240817


def report(criterion: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {criterion:02d} {name}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line)


# ---------------------------------------------------------------------------
# 1. Case-study grid
# ---------------------------------------------------------------------------

def test_criterion_01_case_study_grid():
    t0 = time.perf_counter()
    cells = run_grid(with_oracle=True)
    elapsed = time.perf_counter() - t0
    by_key = {(c.row, c.prop): c for c in cells}
    disputed = set(DISPUTED_CELLS)
    undisputed = set(by_key) - disputed
    mismatched = {key for key, c in by_key.items() if not c.matches}
    # Undisputed cells are held to the published verdict, disputed ones to
    # their recorded sound verdict, which must differ from the published one
    # and equal the oracle's.
    failing = sorted(
        (c.row, c.prop) for c in cells
        if c.verdict != c.sound
        or ((c.row, c.prop) in disputed
            and (c.matches or c.oracle is None or c.oracle.value != c.verdict.value)))
    in_time = elapsed < 10.0
    report(1, "case-study grid: published table, disputed cells at the oracle",
           not failing and mismatched == disputed and in_time,
           f"{len(undisputed - mismatched)}/{len(undisputed)} undisputed cells match, "
           f"{len(disputed - set(failing))}/{len(disputed)} disputed cells sound, "
           f"{elapsed:.2f}s")
    assert len(by_key) == 35 and disputed <= set(by_key)
    assert in_time, f"grid took {elapsed:.2f}s"
    detail = "; ".join(
        f"{c.row}/{c.prop}: computed {c.verdict.symbol}, published {c.expected.symbol}, "
        f"sound {c.sound.symbol}, oracle {c.oracle.value if c.oracle else '-'}"
        for c in (by_key[key] for key in failing))
    assert not failing, (
        "case-study grid differs on: " + detail +
        " -- undisputed cells must equal the published grid, disputed cells "
        "their recorded sound verdict and the oracle "
        "(see ltlscope casestudy --oracle)")
    assert mismatched == disputed, sorted(mismatched ^ disputed)

    # The structural evidence behind the disputed cells.  With abg broken,
    # every atom of phi2 and psi3 is visible, so the standard monitor on the
    # unfiltered trace decides them; the reactive row breaks abg throughout.
    props = formulas()
    for prop in ("phi2", "psi3"):
        std = synthesize_standard(props[prop])
        std.run(GLOBAL_TRACE)
        for row in ("active2", "reactive"):
            assert by_key[row, prop].verdict == std.verdict, f"{row}/{prop}"
        reactive = by_key["reactive", prop].run
        assert all("abg" in broken for broken in reactive.broken_per_window), (
            f"reactive/{prop} broke {reactive.broken_per_window}")
    # phi3 mentions no member of abg, so breaking abg cannot move its verdict.
    assert by_key["active2", "phi3"].verdict == by_key["imperfect", "phi3"].verdict


# ---------------------------------------------------------------------------
# 2. Flagged cell
# ---------------------------------------------------------------------------

def test_criterion_02_flagged_cell_oracle_arbitration():
    cells = run_grid(with_oracle=True)
    cell = next(c for c in cells if (c.row, c.prop) == FLAGGED_CELL)
    ok = (cell.oracle is not None
          and cell.oracle == OracleVerdict.UNKNOWN_NOT_FALSE
          and cell.verdict == Verdict.UNKNOWN_NOT_FALSE
          and cell.expected == Verdict.TRUE
          and not cell.matches)
    report(2, "flagged cell arbitrated by the oracle, discrepancy reported", ok,
           f"published {cell.expected.symbol}, oracle {cell.oracle.value if cell.oracle else '?'}")
    assert ok


# ---------------------------------------------------------------------------
# 3. Example: liveness payoffs and the active verdict
# ---------------------------------------------------------------------------

def test_criterion_03_liveness_payoff_knapsack_verdict():
    alphabet = ("b1", "b2", "b3", "c", "s", "a", "b", "g", "mb", "w")
    classes = parse_classes("c~s; a~b~g", alphabet)
    costs = {"cs": 2, "abg": 3}
    f = parse_formula("F (c & X w)")
    pays = payoff([c for c in classes if not c.is_singleton], f, METRICS["metric2"])
    selection = knapsack(pays, costs, 3, {"cs": 2, "abg": 3})
    spec = VisibilitySpec(classes=classes, costs=costs, bound=3)
    sigma = [set(), {"g", "b1", "c"}, {"g", "c", "mb", "b2"}, {"c"}, {"w"}]
    run = active_monitor(sigma, f, spec, RationalConfig(metric="metric2", bound=3))
    ok = (pays["cs"] == 0.7 and pays["abg"] == 0.0
          and selection == frozenset({"cs"}) and run.final == Verdict.TRUE)
    report(3, "liveness payoffs 0.7/0.0, knapsack breaks cs, verdict TRUE", ok,
           f"payoffs {pays}, selection {sorted(selection)}, verdict {run.final.symbol}")
    assert pays["cs"] == 0.7
    assert pays["abg"] == 0.0
    assert selection == frozenset({"cs"})
    assert run.final == Verdict.TRUE


# ---------------------------------------------------------------------------
# 4. Example: disjoined safety metrics and the reactive verdict
# ---------------------------------------------------------------------------

def test_criterion_04_disjoined_safety_metrics_and_reactive():
    alphabet = ("b1", "b2", "b3", "c", "s", "a", "b", "g", "mb", "w")
    classes = parse_classes("c~s; a~b~g", alphabet)
    f = parse_formula("(G ((b1 | b2 | b3) -> X !c)) | (G (g -> !(b1 | b2 | b3)))")
    form = to_metric_form(f)
    spec2 = METRICS["metric2"]
    values = {atom: metric(form, atom, spec2) for atom in ("c", "g", "s", "a", "b")}
    pays = payoff([c for c in classes if not c.is_singleton], f, spec2)
    selection = knapsack(pays, {"cs": 2, "abg": 3}, 3, {"cs": 2, "abg": 3})
    vspec = VisibilitySpec(classes=classes, costs={"cs": 2, "abg": 3}, bound=3)
    sigma = [set(), {"g", "b1", "c"}, {"g", "c", "mb", "b2"}, {"c"}, {"w"}]
    run = reactive_monitor(sigma, f, vspec,
                           RationalConfig(metric="metric2", bound=3, window=2))
    ok = (abs(values["c"] - 0.175) <= 1e-9 and abs(values["g"] - 0.175) <= 1e-9
          and values["s"] == values["a"] == values["b"] == 0.0
          and selection == frozenset({"abg"}) and run.final == Verdict.FALSE)
    report(4, "safety metrics 0.175/0.175, tie to abg, reactive FALSE", ok,
           f"metrics {values}, first break {sorted(selection)}, verdict {run.final.symbol}")
    assert abs(values["c"] - 0.175) <= 1e-9
    assert abs(values["g"] - 0.175) <= 1e-9
    assert values["s"] == 0.0 and values["a"] == 0.0 and values["b"] == 0.0
    assert selection == frozenset({"abg"})
    assert run.final == Verdict.FALSE


# ---------------------------------------------------------------------------
# 5. Lemma 1 counterexample
# ---------------------------------------------------------------------------

def test_criterion_05_lemma1_counterexample():
    from ltlscope.automata import ltl_to_nba
    from ltlscope.oracle.verdict import signed_triple
    classes = derive_classes(("p", "q", "r"), [("p", "q")])
    sat, viol, _ = signed_triple(Next(Atom("p")), classes)
    sigma = [set(), {"p"}]
    sv = visible_trace(explicit_trace(sigma, ("p", "q", "r")), classes, ())
    memberships = [accepts_prefix(prefix_nfa(ltl_to_nba((g,), signed=True)), sv)
                   for g in (sat, viol)]
    ok = memberships == [False, False]
    report(5, "hidden-atom prefix outside both prefix languages", ok,
           f"memberships sat={memberships[0]}, viol={memberships[1]}")
    assert memberships == [False, False]


# ---------------------------------------------------------------------------
# 6. Property suite, 10,000 cases
# ---------------------------------------------------------------------------

def test_criterion_06_property_suite():
    t0 = time.perf_counter()
    n_formulas, n_traces = 400, 25
    rng = random.Random(SEED)
    pool = ("p", "q", "r", "s")
    cases = lemma2_ok = finality_ok = batch_ok = 0
    impossible_states = 0

    for i in range(n_formulas):
        f = random_formula(rng, rng.randint(1, 8), pool)
        classes = random_partition(rng, pool)
        try:
            imperfect = synthesize_imperfect(f, classes)
        except AssertionError:
            impossible_states += 1
            continue
        standard = synthesize_standard(f)
        for j in range(n_traces):
            cases += 1
            trace = random_plain_trace(rng, rng.randint(1, 12), pool)
            sv = visible_trace(explicit_trace(trace, pool), classes, ())

            incremental = imperfect.clone()
            incremental.reset()
            seen = []
            previous = incremental.verdict
            monotone = True
            for event in sv:
                current = incremental.step(event)
                if current not in REFINEMENTS[previous]:
                    monotone = False
                previous = current
                seen.append(current)
            if monotone:
                finality_ok += 1

            batch = imperfect.clone()
            batch.reset()
            batch.run(sv)
            if batch.current == incremental.current and batch.verdict == seen[-1]:
                batch_ok += 1

            std = standard.clone()
            std.reset()
            std.run(trace)
            definite = incremental.verdict in (Verdict.TRUE, Verdict.FALSE)
            if not definite or std.verdict == incremental.verdict:
                lemma2_ok += 1

    elapsed = time.perf_counter() - t0
    ok = (cases == 10000 and lemma2_ok == cases and finality_ok == cases
          and batch_ok == cases and impossible_states == 0 and elapsed < 300)
    report(6, "property suite (Lemma 2, impossible states, finality, batch=incremental)",
           ok, f"{cases} cases, lemma2 {lemma2_ok}, finality {finality_ok}, "
               f"batch {batch_ok}, impossible {impossible_states}, {elapsed:.0f}s")
    assert cases == 10000
    assert impossible_states == 0
    assert lemma2_ok == cases
    assert finality_ok == cases
    assert batch_ok == cases
    assert elapsed < 300


# ---------------------------------------------------------------------------
# 7. Oracle equivalence, 1,000 instances
# ---------------------------------------------------------------------------

def test_criterion_07_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 1)
    pool = ("p", "q", "r")
    agreements = cases = 0
    for i in range(200):
        f = random_formula(rng, rng.randint(1, 6), pool)
        classes = random_partition(rng, pool)
        monitor = synthesize_imperfect(f, classes)
        bound = len(monitor.machine.outputs)
        for j in range(5):
            cases += 1
            trace = random_plain_trace(rng, rng.randint(0, 5), pool)
            sv = visible_trace(explicit_trace(trace, pool), classes, ())
            run = monitor.clone()
            run.reset()
            run.run(sv)
            want = oracle_verdict(f, classes, sv, bound=bound)
            if run.verdict.value == want.value:
                agreements += 1
    elapsed = time.perf_counter() - t0
    ok = cases == 1000 and agreements == cases and elapsed < 300
    report(7, "pipeline equals oracle on 1,000 small instances", ok,
           f"{agreements}/{cases} agree, {elapsed:.0f}s")
    assert cases == 1000
    assert agreements == cases
    assert elapsed < 300


# ---------------------------------------------------------------------------
# 8. Knapsack optimality, 1,000 instances
# ---------------------------------------------------------------------------

def test_criterion_08_knapsack_optimality():
    rng = random.Random(SEED + 2)
    optimal = feasible = 0
    n_cases = 1000
    for _ in range(n_cases):
        n = rng.randint(1, 12)
        ids = [f"k{i}" for i in range(n)]
        pays = {i: rng.choice([0.0, round(rng.random(), 6)]) for i in ids}
        costs = {i: rng.randint(0, 6) for i in ids}
        sizes = {i: rng.randint(1, 4) for i in ids}
        bound = rng.randint(0, 10)
        chosen = knapsack(pays, costs, bound, sizes, seed=rng.randint(0, 999))
        if sum(costs[i] for i in chosen) <= bound:
            feasible += 1
        best = 0.0
        for r in range(n + 1):
            for combo in itertools.combinations(ids, r):
                if sum(costs[i] for i in combo) <= bound:
                    best = max(best, sum(pays[i] for i in combo))
        if abs(sum(pays[i] for i in chosen) - best) <= 1e-9:
            optimal += 1
    ok = optimal == n_cases and feasible == n_cases
    report(8, "knapsack payoff-optimal and cost-feasible vs brute force", ok,
           f"{optimal}/{n_cases} optimal, {feasible}/{n_cases} feasible")
    assert optimal == n_cases
    assert feasible == n_cases


# ---------------------------------------------------------------------------
# 9. Performance shape
# ---------------------------------------------------------------------------

def test_criterion_09_per_event_time_constant():
    import gc
    f = parse_formula("G (p -> F q)")
    vspec = experiment_visibility(random.Random(SEED + 3))
    monitor = rational_machine(f, vspec.alphabet)
    lengths = (100, 1000, 10000)
    from ltlscope.visibility import expand_witnesses
    events = {}
    for length in lengths:
        trace = random_plain_trace(random.Random(derive_seed(SEED, length)), length)
        sv = [frozenset(ev) for ev in
              visible_trace(explicit_trace(trace, sorted(vspec.alphabet)), vspec.classes, ())]
        events[length] = [expand_witnesses(ev, vspec.classes) for ev in sv]
    # Short traces are replayed within a timed run so every sample covers
    # enough events for the scheduler jitter to wash out.  Every lap times
    # all three lengths in turn, so load that comes and goes lands on all
    # of them alike.
    samples = {length: [] for length in lengths}
    gc.collect()
    gc.disable()
    try:
        for rep in range(7):
            for length in lengths:
                replays = max(1, 4000 // length)
                t0 = time.perf_counter()
                for _ in range(replays):
                    cursor = monitor.clone()
                    cursor.reset()
                    for event in events[length]:
                        cursor.step(event)
                elapsed = (time.perf_counter() - t0) / (length * replays)
                if rep >= 2:  # discard warm-up laps
                    samples[length].append(elapsed)
    finally:
        gc.enable()
    per_event = {length: statistics.median(samples[length]) for length in lengths}

    ratio = max(per_event.values()) / min(per_event.values())
    ok = ratio <= 2.0
    detail = ", ".join(f"{n}: {v * 1e9:.0f}ns" for n, v in per_event.items())
    report(9, "per-event verification time constant within 2x", ok,
           f"{detail}, ratio {ratio:.2f}")

    # Synthesis growth is recorded, not asserted (machine dependent).
    synth_ms = []
    for size in (1, 2, 3, 4, 5, 6):
        rng = random.Random(derive_seed(SEED, 9, size))
        g = random_formula(rng, size)
        from ltlscope.monitor import clear_machine_caches
        rational_machine.cache_clear()
        clear_machine_caches()
        t0 = time.perf_counter()
        rational_machine(g, vspec.alphabet)
        synth_ms.append((size, (time.perf_counter() - t0) * 1000.0))
    print("         synthesis growth (size, ms):",
          ", ".join(f"({s}, {m:.1f})" for s, m in synth_ms))
    assert ratio <= 2.0


# ---------------------------------------------------------------------------
# 10. Metric comparison, directional
# ---------------------------------------------------------------------------

def test_criterion_10_metric_comparison_directional():
    t0 = time.perf_counter()
    counts = run_metrics_experiment(1000, 20, SEED + 4, ["metric0", "metric2"], size=4)
    total = 1000 * 20
    uu0 = counts["metric0"]["UU"]
    uu2 = counts["metric2"]["UU"]
    partition_ok = all(sum(counts[m].values()) == total for m in counts)
    ok = uu2 <= uu0 and partition_ok
    elapsed = time.perf_counter() - t0
    report(10, "uu-rate(metric2) <= uu-rate(metric0) on the default corpus", ok,
           f"uu metric2 {uu2} vs metric0 {uu0} of {total}, {elapsed:.0f}s")
    assert partition_ok
    assert uu2 <= uu0
