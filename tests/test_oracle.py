"""Ground-truth engine: lasso evaluation, closure automata, verdict oracle."""

import time

import pytest

from ltlscope import casestudy
from ltlscope.automata.pipeline import tarjan_sccs
from ltlscope.formula import (Always, And, Atom, Eventually, FalseConst, Implies,
                              Lit, Next, Not, Or, Release, SLit, TrueConst, Until,
                              parse_formula)
from ltlscope.monitor import synthesize_imperfect
from ltlscope.oracle import (InstanceTooLarge, LassoWord, OracleVerdict,
                             accepts_lasso, build_closure_automaton,
                             eval_lasso, live_states, oracle_verdict,
                             prefix_in_language, signed_triple)
from ltlscope.oracle.closure import _live
from ltlscope.randgen import random_partition
from ltlscope.visibility import (derive_classes, explicit_trace, identity_classes,
                                 parse_classes, rendering_map, visible_trace)

from conftest import (plain_events, random_formula, random_plain_trace,
                      random_signed_event, to_nnf)


def ev(*names):
    return frozenset(names)


def eval_unrolled(f, word: LassoWord, depth: int, pos: int = 0) -> bool:
    """Naive recursive evaluation with bounded unrolling.

    Exact on Until-free formulas whose Next nesting fits in ``depth``; a
    second opinion on :func:`eval_lasso`.
    """
    if isinstance(f, TrueConst):
        return True
    if isinstance(f, FalseConst):
        return False
    if isinstance(f, Atom):
        return f.name in word.event(pos)
    if isinstance(f, Lit):
        return f.lit in word.event(pos)
    if isinstance(f, Not):
        return not eval_unrolled(f.operand, word, depth, pos)
    if isinstance(f, And):
        return eval_unrolled(f.left, word, depth, pos) and eval_unrolled(f.right, word, depth, pos)
    if isinstance(f, Or):
        return eval_unrolled(f.left, word, depth, pos) or eval_unrolled(f.right, word, depth, pos)
    if isinstance(f, Implies):
        return (not eval_unrolled(f.left, word, depth, pos)) or eval_unrolled(f.right, word, depth, pos)
    if isinstance(f, Next):
        return eval_unrolled(f.operand, word, depth, pos + 1)
    if isinstance(f, (Until, Release, Eventually, Always)):
        if depth <= 0:
            return not isinstance(f, (Until, Eventually))
        if isinstance(f, Until):
            here = eval_unrolled(f.right, word, depth, pos)
            return here or (eval_unrolled(f.left, word, depth, pos)
                            and eval_unrolled(f, word, depth - 1, pos + 1))
        if isinstance(f, Eventually):
            return (eval_unrolled(f.operand, word, depth, pos)
                    or eval_unrolled(f, word, depth - 1, pos + 1))
        if isinstance(f, Release):
            here = eval_unrolled(f.right, word, depth, pos)
            return here and (eval_unrolled(f.left, word, depth, pos)
                             or eval_unrolled(f, word, depth - 1, pos + 1))
        return (eval_unrolled(f.operand, word, depth, pos)
                and eval_unrolled(f, word, depth - 1, pos + 1))
    raise TypeError(f"not a formula: {f!r}")


def reference_live_states(aut) -> frozenset[int]:
    """Liveness as a component pass, then a backward rescan until nothing
    changes.  Components come from the pipeline's Tarjan, so a fault in the
    oracle's own component walk shows here too."""
    good: set[int] = set()
    for scc in tarjan_sccs(aut.edges, range(len(aut.states))):
        members = set(scc)
        if not any(dst in members for q in scc for dst in aut.edges.get(q, ())):
            continue
        if all(members & acc for acc in aut.accept_sets):
            good |= members
    changed = True
    while changed:
        changed = False
        for q in range(len(aut.states)):
            if q in good:
                continue
            if any(dst in good for dst in aut.edges.get(q, ())):
                good.add(q)
                changed = True
    return frozenset(good)


def reference_accepts_lasso(aut, stem, loop) -> bool:
    """Lasso membership as a component pass over the (state, loop position)
    product, a goodness test, then a forward search from the roots."""
    current = set(aut.initial)
    for event in stem:
        current = {q for q in current if aut.matches_event(q, event)}
        current = {dst for q in current for dst in aut.edges.get(q, ())}
        if not current:
            return False
    k = len(loop)
    prod_edges: dict[tuple[int, int], list[tuple[int, int]]] = {}
    seen: set[tuple[int, int]] = set()
    work = [(q, 0) for q in current]
    roots = list(work)
    seen.update(work)
    while work:
        q, p = work.pop()
        if not aut.matches_event(q, loop[p]):
            prod_edges[(q, p)] = []
            continue
        succ = [(dst, (p + 1) % k) for dst in aut.edges.get(q, ())]
        prod_edges[(q, p)] = succ
        for s in succ:
            if s not in seen:
                seen.add(s)
                work.append(s)
    nodes = sorted(seen)
    ids = {s: i for i, s in enumerate(nodes)}
    int_edges = {ids[s]: [ids[d] for d in prod_edges.get(s, ())] for s in nodes}
    good: set[int] = set()
    for scc in tarjan_sccs(int_edges, range(len(nodes))):
        members = set(scc)
        if not any(dst in members for q in scc for dst in int_edges.get(q, ())):
            continue
        if all(any(nodes[m][0] in acc for m in members) for acc in aut.accept_sets):
            good |= members
    if not good:
        return False
    reach = {ids[r] for r in roots}
    frontier = set(reach)
    while frontier:
        if frontier & good:
            return True
        frontier = {d for q in frontier for d in int_edges.get(q, ())} - reach
        reach |= frontier
    return False


class TestEvalLasso:
    def test_eventually_true(self):
        assert eval_lasso(parse_formula("F p"), LassoWord((ev(),), (ev("p"),)))

    def test_always_false(self):
        assert not eval_lasso(parse_formula("G p"), LassoWord((ev("p"),), (ev(),)))

    def test_until_needs_left_to_hold(self):
        f = parse_formula("p U q")
        assert eval_lasso(f, LassoWord((ev("p"), ev("q")), (ev(),)))
        assert not eval_lasso(f, LassoWord((ev(), ev("q")), (ev(),)))

    def test_loop_must_be_nonempty(self):
        with pytest.raises(ValueError):
            LassoWord((ev(),), ())

    def test_case_study_liveness_on_broken_trace(self):
        """The visible trace with the cut class broken, looped on empty
        events, satisfies the cut-warning formula rendered over the broken
        (individually visible) literals, matching the active monitor's TRUE."""
        from ltlscope.oracle.verdict import signed_triple
        from ltlscope.visibility import identity_classes
        alphabet = ("b1", "b2", "b3", "c", "s", "a", "b", "g", "mb", "w")
        classes = derive_classes(alphabet, [("c", "s"), ("a", "b"), ("b", "g")])
        sigma = [set(), {"g", "b1", "c"}, {"g", "c", "mb", "b2"}, {"c"}, {"w"}]
        sv = visible_trace(explicit_trace(sigma, alphabet), classes, ("cs",))
        sat, _, _ = signed_triple(parse_formula("F (c & X w)"), identity_classes(alphabet))
        word = LassoWord(tuple(sv), (frozenset(),))
        assert eval_lasso(sat, word)

    def test_agrees_with_naive_unrolled_on_until_free(self, rng):
        events = plain_events(("p", "q"))
        for _ in range(100):
            f = random_formula(rng, rng.randint(1, 6), pool=("p", "q"))
            if any(isinstance(g, (Eventually, Always)) or type(g).__name__ in ("Until", "Release")
                   for g in _walk(f)):
                continue
            stem = tuple(rng.choice(events) for _ in range(rng.randint(0, 3)))
            loop = tuple(rng.choice(events) for _ in range(rng.randint(1, 3)))
            w = LassoWord(stem, loop)
            depth = len(stem) + 2 * len(loop)
            assert eval_lasso(f, w) == eval_unrolled(f, w, depth)


def _walk(f):
    yield f
    for attr in ("operand", "left", "right"):
        child = getattr(f, attr, None)
        if child is not None:
            yield from _walk(child)


class TestClosureAutomaton:
    def test_lasso_agreement(self, rng):
        events = plain_events(("p", "q"))
        for _ in range(40):
            f = to_nnf(random_formula(rng, rng.randint(1, 5), pool=("p", "q")))
            aut = build_closure_automaton(f, signed=False)
            for _ in range(15):
                stem = tuple(rng.choice(events) for _ in range(rng.randint(0, 3)))
                loop = tuple(rng.choice(events) for _ in range(rng.randint(1, 3)))
                assert (eval_lasso(f, LassoWord(stem, loop))
                        == accepts_lasso(aut, stem, loop))

    def test_prefix_language_of_safety(self):
        f = to_nnf(parse_formula("G p"))
        aut = build_closure_automaton(f, signed=False)
        live = live_states(aut)
        assert prefix_in_language(aut, [ev("p"), ev("p")], live)
        assert not prefix_in_language(aut, [ev("p"), ev()], live)


def _assert_liveness_matches_reference(rng, aut, events, lassos):
    assert live_states(aut) == reference_live_states(aut)
    for _ in range(lassos):
        stem = tuple(rng.choice(events) for _ in range(rng.randint(0, 3)))
        loop = tuple(rng.choice(events) for _ in range(rng.randint(1, 3)))
        assert accepts_lasso(aut, stem, loop) == reference_accepts_lasso(aut, stem, loop)


def _until_chain(count: int, pool=("p", "q", "r")):
    """``p U (q U (r U (p U …)))`` with ``count`` operands."""
    chain = Atom(pool[(count - 1) % len(pool)])
    for i in range(count - 2, -1, -1):
        chain = Until(Atom(pool[i % len(pool)]), chain)
    return chain


class TestLiveness:
    """One component pass decides liveness of states and of lasso words;
    the references are the component pass with a rescan and a forward
    search that it replaced."""

    @pytest.mark.parametrize("structure", ["case study", "singleton"])
    def test_rover_automata_match_reference(self, rng, structure):
        classes = (casestudy.spec().classes if structure == "case study"
                   else identity_classes(casestudy.ALPHABET))
        names = sorted(set(rendering_map(classes).values()))
        events = [random_signed_event(rng, names) for _ in range(12)]
        for _, text in casestudy.PROPERTIES:
            for g in signed_triple(parse_formula(text), classes):
                aut = build_closure_automaton(g, signed=True)
                _assert_liveness_matches_reference(rng, aut, events, 4)

    def test_seeded_formulas_match_reference(self, rng):
        events = plain_events(("p", "q", "r"))
        for _ in range(300):
            f = random_formula(rng, rng.randint(1, 9), pool=("p", "q", "r"))
            for branch in (f, Not(f)):
                aut = build_closure_automaton(to_nnf(branch), signed=False)
                _assert_liveness_matches_reference(rng, aut, events, 3)

    @pytest.mark.parametrize("count", range(2, 8))
    def test_until_chains_match_reference(self, rng, count):
        events = plain_events(("p", "q", "r"))
        chain = _until_chain(count)
        for branch in (chain, Not(chain)):
            aut = build_closure_automaton(to_nnf(branch), signed=False)
            _assert_liveness_matches_reference(rng, aut, events, 10)

    @pytest.mark.parametrize("edges, n, accept_sets, live", [
        pytest.param({0: [0]}, 1, [{0}], {0}, id="self-loop"),
        pytest.param({0: [0]}, 1, [{1}], set(), id="self-loop-missing-a-set"),
        pytest.param({0: []}, 1, [{0}], set(), id="no-edge-every-set"),
        pytest.param({0: [1], 1: []}, 2, [{0, 1}], set(), id="acyclic-every-set"),
        pytest.param({0: [0, 1], 1: [1]}, 2, [{1}, {1}], {0, 1}, id="downstream-meets-all"),
        pytest.param({0: [0, 1], 1: [1]}, 2, [{0}, {0, 1}], {0}, id="upstream-meets-all"),
        pytest.param({0: [0, 1], 1: []}, 2, [{0}, {1}], set(), id="cycle-meets-one-of-two"),
        pytest.param({0: [1], 1: [0], 2: [0], 3: []}, 4, [], {0, 1, 2}, id="no-sets"),
        pytest.param({}, 0, [{0}], set(), id="empty-graph"),
        pytest.param({}, 0, [], set(), id="empty-graph-no-sets"),
    ])
    def test_live_on_hand_built_graphs(self, edges, n, accept_sets, live):
        accept_sets = [frozenset(acc) for acc in accept_sets]
        assert _live(edges, n, accept_sets) == live


LEMMA1_CLASSES = derive_classes(("p", "q", "r"), [("p", "q")])


class TestOracleVerdict:
    def test_atomic_truth(self):
        classes = derive_classes(("p",), [])
        verdict = oracle_verdict(Atom("p"), classes, [frozenset({SLit("p", True)})], bound=4)
        assert verdict == OracleVerdict.TRUE

    def test_lemma1_prefix_sits_outside_both_languages(self):
        """The hidden-p trace can neither satisfy nor violate the next-p
        property, landing in the forever-undefined bucket."""
        sigma = [set(), {"p"}]
        sv = visible_trace(explicit_trace(sigma, ("p", "q", "r")), LEMMA1_CLASSES, ())
        verdict = oracle_verdict(Next(Atom("p")), LEMMA1_CLASSES, sv, bound=8)
        assert verdict == OracleVerdict.UU

    def test_case_study_no_cut_cell(self):
        alphabet = ("b1", "b2", "b3", "c", "s", "a", "b", "g", "mb", "w")
        classes = derive_classes(alphabet, [("c", "s"), ("a", "b"), ("b", "g")])
        sigma = [set(), {"g", "b1", "c"}, {"g", "c", "mb", "b2"}, {"c"}, {"w"}]
        sv = visible_trace(explicit_trace(sigma, alphabet), classes, ())
        f = parse_formula("F ((!c & b1 & X b2) | (!c & b2 & X b3))")
        verdict = oracle_verdict(f, classes, sv, bound=0, allow_large=True)
        assert verdict == OracleVerdict.UNKNOWN_NOT_FALSE

    def test_guard_rails(self):
        f = parse_formula("F (p & q & r & s)")
        classes = derive_classes(("p", "q", "r", "s"), [])
        with pytest.raises(InstanceTooLarge):
            oracle_verdict(f, classes, [], bound=4)

    def test_shared_subformulas_are_visited_once(self):
        """Sixteen levels of ``h & h`` over ``h = p -> X q``: 19 distinct
        nodes, 2^16 occurrences of ``h``.  The closure automaton and the
        lasso evaluator list each distinct node once; sorting every
        occurrence by its size took about 11 s."""
        h = Implies(Atom("p"), Next(Atom("q")))
        for _ in range(16):
            h = And(h, h)
        classes = parse_classes("p; q")
        t0 = time.perf_counter()
        verdict = oracle_verdict(h, classes, [])
        holds = eval_lasso(h, LassoWord((ev("p"),), (ev("q"),)))
        assert time.perf_counter() - t0 < 1.0
        assert verdict == OracleVerdict.UNKNOWN
        assert holds

    def test_agrees_with_pipeline_on_small_instances(self, rng):
        pool = ("p", "q", "r")
        agreements = 0
        for _ in range(40):
            f = random_formula(rng, rng.randint(1, 5), pool=pool)
            classes = random_partition(rng, pool)
            monitor = synthesize_imperfect(f, classes)
            trace = random_plain_trace(rng, rng.randint(0, 5), pool)
            sv = visible_trace(explicit_trace(trace, pool), classes, ())
            monitor.run(sv)
            bound = len(monitor.machine.outputs)
            want = oracle_verdict(f, classes, sv, bound=bound)
            assert monitor.verdict.value == want.value
            agreements += 1
        assert agreements == 40
