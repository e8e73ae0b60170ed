"""Ground-truth engine: lasso evaluation, closure automata, verdict oracle."""

import time

import pytest

from ltlscope.formula import (Always, And, Atom, Eventually, Implies, Next, SLit,
                              parse_formula, to_nnf)
from ltlscope.monitor import synthesize_imperfect
from ltlscope.oracle import (InstanceTooLarge, LassoWord, OracleVerdict,
                             accepts_lasso, build_closure_automaton,
                             eval_lasso, eval_unrolled, live_states,
                             oracle_verdict, prefix_in_language)
from ltlscope.randgen import random_partition
from ltlscope.visibility import (derive_classes, explicit_trace, parse_classes,
                                 visible_trace)

from conftest import plain_events, random_formula, random_plain_trace


def ev(*names):
    return frozenset(names)


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
