"""Formula layer: parsing, normal forms, signed translation, progression."""

import copy
import pickle
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from ltlscope import casestudy
from ltlscope.formula import (FALSE, MAX_NESTING, TRUE, Always, And, Atom,
                              Eventually, FalseConst, Formula, Implies, Lit,
                              Next, Not, Or, ParseError, Release, SLit,
                              TrueConst, UncoveredAtomError, Until, _mk_and,
                              _mk_implies, _mk_not, _mk_or, atoms, fmt, height,
                              negate_nnf, nnf_pair, parse_formula, progress,
                              to_metric_form)
from ltlscope.oracle.lasso import LassoWord, eval_lasso
from ltlscope.randgen import random_partition
from ltlscope.visibility import derive_classes, rendering_map

from conftest import is_nnf, plain_events, random_formula, to_nnf


class TestParser:
    def test_eventually_conjunction(self):
        assert parse_formula("F (c & X w)") == Eventually(And(Atom("c"), Next(Atom("w"))))

    def test_always_implication(self):
        f = parse_formula("G ((b1|b2|b3) -> X !c)")
        assert f == Always(Implies(Or(Or(Atom("b1"), Atom("b2")), Atom("b3")),
                                   Next(Not(Atom("c")))))

    def test_missing_operand_is_an_error(self):
        with pytest.raises(ParseError):
            parse_formula("p U")

    def test_unknown_token_is_an_error(self):
        with pytest.raises(ParseError) as err:
            parse_formula("p # q")
        assert err.value.pos == 2

    def test_until_is_right_associative(self):
        assert parse_formula("p U q U r") == Until(Atom("p"), Until(Atom("q"), Atom("r")))

    def test_precedence_and_over_or_over_implies(self):
        f = parse_formula("a & b | c -> d")
        assert f == Implies(Or(And(Atom("a"), Atom("b")), Atom("c")), Atom("d"))

    def test_constants(self):
        assert parse_formula("true") is TRUE
        assert parse_formula("false U p") == Until(FALSE, Atom("p"))

    def test_roundtrip_through_fmt(self, rng):
        for _ in range(50):
            f = random_formula(rng, rng.randint(1, 8))
            assert parse_formula(fmt(f)) == f

    def test_nesting_at_the_limit_synthesises(self):
        """The deepest accepted formulas parse and synthesise both monitors
        without exhausting the interpreter stack."""
        from ltlscope.monitor import synthesize_imperfect, synthesize_standard
        classes = derive_classes(("p",), [])
        for text in ("X " * MAX_NESTING + "p",
                     "(" * MAX_NESTING + "p" + ")" * MAX_NESTING,
                     " & ".join(["p"] * (MAX_NESTING + 1))):
            f = parse_formula(text)
            assert height(f) <= MAX_NESTING
            synthesize_standard(f)
            synthesize_imperfect(f, classes)

    @pytest.mark.parametrize("text", [
        "X " * (MAX_NESTING + 1) + "p",
        "(" * (MAX_NESTING + 1) + "p" + ")" * (MAX_NESTING + 1),
        "(" * 200 + "p" + ")" * 200,
        " & ".join(["p"] * (MAX_NESTING + 2)),
        " U ".join(["p"] * (MAX_NESTING + 2)),
        "X " * 400 + "p",
    ])
    def test_nesting_past_the_limit_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING} levels"):
            parse_formula(text)

    # The 400-level cases keep their plain entry ids.
    @pytest.mark.parametrize("entry, depth", [
        pytest.param(entry, depth, id=entry if depth == 400 else f"{entry}-{depth}")
        for depth in (400, 5000)
        for entry in ("standard", "imperfect", "active", "reactive")])
    def test_built_formula_past_the_limit_is_refused(self, entry, depth, monkeypatch):
        """A formula built through the API, not parsed, meets the same limit
        at every synthesis entry point, as a ValueError.  A session meets it
        at its machine, before it puts the formula in metric form.  Past
        Python's recursion limit, hashing the formula for the machine cache
        must not fail first."""
        from ltlscope import rational
        from ltlscope.monitor import synthesize_imperfect, synthesize_standard
        from ltlscope.rational import RationalConfig, active_monitor, reactive_monitor
        from ltlscope.visibility import VisibilitySpec
        metric_forms = []
        monkeypatch.setattr(rational, "to_metric_form", metric_forms.append)
        f = Atom("p")
        for _ in range(depth):
            f = Next(f)
        classes = derive_classes(("p",), [])
        spec = VisibilitySpec(classes=classes)
        run = {
            "standard": lambda: synthesize_standard(f),
            "imperfect": lambda: synthesize_imperfect(f, classes),
            "active": lambda: active_monitor([{"p"}], f, spec, RationalConfig()),
            "reactive": lambda: reactive_monitor([{"p"}], f, spec, RationalConfig(window=1)),
        }[entry]
        with pytest.raises(ValueError, match=f"deeper than {MAX_NESTING} levels"):
            run()
        assert metric_forms == []


class TestInterning:
    def test_shared_and_stepwise_builds_are_one_node(self):
        """Sixty levels of ``And(g, g)`` are 61 nodes but a tree of 2^61
        leaves: the same structure built one node at a time is the same
        object, and walks that meet each node once stay fast on it."""
        shared, stepwise = Atom("p"), Atom("p")
        for level in range(60):
            shared = And(shared, shared)
            # The right operand is rebuilt from its fields, not reused.
            right = Atom("p") if level == 0 else And(stepwise.left, stepwise.right)
            stepwise = And(stepwise, right)
        assert shared is stepwise
        assert hash(shared) == hash(stepwise)
        assert height(shared) == 60

    def test_atoms_and_the_nnf_check_meet_each_node_once(self):
        """The 60-level ``g & g`` DAG of the progression test: ``atoms``,
        ``is_nnf``, the normal forms and both monitors walk its 64 distinct
        nodes, not its 2^60 leaves, so the oracle's guard rail, which counts
        atoms first, refuses a 4-atom DAG at once, and both monitors are
        those of ``p -> X q``, built well within a second."""
        from ltlscope.monitor import synthesize_imperfect, synthesize_standard
        from ltlscope.oracle import InstanceTooLarge, oracle_verdict
        p, q = Atom("p"), Atom("q")
        g, h, neg = Implies(p, Next(q)), Or(Not(p), Next(q)), And(p, Next(Not(q)))
        signed = Or(lit("p", False), Next(lit("q"))), And(lit("p"), Next(lit("q", False)))
        for _ in range(60):
            g, h, neg = And(g, g), And(h, h), Or(neg, neg)
            signed = And(*[signed[0]] * 2), Or(*[signed[1]] * 2)
        assert atoms(g) == {"p", "q"}
        assert not is_nnf(g) and is_nnf(h)
        wide = And(g, Until(Atom("r"), Atom("s")))
        with pytest.raises(InstanceTooLarge, match="more than 3 base atoms"):
            oracle_verdict(wide, derive_classes(("p", "q", "r", "s"), []), [])
        classes = derive_classes(("p", "q"), [])
        t0 = time.perf_counter()
        assert to_nnf(g) is h and negate_nnf(g) is neg and to_metric_form(g) is g
        assert nnf_pair(g, rendering_map(classes)) == signed
        standard, imperfect = synthesize_standard(g), synthesize_imperfect(g, classes)
        assert time.perf_counter() - t0 < 1.0
        assert len(standard.machine.outputs) == 4
        assert len(imperfect.machine.outputs) == 6

    def test_parser_api_and_normal_forms_build_one_object(self, rng):
        f = parse_formula("G (p -> X !q)")
        assert f is Always(Implies(Atom("p"), Next(Not(Atom("q")))))
        assert to_nnf(f) is Release(FALSE, Or(Not(Atom("p")), Next(Not(Atom("q")))))
        assert negate_nnf(f) is Until(TRUE, And(Atom("p"), Next(Atom("q"))))
        assert to_metric_form(f) is Release(FALSE, Implies(Atom("p"), Next(Not(Atom("q")))))
        for _ in range(100):
            g = random_formula(rng, rng.randint(1, 8))
            assert parse_formula(fmt(g)) is g
            assert to_nnf(to_nnf(g)) is to_nnf(g)
            assert negate_nnf(negate_nnf(g)) is to_nnf(g)

    def test_fields_are_read_only(self):
        for node, name in ((Atom("p"), "name"), (Lit(SLit("p", True)), "lit"),
                           (Not(Atom("p")), "operand"), (Until(TRUE, FALSE), "left"),
                           (TRUE, "name")):
            with pytest.raises(AttributeError):
                setattr(node, name, Atom("q"))
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert Atom("p").name == "p"

    def test_copy_deepcopy_and_pickle_return_the_node(self):
        f = parse_formula("(p U !q) R X (F true & G false)")
        signed = Lit(SLit("[pq]", False))
        for node in (f, signed, TRUE):
            assert copy.copy(node) is node
            assert copy.deepcopy(node) is node
            assert pickle.loads(pickle.dumps(node)) is node

    def test_threads_building_one_formula_get_one_node(self):
        """Nodes no thread has built before, built by more threads than
        cores at once, with thread switches forced often."""
        names = [f"thread_fresh_{i}" for i in range(2000)]
        start = threading.Barrier(8)

        def build(_):
            start.wait(timeout=10)
            return [Until(Atom(name), Next(Atom(name))) for name in names]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(build, i) for i in range(8)]
                results = [future.result(timeout=30) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for built in results[1:]:
            assert all(a is b for a, b in zip(built, results[0]))

    def test_repr_of_every_node_type(self):
        f = And(Or(Implies(Atom("p"), Not(Lit(SLit("[ab]", False)))), Next(TRUE)),
                Until(Release(FALSE, Eventually(Atom("q"))), Always(Atom("r"))))
        assert repr(f) == str(f) == (
            "And(left=Or(left=Implies(left=Atom(name='p'), right=Not(operand=Lit("
            "lit=SLit(name='[ab]', sign=False)))), right=Next(operand=TrueConst())), "
            "right=Until(left=Release(left=FalseConst(), right=Eventually(operand="
            "Atom(name='q'))), right=Always(operand=Atom(name='r'))))")

    def test_wrong_field_count_is_a_type_error(self):
        with pytest.raises(TypeError):
            And(Atom("p"))
        with pytest.raises(TypeError):
            Atom()


def assert_truth_preserved(rng, normal_form):
    """f and normal_form(f) agree on random ultimately periodic words."""
    events = plain_events(("p", "q", "r", "s"))
    for _ in range(150):
        f = random_formula(rng, rng.randint(1, 8))
        g = normal_form(f)
        for _ in range(12):
            stem = tuple(rng.choice(events) for _ in range(rng.randint(0, 4)))
            loop = tuple(rng.choice(events) for _ in range(rng.randint(1, 4)))
            w = LassoWord(stem, loop)
            assert eval_lasso(f, w) == eval_lasso(g, w)


class TestNnf:
    def test_next_commutes_with_negation(self):
        """!X p becomes X !p."""
        assert to_nnf(Not(Next(Atom("p")))) == Next(Not(Atom("p")))

    def test_until_dualises_to_release(self):
        """!(p U q) becomes !p R !q."""
        assert to_nnf(Not(Until(Atom("p"), Atom("q")))) == \
            Release(Not(Atom("p")), Not(Atom("q")))

    def test_double_negation(self):
        assert to_nnf(Not(Not(Atom("p")))) == Atom("p")

    def test_derived_operators_expand(self):
        assert to_nnf(Eventually(Atom("p"))) == Until(TRUE, Atom("p"))
        assert to_nnf(Always(Atom("p"))) == Release(FALSE, Atom("p"))
        assert to_nnf(Implies(Atom("p"), Atom("q"))) == Or(Not(Atom("p")), Atom("q"))

    def test_output_is_nnf_and_idempotent(self, rng):
        for _ in range(200):
            f = random_formula(rng, rng.randint(1, 8))
            g = to_nnf(f)
            assert is_nnf(g)
            assert to_nnf(g) == g

    def test_language_preserved_on_lassos(self, rng):
        assert_truth_preserved(rng, to_nnf)

    def test_negation_is_complementary(self, rng):
        events = plain_events(("p", "q"))
        for _ in range(80):
            f = random_formula(rng, rng.randint(1, 6), pool=("p", "q"))
            g = negate_nnf(f)
            for _ in range(8):
                stem = tuple(rng.choice(events) for _ in range(rng.randint(0, 3)))
                loop = tuple(rng.choice(events) for _ in range(rng.randint(1, 3)))
                w = LassoWord(stem, loop)
                assert eval_lasso(f, w) != eval_lasso(g, w)


class TestMetricForm:
    def test_implication_is_kept(self):
        assert to_metric_form(parse_formula("p -> q")) == Implies(Atom("p"), Atom("q"))

    def test_negated_implication_is_a_conjunction(self):
        assert to_metric_form(parse_formula("!(p -> q)")) == And(Atom("p"), Not(Atom("q")))

    def test_implication_of_false_is_not_folded(self):
        """Constant folding keeps ``p -> false``; NNF folds it to ``!p``."""
        f = parse_formula("p -> false")
        assert to_metric_form(f) == Implies(Atom("p"), FALSE)
        assert to_nnf(f) == Not(Atom("p"))

    def test_derived_operators_expand_around_implication(self):
        form = to_metric_form(parse_formula("G (p -> F q)"))
        assert form == Release(FALSE, Implies(Atom("p"), Until(TRUE, Atom("q"))))
        assert form == parse_formula("false R (p -> (true U q))")

    def test_truth_preserved_on_lassos(self, rng):
        assert_truth_preserved(rng, to_metric_form)


CASE_CLASSES = derive_classes(
    ("b1", "b2", "b3", "c", "s", "a", "b", "g", "mb", "w"),
    [("c", "s"), ("a", "b"), ("b", "g")],
)
RENDER = rendering_map(CASE_CLASSES)


def lit(name, sign=True):
    return Lit(SLit(name, sign))


def reference_normal_forms(f: Formula, rendering=None):
    """``to_nnf``, ``negate_nnf``, ``to_metric_form`` and, with a rendering,
    the signed pair, by a recursive negation-pushing walker followed by a
    separate signed translation of the NNF.  Both visit a shared subformula
    once per occurrence."""
    binary = (
        {And: _mk_and, Or: _mk_or, Until: Until, Release: Release},
        {And: _mk_or, Or: _mk_and, Until: Release, Release: Until},
    )

    def push(f, negated, keep_implies):
        if isinstance(f, (Atom, Lit)):
            return Not(f) if negated else f
        rebuild = binary[negated].get(type(f))
        if rebuild is not None:
            return rebuild(push(f.left, negated, keep_implies), push(f.right, negated, keep_implies))
        if isinstance(f, Not):
            return push(f.operand, not negated, keep_implies)
        if isinstance(f, Next):
            return Next(push(f.operand, negated, keep_implies))
        if isinstance(f, (Eventually, Always)):
            operand = push(f.operand, negated, keep_implies)
            if isinstance(f, Eventually) != negated:
                return Until(TRUE, operand)
            return Release(FALSE, operand)
        if isinstance(f, Implies):
            if negated:
                return _mk_and(push(f.left, False, keep_implies), push(f.right, True, keep_implies))
            if keep_implies:
                return _mk_implies(push(f.left, False, True), push(f.right, False, True))
            return _mk_or(push(f.left, True, False), push(f.right, False, False))
        if isinstance(f, (TrueConst, FalseConst)):
            return _mk_not(f) if negated else f
        raise TypeError(f"not a formula: {f!r}")

    def make_signed(f):
        if isinstance(f, (TrueConst, FalseConst)):
            return f
        if isinstance(f, Atom):
            try:
                return Lit(SLit(rendering[f.name], True))
            except KeyError:
                raise UncoveredAtomError(f"atom {f.name!r} not covered by any class") from None
        if isinstance(f, Not):
            if not isinstance(f.operand, Atom):
                raise ValueError("make_signed expects an NNF formula")
            try:
                return Lit(SLit(rendering[f.operand.name], False))
            except KeyError:
                raise UncoveredAtomError(f"atom {f.operand.name!r} not covered by any class") from None
        if isinstance(f, (And, Or, Until, Release)):
            return type(f)(make_signed(f.left), make_signed(f.right))
        if isinstance(f, Next):
            return Next(make_signed(f.operand))
        raise ValueError(f"make_signed expects an NNF formula, got {f!r}")

    nnf, negated = push(f, False, False), push(f, True, False)
    signed = None if rendering is None else (make_signed(nnf), make_signed(negated))
    return nnf, negated, push(f, False, True), signed


class TestNnfPair:
    """The fold gives the very node the recursive walker gave."""

    def assert_same(self, f, rendering=None):
        nnf, negated, metric, signed = reference_normal_forms(f, rendering)
        assert to_nnf(f) is nnf, f
        assert negate_nnf(f) is negated, f
        assert to_metric_form(f) is metric, f
        if rendering is not None:
            sat, viol = nnf_pair(f, rendering)
            assert sat is signed[0] and viol is signed[1], f
            # The oracle negates the signed pair for its undefined formula.
            for branch in (sat, viol):
                assert negate_nnf(branch) is reference_normal_forms(branch)[1], branch

    def test_criterion_6_draws(self):
        rng = random.Random(20240817)
        pool = ("p", "q", "r", "s")
        for _ in range(320):
            f = random_formula(rng, rng.randint(1, 8), pool)
            self.assert_same(f, rendering_map(random_partition(rng, pool)))

    def test_rover_properties(self):
        rendering = rendering_map(casestudy.spec().classes)
        assert casestudy.CLASSES_TEXT == "c~s; a~b~g"
        for f in casestudy.formulas().values():
            self.assert_same(f, rendering)


class TestMakeSigned:
    """The signed pair of ``nnf_pair``: both normal forms translated onto
    the signed alphabet of the classes."""

    def test_liveness_property_renders_witness(self):
        """The cut atom sits in the cs class, so it renders as the witness."""
        sat, _ = nnf_pair(parse_formula("F (c & X w)"), RENDER)
        assert sat == Until(TRUE, And(lit("[cs]"), Next(lit("w"))))

    def test_negated_singleton_gets_false_sign(self):
        classes = derive_classes(("p",), [])
        sat, viol = nnf_pair(Not(Atom("p")), rendering_map(classes))
        assert sat == lit("p", False) and viol == lit("p")

    def test_no_cut_disjunction(self):
        sat, _ = nnf_pair(parse_formula("F ((!c & b1 & X b2) | (!c & b2 & X b3))"), RENDER)
        expected = Until(TRUE, Or(
            And(And(lit("[cs]", False), lit("b1")), Next(lit("b2"))),
            And(And(lit("[cs]", False), lit("b2")), Next(lit("b3"))),
        ))
        assert sat == expected

    def test_uncovered_atom_raises(self):
        with pytest.raises(UncoveredAtomError, match="'zz' not covered"):
            nnf_pair(Atom("zz"), RENDER)

    def test_structure_preserved(self, rng):
        """Stripping signs and witness indirection recovers the operator tree."""
        class_of = {a: cls for cls in CASE_CLASSES for a in cls.members}
        witness_to_rep = {cls.witness_name: cls.representative for cls in CASE_CLASSES}

        def shape(f: Formula):
            if isinstance(f, Atom):
                return ("leaf", class_of[f.name].representative, True)
            if isinstance(f, Not) and isinstance(f.operand, Atom):
                return ("leaf", class_of[f.operand.name].representative, False)
            if isinstance(f, Lit):
                name = witness_to_rep.get(f.lit.name, f.lit.name)
                return ("leaf", class_of[name].representative, f.lit.sign)
            if isinstance(f, Not) and isinstance(f.operand, Lit):
                name = witness_to_rep.get(f.operand.lit.name, f.operand.lit.name)
                return ("leaf", class_of[name].representative, not f.operand.lit.sign)
            if isinstance(f, (TrueConst, FalseConst)):
                return ("const", isinstance(f, TrueConst))
            if isinstance(f, (Next,)):
                return ("X", shape(f.operand))
            if isinstance(f, (And, Or, Until, Release)):
                return (type(f).__name__, shape(f.left), shape(f.right))
            raise AssertionError(f)

        pool = ("c", "s", "b1", "w", "g")
        for _ in range(100):
            f = random_formula(rng, rng.randint(1, 7), pool=pool)
            sat, viol = nnf_pair(f, RENDER)
            assert shape(sat) == shape(to_nnf(f))
            assert shape(viol) == shape(negate_nnf(f))


class TestUndefinedFormula:
    def test_singleton_atom(self):
        """For a bare atom the undefined companion tests absence of both signs."""
        classes = derive_classes(("p",), [])
        sat, viol = nnf_pair(Atom("p"), rendering_map(classes))
        und = And(negate_nnf(sat), negate_nnf(viol))
        assert und == And(Not(lit("p")), Not(lit("p", False)))

    def test_next_pushes_through(self):
        classes = derive_classes(("p",), [])
        sat, viol = nnf_pair(Next(Atom("p")), rendering_map(classes))
        und = And(negate_nnf(sat), negate_nnf(viol))
        assert und == And(Next(Not(lit("p"))), Next(Not(lit("p", False))))

    def test_next_undefined_language(self):
        """Exactly the words whose second event carries neither sign of p."""
        classes = derive_classes(("p",), [])
        sat, viol = nnf_pair(Next(Atom("p")), rendering_map(classes))
        und = And(negate_nnf(sat), negate_nnf(viol))
        events = [frozenset(), frozenset({SLit("p", True)}), frozenset({SLit("p", False)})]
        for e0 in events:
            for e1 in events:
                w = LassoWord((e0, e1), (frozenset(),))
                assert eval_lasso(und, w) == (len(e1) == 0)

    def test_true_has_no_undefined_words(self):
        sat = TRUE
        viol = FALSE
        und = negate_nnf(sat)
        assert isinstance(und, FalseConst)


class TestProgress:
    def test_eventually_discharges_on_truth(self):
        f = to_nnf(Eventually(Atom("p")))
        assert progress(f, {"p": True}) is TRUE

    def test_always_survives_truth(self):
        f = to_nnf(Always(Atom("p")))
        assert progress(f, {"p": True}) == f

    def test_unknown_atom_leaves_residual(self):
        assert progress(Atom("p"), {}) == Atom("p")
        assert progress(Not(Atom("p")), {}) == Not(Atom("p"))

    def test_next_shifts(self):
        assert progress(Next(Not(Atom("p"))), {"p": True}) == Not(Atom("p"))

    def test_metric_form_implication(self):
        f = to_metric_form(parse_formula("G (g -> !(b1 | b2 | b3))"))
        residual = progress(f, {"g": True, "b1": True, "b2": False, "b3": False})
        assert residual is FALSE

    def test_soundness_on_fully_known_events(self, rng):
        """Progressing through a total event preserves final monitor verdicts."""
        from ltlscope.monitor import synthesize_standard
        pool = ("p", "q")
        for _ in range(40):
            f = to_nnf(random_formula(rng, rng.randint(1, 5), pool=pool))
            event = frozenset(a for a in pool if rng.random() < 0.5)
            knowledge = {a: a in event for a in pool}
            g = progress(f, knowledge)
            tail = [frozenset(a for a in pool if rng.random() < 0.5)
                    for _ in range(rng.randint(0, 4))]
            m1 = synthesize_standard(f)
            m1.run([event] + tail)
            m2 = synthesize_standard(g) if not isinstance(g, (TrueConst, FalseConst)) else None
            if m2 is not None:
                m2.run(tail)
                v2 = m2.verdict
            else:
                from ltlscope.automata.moore import Verdict
                v2 = Verdict.TRUE if g is TRUE else Verdict.FALSE
            v1 = m1.verdict
            if v1.final or v2.final:
                assert v1 == v2
