"""Classes, witnesses, and the explicit/visible trace forms."""

from dataclasses import replace

import pytest

from ltlscope import casestudy
from ltlscope.formula import SLit, is_literal_name, parse_formula
from ltlscope.visibility import (EqClass, VisibilitySpec, check_consistent,
                                 derive_classes, expand_witnesses,
                                 explicit_trace, identity_classes,
                                 knowledge_from_event, parse_classes,
                                 rendering_map, standard_view, visible_trace)

ALPHABET = ("b1", "b2", "b3", "c", "s", "a", "b", "g", "mb", "w")
RELATION = [("c", "s"), ("a", "b"), ("b", "g")]


def sl(name, sign=True):
    return SLit(name, sign)


def ev(*tokens):
    out = set()
    for tok in tokens:
        name, _, value = tok.partition("=")
        out.add(SLit(name, value == "1"))
    return frozenset(out)


@pytest.mark.parametrize("name, ok", [
    ("p", True), ("b1", True), ("[cs]", True), ("[abg]", True), ("[true]", True),
    ("[_a1]", True), ("", False), ("5", False), ("5 6", False), ("true", False),
    ("X", False), ("[]", False), ("[5]", False), ("[p q]", False), ("[p", False),
    ("p]", False), ("[[p]]", False), ("p=1", False),
])
def test_literal_names(name, ok):
    """A signed literal names an atom or a class witness ``[x]``, with ``x``
    a word of atom-name characters."""
    assert is_literal_name(name) is ok


class TestDeriveClasses:
    def test_case_study_partition(self):
        classes = derive_classes(ALPHABET, RELATION)
        groups = {cls.canonical_id for cls in classes}
        assert "cs" in groups and "abg" in groups
        singletons = [cls for cls in classes if cls.is_singleton]
        assert len(singletons) == 5

    def test_empty_relation_gives_singletons(self):
        classes = derive_classes(("x", "y"), [])
        assert all(cls.is_singleton for cls in classes)

    def test_closure_is_idempotent(self):
        classes = derive_classes(("a", "b", "c"), [("a", "b"), ("b", "c"), ("c", "a")])
        assert len(classes) == 1 and classes[0].members == frozenset("abc")

    def test_unknown_atom_rejected(self):
        with pytest.raises(ValueError):
            derive_classes(("a",), [("a", "zz")])

    def test_witness_and_id(self):
        cls = EqClass(frozenset({"c", "s"}))
        assert cls.canonical_id == "cs"
        assert cls.representative == "c"
        assert cls.witness_name == "[cs]"

    def test_witness_names_are_literal_names(self):
        for text in ("c~s; a~b~g", "tr~ue", "b1~b2~_x", "p"):
            for cls in parse_classes(text):
                assert is_literal_name(cls.witness_name)

    def test_classes_sharing_a_witness_name_are_refused(self):
        """``ab~c`` and ``a~bc`` would both render as ``[abc]``."""
        with pytest.raises(ValueError, match=r"a~bc and ab~c share the witness name '\[abc\]'"):
            parse_classes("ab~c; a~bc")

    def test_derived_classes_sharing_a_witness_name_are_refused(self):
        with pytest.raises(ValueError, match=r"a~bc and ab~c share the witness name '\[abc\]'"):
            derive_classes(("ab", "c", "a", "bc"), [("ab", "c"), ("a", "bc")])

    def test_parse_classes_syntax(self):
        classes = parse_classes("c~s; a~b~g", ALPHABET)
        assert {c.canonical_id for c in classes if not c.is_singleton} == {"cs", "abg"}
        with pytest.raises(ValueError):
            parse_classes("c~s; q!!", ALPHABET)


CLASSES = derive_classes(ALPHABET, RELATION)

# The running example's global trace.
SIGMA = (
    frozenset(),
    frozenset({"g", "b1", "c"}),
    frozenset({"g", "c", "mb", "b2"}),
    frozenset({"c"}),
    frozenset({"w"}),
)


class TestExplicitTrace:
    def test_all_false_event(self):
        sigma_e = explicit_trace(SIGMA, ALPHABET)
        assert sigma_e[0] == ev("b1=0", "b2=0", "b3=0", "c=0", "s=0", "a=0",
                                "b=0", "g=0", "mb=0", "w=0")

    def test_mixed_event(self):
        sigma_e = explicit_trace(SIGMA, ALPHABET)
        assert sigma_e[1] == ev("b1=1", "b2=0", "b3=0", "c=1", "s=0", "a=0",
                                "b=0", "g=1", "mb=0", "w=0")

    def test_singleton_alphabet(self):
        assert explicit_trace([{"p"}], ("p",)) == [ev("p=1")]

    def test_every_atom_signed_exactly_once(self):
        sigma_e = explicit_trace(SIGMA, ALPHABET)
        for event in sigma_e:
            names = sorted(lit.name for lit in event)
            assert names == sorted(ALPHABET)

    def test_unknown_atom_rejected(self):
        with pytest.raises(ValueError):
            explicit_trace([{"zz"}], ALPHABET)


class TestVisibleTrace:
    def test_disagreeing_classes_emit_nothing(self):
        sigma_e = explicit_trace(SIGMA, ALPHABET)
        sv = visible_trace(sigma_e, CLASSES, ())
        assert sv[1] == ev("b1=1", "b2=0", "b3=0", "mb=0", "w=0")

    def test_agreeing_classes_emit_witnesses(self):
        sigma_e = explicit_trace(SIGMA, ALPHABET)
        sv = visible_trace(sigma_e, CLASSES, ())
        assert sv[0] == ev("b1=0", "b2=0", "b3=0", "[cs]=0", "[abg]=0", "mb=0", "w=0")

    def test_breaking_reveals_members(self):
        sigma_e = explicit_trace(SIGMA, ALPHABET)
        sv = visible_trace(sigma_e, CLASSES, ("cs",))
        assert sv[1] == ev("b1=1", "b2=0", "b3=0", "c=1", "s=0", "mb=0", "w=0")

    def test_breaking_singleton_rejected(self):
        sigma_e = explicit_trace(SIGMA, ALPHABET)
        with pytest.raises(ValueError):
            visible_trace(sigma_e, CLASSES, ("w",))

    def test_full_break_roundtrips(self, rng):
        """With every class broken the visible trace equals the explicit one."""
        for _ in range(25):
            trace = [frozenset(a for a in ALPHABET if rng.random() < 0.5)
                     for _ in range(rng.randint(1, 6))]
            sigma_e = explicit_trace(trace, ALPHABET)
            sv = visible_trace(sigma_e, CLASSES, ("cs", "abg"))
            assert sv == sigma_e

    def test_witness_agreement(self, rng):
        """A witness literal appears exactly when every member shares its sign."""
        for _ in range(50):
            trace = [frozenset(a for a in ALPHABET if rng.random() < 0.5)]
            sigma_e = explicit_trace(trace, ALPHABET)
            sv = visible_trace(sigma_e, CLASSES, ())[0]
            truth = {lit.name: lit.sign for lit in sigma_e[0]}
            for cls in CLASSES:
                if cls.is_singleton:
                    continue
                signs = {truth[m] for m in cls.members}
                expected = {SLit(cls.witness_name, signs.copy().pop())} if len(signs) == 1 else set()
                got = {lit for lit in sv if lit.name == cls.witness_name}
                assert got == expected

    def test_monotone_information(self, rng):
        """Everything known under a broken set stays known under a superset."""
        for _ in range(50):
            trace = [frozenset(a for a in ALPHABET if rng.random() < 0.5)]
            sigma_e = explicit_trace(trace, ALPHABET)
            small = visible_trace(sigma_e, CLASSES, ("cs",))[0]
            large = visible_trace(sigma_e, CLASSES, ("cs", "abg"))[0]
            know_small = knowledge_from_event(small, CLASSES)
            know_large = knowledge_from_event(large, CLASSES)
            for atom, value in know_small.items():
                assert know_large[atom] == value


class TestWitnessDecoding:
    def test_expand_witnesses(self):
        event = ev("[cs]=0", "b1=1")
        assert expand_witnesses(event, CLASSES) == ev("c=0", "s=0", "b1=1")

    def test_knowledge_combines_sources(self):
        event = ev("[abg]=1", "mb=0")
        know = knowledge_from_event(event, CLASSES)
        assert know == {"a": True, "b": True, "g": True, "mb": False}

    def test_consistency_check(self):
        with pytest.raises(ValueError):
            check_consistent(ev("c=1", "c=0"))
        check_consistent(ev("c=1", "s=0"))


class TestStandardView:
    def test_case_study_rows(self):
        view = standard_view(SIGMA, CLASSES)
        assert view == [frozenset(), frozenset({"b1"}), frozenset({"mb", "b2"}),
                        frozenset(), frozenset({"w"})]

    def test_full_class_presence_survives(self):
        view = standard_view([{"a", "b", "g"}], CLASSES)
        assert view == [frozenset({"a", "b", "g"})]


class TestVisibilitySpec:
    def test_missing_cost_rejected(self):
        with pytest.raises(ValueError):
            VisibilitySpec(classes=CLASSES, costs={"cs": 2}, bound=3)

    def test_overlapping_classes_rejected(self):
        """Classes built directly, not derived, may share a member."""
        overlapping = (EqClass(frozenset({"a", "b"})), EqClass(frozenset({"b", "c"})))
        with pytest.raises(ValueError, match="classes overlap"):
            VisibilitySpec(classes=overlapping, costs={"ab": 1, "bc": 1})

    @pytest.mark.parametrize("classes", [
        casestudy.spec().classes,
        identity_classes(ALPHABET),
        derive_classes(ALPHABET, RELATION),
    ], ids=["casestudy", "singletons", "derived"])
    def test_alphabet_is_the_union_of_the_classes(self, classes):
        costs = {c.canonical_id: 1 for c in classes if not c.is_singleton}
        spec = VisibilitySpec(classes=classes, costs=costs, bound=2)
        union = frozenset(a for c in classes for a in c.members)
        assert spec.alphabet == union == frozenset(ALPHABET)
        assert replace(spec, bound=3).alphabet == union

    def test_identity_classes(self):
        classes = identity_classes(("b", "a"))
        assert [c.canonical_id for c in classes] == ["a", "b"]
        assert rendering_map(classes) == {"a": "a", "b": "b"}


# Two classes built directly, not derived, whose members run together into
# one witness name: every way classes enter the library refuses them.
COLLIDING = (EqClass(frozenset({"a", "bc"})), EqClass(frozenset({"ab", "c"})))
SHARED_NAME = r"a~bc and ab~c share the witness name '\[abc\]'"


class TestSharedWitnessNames:
    def test_rendering_map(self):
        with pytest.raises(ValueError, match=SHARED_NAME):
            rendering_map(COLLIDING)

    def test_synthesize_imperfect(self):
        from ltlscope.monitor import synthesize_imperfect
        with pytest.raises(ValueError, match=SHARED_NAME):
            synthesize_imperfect(parse_formula("F (a & X c)"), COLLIDING)

    def test_visibility_spec(self):
        with pytest.raises(ValueError, match=SHARED_NAME):
            VisibilitySpec(classes=COLLIDING, costs={"abc": 1}, bound=1)

    def test_session(self):
        from ltlscope.rational import RationalConfig, active_monitor
        with pytest.raises(ValueError, match=SHARED_NAME):
            active_monitor([{"a"}], parse_formula("F (a & X c)"),
                           VisibilitySpec(classes=COLLIDING, costs={"abc": 1}, bound=1),
                           RationalConfig(bound=1))
