"""Monitor objects: standard three-valued, imperfect six-valued, stepping."""

import hashlib
import json
import random
import re
import time

import pytest

from ltlscope import casestudy, monitor as monitor_module
from ltlscope.automata import pipeline as pipeline_module
from ltlscope.automata import GuardedAutomaton, Verdict, ltl_to_nba
from ltlscope.automata.dot import automaton_to_dot, moore_to_dot
from ltlscope.automata.guarded import valuation_bits
from ltlscope.automata.moore import MEMO_LIMIT, REFINEMENTS, classify3
from ltlscope.automata.pipeline import TooWideError
from ltlscope.formula import (Atom, Eventually, Lit, SLit, fmt, nnf_pair,
                              parse_formula)
from ltlscope.monitor import (clear_machine_caches, machine_from_json,
                              machine_to_json, synthesize_imperfect,
                              synthesize_standard)
from ltlscope.oracle.lasso import LassoWord, eval_lasso
from ltlscope.oracle.verdict import signed_triple
from ltlscope.randgen import random_formula as criterion_formula
from ltlscope.randgen import random_partition
from ltlscope.visibility import (derive_classes, explicit_trace, identity_classes,
                                 parse_classes, standard_view, visible_trace)

from conftest import (accepts_prefix, balanced_conjunction, prefix_nfa,
                      random_formula, random_plain_trace, random_signed_event)

ALPHABET = ("b1", "b2", "b3", "c", "s", "a", "b", "g", "mb", "w")
CLASSES = derive_classes(ALPHABET, [("c", "s"), ("a", "b"), ("b", "g")])
SIGMA = [set(), {"g", "b1", "c"}, {"g", "c", "mb", "b2"}, {"c"}, {"w"}]
PLAIN_VIEW = standard_view(SIGMA, CLASSES)
SIGMA_V = visible_trace(explicit_trace(SIGMA, ALPHABET), CLASSES, ())

PROPS = {
    "phi1": "F (c & X w)",
    "phi2": "F (g & (b1 | b2 | b3) & X mb)",
    "phi3": "F ((!c & b1 & X b2) | (!c & b2 & X b3))",
    "psi1": "G ((b1 | b2 | b3) -> X !c)",
    "psi2": "G (g -> !(b1 | b2 | b3))",
    "psi3": "G (!g -> !mb)",
}


class TestStandardMonitor:
    @pytest.mark.parametrize("prop,expected", [
        ("phi1", Verdict.UNKNOWN),
        ("phi2", Verdict.UNKNOWN),
        ("phi3", Verdict.TRUE),
        ("psi1", Verdict.UNKNOWN),
        ("psi2", Verdict.UNKNOWN),
        ("psi3", Verdict.FALSE),
    ])
    def test_case_study_row(self, prop, expected):
        m = synthesize_standard(parse_formula(PROPS[prop]))
        m.run(PLAIN_VIEW)
        assert m.verdict == expected

    def test_atomic(self):
        m = synthesize_standard(Atom("p"))
        assert m.step({"p"}) == Verdict.TRUE

    def test_empty_trace_verdict_is_initial_output(self):
        m = synthesize_standard(parse_formula(PROPS["phi1"]))
        assert m.verdict == Verdict.UNKNOWN
        assert m.current == m.machine.initial

    def test_string_event_is_refused(self):
        """``"b1"`` is not read as the event of its characters ``b`` and ``1``,
        which would leave ``F b1`` unknown."""
        m = synthesize_standard(parse_formula("F b1"))
        with pytest.raises(ValueError, match="not the string 'b1'"):
            m.step("b1")
        assert m.current == m.machine.initial
        assert m.step({"b1"}) == Verdict.TRUE

    @pytest.mark.parametrize("event", [{"b1": 0}, None, 1])
    def test_non_set_event_is_refused(self, event):
        """``{'b1': 0}`` is not read as its key ``b1``, which would conclude
        ``F b1``; ``None`` and an int raise ``ValueError``, not
        ``TypeError``.  The cursor stays where it was."""
        m = synthesize_standard(parse_formula("F b1"))
        with pytest.raises(ValueError, match="an event is a set of atom names, not"):
            m.step(event)
        assert m.current == m.machine.initial
        assert m.verdict == Verdict.UNKNOWN


class TestImperfectMonitor:
    @pytest.mark.parametrize("prop,expected", [
        ("phi1", Verdict.UNKNOWN_NOT_FALSE),
        ("phi2", Verdict.UNKNOWN_NOT_FALSE),
        ("phi3", Verdict.UNKNOWN_NOT_FALSE),
        ("psi1", Verdict.UNKNOWN_NOT_TRUE),
        ("psi2", Verdict.UNKNOWN_NOT_TRUE),
        ("psi3", Verdict.UNKNOWN_NOT_TRUE),
    ])
    def test_case_study_row(self, prop, expected):
        m = synthesize_imperfect(parse_formula(PROPS[prop]), CLASSES)
        m.run(SIGMA_V)
        assert m.verdict == expected

    def test_singleton_false(self):
        classes = derive_classes(("p",), [])
        m = synthesize_imperfect(Atom("p"), classes)
        assert m.step({SLit("p", False)}) == Verdict.FALSE

    def test_psi3_step_by_step(self):
        m = synthesize_imperfect(parse_formula(PROPS["psi3"]), CLASSES)
        verdicts = [m.step(e) for e in SIGMA_V]
        assert len(verdicts) == 5
        assert verdicts[-1] == Verdict.UNKNOWN_NOT_TRUE

    def test_absorbing_true(self):
        classes = derive_classes(("p",), [])
        m = synthesize_imperfect(Atom("p"), classes)
        m.step({SLit("p", True)})
        for event in [set(), {SLit("p", False)}, {SLit("p", True)}]:
            assert m.step(event) == Verdict.TRUE

    def test_inconsistent_event_rejected(self):
        m = synthesize_imperfect(parse_formula(PROPS["phi1"]), CLASSES)
        with pytest.raises(ValueError):
            m.step({SLit("c", True), SLit("c", False)})

    def test_string_event_is_refused(self):
        m = synthesize_imperfect(Atom("p"), derive_classes(("p",), []))
        with pytest.raises(ValueError, match="not the string"):
            m.step("p=1")
        assert m.step({SLit("p", True)}) == Verdict.TRUE

    def test_signed_mapping_event_is_refused(self):
        m = synthesize_imperfect(Atom("p"), derive_classes(("p",), []))
        with pytest.raises(ValueError, match="signed literals, not the mapping"):
            m.step({SLit("p", True): 1})
        assert m.step({SLit("p", True)}) == Verdict.TRUE

    def test_uu_reachable_and_absorbing(self):
        classes = derive_classes(("p",), [])
        m = synthesize_imperfect(Atom("p"), classes)
        assert m.step(set()) == Verdict.UU
        assert m.step({SLit("p", True)}) == Verdict.UU


class TestBatchIncremental:
    def test_equivalence_on_random_traces(self, rng):
        for _ in range(30):
            f = random_formula(rng, rng.randint(1, 6), pool=("p", "q", "r"))
            classes = random_partition(rng, ("p", "q", "r"))
            m = synthesize_imperfect(f, classes)
            trace = [random_signed_event(rng, ["p", "q", "r"]) for _ in range(6)]
            trace = [ev for ev in trace]
            incremental = m.clone()
            seen = []
            for event in trace:
                seen.append(incremental.step(event))
            batch = m.clone()
            batch.run(trace)
            assert incremental.current == batch.current
            assert seen[-1] == batch.verdict

    def test_equivalence_on_repeated_event_objects(self, rng):
        """A trace that repeats a few event objects, which the machine
        remembers as checked, steps like equal copies made afresh."""
        for _ in range(30):
            f = random_formula(rng, rng.randint(1, 6), pool=("p", "q", "r"))
            classes = random_partition(rng, ("p", "q", "r"))
            m = synthesize_imperfect(f, classes)
            shared = [random_signed_event(rng, ["p", "q", "r"]) for _ in range(3)]
            trace = [rng.choice(shared) for _ in range(12)]
            copies = [frozenset(list(event)) for event in trace]
            assert all(copy is not event for copy, event in zip(copies, trace))
            incremental = m.clone()
            seen = [incremental.step(event) for event in trace]
            batch = m.clone()
            batch.run(trace)
            fresh = m.clone()
            assert [fresh.step(event) for event in copies] == seen
            assert incremental.current == batch.current == fresh.current
            assert seen[-1] == batch.verdict


class TestValidatedEvents:
    """``MonitorInstance.step`` checks each ``frozenset`` event value once
    per machine and remembers it, keyed by value, in ``machine.validated``."""

    @staticmethod
    def fresh(signed: bool):
        """A monitor of ``F p`` over a machine no other test has stepped."""
        f = parse_formula("F p")
        m = synthesize_imperfect(f, derive_classes(("p",), [])) if signed \
            else synthesize_standard(f)
        return machine_from_json(machine_to_json(m))

    def test_equal_event_of_pairs_is_still_refused(self):
        """``frozenset({("p", True)})`` equals and hashes like the signed
        event stepped before it, but it holds no signed literal."""
        m = self.fresh(signed=True)
        signed = frozenset({SLit("p", True)})
        assert m.step(signed) == Verdict.TRUE
        assert m.machine.validated[signed] is signed
        pairs = frozenset({("p", True)})
        assert pairs == signed and hash(pairs) == hash(signed)
        m.reset()
        with pytest.raises(ValueError, match="imperfect events are sets of signed literals"):
            m.step(pairs)
        assert m.current == m.machine.initial
        assert m.machine.validated[pairs] is signed

    def test_stale_entry_vouches_for_nothing(self, monkeypatch):
        """An equal value stored under another object vouches only for
        events whose items are all of the machine's literal type: an equal
        event of signed literals skips the check, an equal event of pairs
        does not."""
        m = self.fresh(signed=True)
        stored = frozenset({SLit("p", True)})
        m.machine.validated[stored] = stored
        pairs = frozenset({("p", True)})
        with pytest.raises(ValueError, match="sets of signed literals"):
            m.step(pairs)

        def refuse(event):
            raise AssertionError("checked again")

        monkeypatch.setattr(m, "encode_event", refuse)
        assert m.step(frozenset([SLit("p", True)])) == Verdict.TRUE
        with pytest.raises(AssertionError, match="checked again"):
            m.step(pairs)
        plain = self.fresh(signed=False)
        stored = frozenset({"p"})
        plain.machine.validated[stored] = stored
        monkeypatch.setattr(plain, "encode_event", refuse)
        assert plain.step(frozenset(["p"])) == Verdict.TRUE

    @pytest.mark.parametrize("signed", [False, True], ids=["standard", "imperfect"])
    @pytest.mark.parametrize("event, message", [
        ("p", "not the string"),
        ({"p": 1}, "not the mapping"),
        (None, "not None"),
    ], ids=["str", "mapping", "none"])
    def test_refused_values_stay_refused(self, signed, event, message):
        """A value that is no event is refused every time, and nothing is
        remembered."""
        m = self.fresh(signed)
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                m.step(event)
        assert m.current == m.machine.initial and not m.machine.validated

    @pytest.mark.parametrize("kind", [set, list])
    def test_mutable_events_are_checked_each_time(self, kind):
        """A ``set`` or ``list`` event is read as today and never
        remembered: changed in place, it is checked again."""
        m = self.fresh(signed=True)
        event = kind([SLit("p", False)])
        assert m.step(event) == Verdict.UNKNOWN
        assert not m.machine.validated
        if kind is set:
            event.add(SLit("p", True))
        else:
            event.append(SLit("p", True))
        with pytest.raises(ValueError, match="inconsistent event"):
            m.step(event)
        plain = self.fresh(signed=False)
        assert plain.step(kind(["p"])) == Verdict.TRUE
        assert not plain.machine.validated

    def test_memo_never_exceeds_the_limit(self, monkeypatch):
        """Past ``MEMO_LIMIT`` event values are checked and stepped but not
        remembered; the machine steps as it does with nothing remembered."""
        m = self.fresh(signed=False)
        events = [frozenset({"q%d" % k}) for k in range(MEMO_LIMIT + 50)]
        events.append(frozenset({"p"}))
        verdicts = [m.step(event) for event in events]
        assert len(m.machine.validated) == MEMO_LIMIT
        assert verdicts[-1] == Verdict.TRUE
        monkeypatch.setattr(monitor_module, "MEMO_LIMIT", 0)
        bare = self.fresh(signed=False)
        assert [bare.step(event) for event in events] == verdicts
        assert not bare.machine.validated
        monkeypatch.setattr(monitor_module, "MEMO_LIMIT", 3)
        small = self.fresh(signed=False)
        assert [small.step(event) for event in events] == verdicts
        assert len(small.machine.validated) == 3

    def test_memo_is_no_part_of_the_machine(self):
        """Machines equal before stepping stay equal, and print alike."""
        m, other = self.fresh(signed=True), self.fresh(signed=True)
        m.step(frozenset({SLit("p", True)}))
        assert m.machine.validated and not other.machine.validated
        assert m.machine == other.machine
        assert repr(m.machine) == repr(other.machine)


class TestVerdictDynamics:
    def test_finality_and_refinement(self, rng):
        """Verdicts only ever move along the refinement order."""
        for _ in range(25):
            f = random_formula(rng, rng.randint(1, 6), pool=("p", "q"))
            classes = random_partition(rng, ("p", "q"))
            m = synthesize_imperfect(f, classes)
            previous = m.verdict
            for _ in range(40):
                event = random_signed_event(rng, ["p", "q", "[pq]"])
                try:
                    current = m.step(event)
                except ValueError:
                    continue
                assert current in REFINEMENTS[previous]
                previous = current


class TestLemma2:
    def test_definite_verdicts_transfer_to_perfect_information(self, rng):
        """An imperfect-monitor TRUE/FALSE forces the standard verdict."""
        pool = ("p", "q", "r")
        checked = 0
        for _ in range(60):
            f = random_formula(rng, rng.randint(1, 5), pool=pool)
            classes = random_partition(rng, pool)
            imperfect = synthesize_imperfect(f, classes)
            standard = synthesize_standard(f)
            trace = random_plain_trace(rng, rng.randint(1, 6), pool)
            sv = visible_trace(explicit_trace(trace, pool), classes, ())
            imperfect.run(sv)
            standard.run(trace)
            if imperfect.verdict == Verdict.TRUE:
                checked += 1
                assert standard.verdict == Verdict.TRUE
            elif imperfect.verdict == Verdict.FALSE:
                checked += 1
                assert standard.verdict == Verdict.FALSE
        assert checked > 0


class TestMembershipEquivalence:
    def test_moore_verdict_equals_nfa_classification(self, rng):
        """The product verdict equals the six-way classification computed from
        direct subset simulation of the three prefix NFAs."""
        pool = ("p", "q")
        for _ in range(20):
            f = random_formula(rng, rng.randint(1, 5), pool=pool)
            classes = random_partition(rng, pool)
            monitor = synthesize_imperfect(f, classes)
            nfas = [prefix_nfa(ltl_to_nba((g,), signed=True))
                    for g in signed_triple(f, classes)]
            trace = random_plain_trace(rng, rng.randint(0, 5), pool)
            sv = visible_trace(explicit_trace(trace, pool), classes, ())
            monitor.run(sv)
            memberships = tuple(accepts_prefix(nfa, sv) for nfa in nfas)
            assert monitor.verdict == classify3(*memberships)


EQUIVALENT_PAIRS = [
    ("F F a", "F a"),
    ("a U a", "a"),
    ("!(a U b)", "!a R !b"),
    ("G a & G b", "G (a & b)"),
] + [(" U ".join(["a"] * count), "a") for count in range(2, 9)]


class TestEquivalentFormulas:
    """Equivalent formulas give equal verdicts on every seeded trace, and
    machines of equal size: minimal DFAs are unique up to isomorphism, so
    the state counts are a sharp check."""

    @staticmethod
    def _shape(m):
        return len(m.machine.outputs), tuple(len(dfa.states) for dfa in m.machine.components)

    @pytest.mark.parametrize("left, right", EQUIVALENT_PAIRS)
    def test_equal_verdicts_and_state_counts(self, left, right):
        pool = ("a", "b")
        classes = identity_classes(pool)
        rng = random.Random(3)
        pair = [(synthesize_standard(parse_formula(text)),
                 synthesize_imperfect(parse_formula(text), classes)) for text in (left, right)]
        (std1, imp1), (std2, imp2) = pair
        assert self._shape(std1) == self._shape(std2)
        assert self._shape(imp1) == self._shape(imp2)
        for _ in range(30):
            trace = random_plain_trace(rng, rng.randint(0, 6), pool)
            sv = visible_trace(explicit_trace(trace, pool), classes, ())
            for m in (std1, imp1, std2, imp2):
                m.reset()
            assert [std1.step(e) for e in trace] == [std2.step(e) for e in trace]
            assert [imp1.step(e) for e in sv] == [imp2.step(e) for e in sv]
            assert (std1.verdict, imp1.verdict) == (std2.verdict, imp2.verdict)


class TestMetamorphic:
    """Relations between monitors of one seeded criterion-6 draw, checked
    at every step of seeded traces."""

    POOL = ("p", "q", "r", "s")
    # z4 > y3 > x2 > w1 reverses the pool's str order, and so the order of
    # every literal table.
    RENAMED = dict(zip(POOL, ("z4", "y3", "x2", "w1")))

    # The imperfect verdicts each standard verdict allows over singleton classes.
    SINGLETON = {Verdict.TRUE: {Verdict.TRUE, Verdict.UNKNOWN_NOT_FALSE},
                 Verdict.FALSE: {Verdict.FALSE, Verdict.UNKNOWN_NOT_TRUE},
                 Verdict.UNKNOWN: {Verdict.UNKNOWN}}

    def _rename(self, text: str) -> str:
        return re.sub(r"\b[pqrs]\b", lambda m: self.RENAMED[m.group()], text)

    @staticmethod
    def _shape(m):
        return len(m.machine.outputs), tuple(len(dfa.states) for dfa in m.machine.components)

    def test_singleton_classes_follow_the_standard_verdict(self):
        """Over singleton classes every atom is visible, so the imperfect
        verdict is ⊤ or ?≁⊥ exactly where the standard one is ⊤, ⊥ or ?≁⊤
        exactly where it is ⊥, and ? where it is ?."""
        rng = random.Random(6)
        classes = identity_classes(self.POOL)
        for _ in range(300):
            f = criterion_formula(rng, rng.randint(1, 8), self.POOL)
            standard, imperfect = synthesize_standard(f), synthesize_imperfect(f, classes)
            for _ in range(5):
                trace = random_plain_trace(rng, 8, self.POOL)
                visible = visible_trace(explicit_trace(trace, self.POOL), classes, ())
                standard.reset()
                imperfect.reset()
                for event, signed in zip(trace, visible):
                    expected = self.SINGLETON[standard.step(event)]
                    assert imperfect.step(signed) in expected, (fmt(f), trace)

    def test_renamed_atoms_keep_verdicts_and_state_counts(self):
        """Renaming the atoms in the formula, the classes and the trace
        changes no verdict and no state count, standard or over ``p~q``."""
        rng = random.Random(6)
        renamed_pool = tuple(self.RENAMED.values())
        classes = parse_classes("p~q; r; s")
        renamed_classes = parse_classes(self._rename("p~q; r; s"))
        for _ in range(200):
            f = criterion_formula(rng, rng.randint(1, 8), self.POOL)
            g = parse_formula(self._rename(fmt(f)))
            trace = random_plain_trace(rng, 8, self.POOL)
            renamed = [frozenset(self.RENAMED[a] for a in event) for event in trace]
            runs = [(synthesize_standard(f), trace, synthesize_standard(g), renamed),
                    (synthesize_imperfect(f, classes),
                     visible_trace(explicit_trace(trace, self.POOL), classes, ()),
                     synthesize_imperfect(g, renamed_classes),
                     visible_trace(explicit_trace(renamed, renamed_pool), renamed_classes, ()))]
            for m, events, m_renamed, events_renamed in runs:
                assert self._shape(m) == self._shape(m_renamed), fmt(f)
                assert ([m.step(e) for e in events]
                        == [m_renamed.step(e) for e in events_renamed]), (fmt(f), trace)


class TestMachineRoundTrip:
    def test_bit_identical_reload(self):
        m = synthesize_imperfect(parse_formula(PROPS["phi1"]), CLASSES)
        text = machine_to_json(m, formula_text=PROPS["phi1"], classes_text="c~s; a~b~g")
        reloaded = machine_from_json(text)
        text2 = machine_to_json(reloaded, formula_text=PROPS["phi1"],
                                classes_text="c~s; a~b~g")
        assert text == text2

    def test_reloaded_machine_steps_identically(self):
        m = synthesize_imperfect(parse_formula(PROPS["psi3"]), CLASSES)
        reloaded = machine_from_json(machine_to_json(m))
        for event in SIGMA_V:
            assert m.step(event) == reloaded.step(event)

    def test_standard_roundtrip(self):
        m = synthesize_standard(parse_formula(PROPS["phi3"]))
        reloaded = machine_from_json(machine_to_json(m))
        for event in PLAIN_VIEW:
            assert m.step(event) == reloaded.step(event)


    @pytest.mark.parametrize("literal", [5, "5", "p q", "true", None, ["p"]])
    def test_plain_literal_that_is_no_atom_name_is_refused(self, literal):
        """A standard file whose literal ``p`` is replaced by something no
        event can hold is refused, not loaded to answer ``?`` for ever."""
        payload = json.loads(machine_to_json(synthesize_standard(parse_formula("F p"))))
        for component in payload["components"]:
            component["literals"] = {q: [literal if l == "p" else l for l in row]
                                     for q, row in component["literals"].items()}
        with pytest.raises(ValueError, match="is not an atom name"):
            machine_from_json(json.dumps(payload))

    @pytest.mark.parametrize("name", ["5 6", "5", "[5]", "[]", "[p q]", "p]", "true"])
    def test_signed_literal_naming_no_literal_is_refused(self, name):
        """A signed file of ``F p`` whose ``p=1`` is renamed ``5 6=1`` is
        refused, not loaded to answer ``?≁⊥`` where ``F p`` holds."""
        payload = json.loads(machine_to_json(
            synthesize_imperfect(parse_formula("F p"), derive_classes(("p",), []))))
        for component in payload["components"]:
            component["literals"] = {q: [f"{name}=1" if l == "p=1" else l for l in row]
                                     for q, row in component["literals"].items()}
        with pytest.raises(ValueError, match=r"^component 0: state \d+: signed literal "):
            machine_from_json(json.dumps(payload))

    def test_signed_literal_renamed_to_a_witness_loads(self):
        """A witness name is a name even when its word is a keyword."""
        payload = json.loads(machine_to_json(
            synthesize_imperfect(parse_formula("F p"), derive_classes(("p",), []))))
        for component in payload["components"]:
            component["literals"] = {q: [l.replace("p=", "[true]=") for l in row]
                                     for q, row in component["literals"].items()}
        m = machine_from_json(json.dumps(payload))
        assert m.step(frozenset({SLit("[true]", True)})) == Verdict.TRUE

    def test_old_three_component_file_is_refused(self):
        """A file from before the flagged format (no ``format`` field, a third
        forever-undefined component) fails with a one-line ValueError."""
        m = synthesize_imperfect(parse_formula(PROPS["phi1"]), CLASSES)
        payload = json.loads(machine_to_json(m))
        del payload["format"]
        for component in payload["components"]:
            del component["flagged"]
        payload["components"].append(payload["components"][0])
        with pytest.raises(ValueError) as err:
            machine_from_json(json.dumps(payload))
        assert "format" in str(err.value) and "\n" not in str(err.value)

    def test_wrong_component_count_is_refused(self):
        m = synthesize_imperfect(parse_formula(PROPS["phi1"]), CLASSES)
        payload = json.loads(machine_to_json(m))
        payload["components"].append(payload["components"][0])
        with pytest.raises(ValueError, match="3 components, expected 2"):
            machine_from_json(json.dumps(payload))
        payload["components"] = payload["components"][:1]
        with pytest.raises(ValueError, match="1 components, expected 2"):
            machine_from_json(json.dumps(payload))

    @pytest.mark.parametrize("literals", [
        [f"x{i}" for i in range(64)],
        [f"x{i}=1" for i in range(64)],
        [f"x{i}={sign}" for i in range(32) for sign in (0, 1)],
    ], ids=["plain", "signed", "both-signs"])
    def test_wide_row_is_refused_by_counting(self, literals):
        """A state listing 64 literals with a one-entry table is refused by
        the synthesis row bound, which counts its consistent masks instead of
        building the 2^64 (or 3^32) masks its row would need."""
        signed = "=" in literals[0]
        m = synthesize_imperfect(Atom("p"), derive_classes(("p",), [])) if signed \
            else synthesize_standard(Atom("p"))
        payload = json.loads(machine_to_json(m))
        payload["components"][0]["literals"]["0"] = literals
        payload["components"][0]["table"]["0"] = {"0": 0}
        start = time.perf_counter()
        with pytest.raises(ValueError, match="state 0 reads 64 literals"):
            machine_from_json(json.dumps(payload))
        assert time.perf_counter() - start < 0.5

    def test_row_at_the_bound_loads_and_steps(self):
        """A state reading 16 plain literals, a full row of ``MAX_ROW``
        masks, loads and steps like the machine it widens; one literal more
        is refused by the bound, before its row is compared with its table."""
        m = synthesize_standard(Atom("p"))
        payload = json.loads(machine_to_json(m))
        component = payload["components"][0]
        row = component["table"]["0"]
        component["literals"]["0"] = ["p"] + [f"x{i}" for i in range(15)]
        component["table"]["0"] = {str(bits): row[str(bits & 1)] for bits in range(1 << 16)}
        wide = machine_from_json(json.dumps(payload))
        for event in ({"p", "x3"}, {"x14"}, set()):
            assert wide.clone().step(event) == m.clone().step(event)
        component["literals"]["0"].append("x15")
        with pytest.raises(ValueError, match="state 0 reads 17 literals"):
            machine_from_json(json.dumps(payload))

    def test_inconsistent_flags_are_a_value_error(self):
        """Components whose accepting sets leave a product state in neither
        language are refused, not reported as a pipeline bug."""
        m = synthesize_standard(parse_formula(PROPS["phi1"]))
        payload = json.loads(machine_to_json(m))
        for component in payload["components"]:
            component["accepting"] = []
        with pytest.raises(ValueError, match="no verdict describes"):
            machine_from_json(json.dumps(payload))

    def test_flags_survive_reload(self):
        m = synthesize_imperfect(parse_formula(PROPS["psi3"]), CLASSES)
        reloaded = machine_from_json(machine_to_json(m))
        assert [dfa.flagged for dfa in reloaded.machine.components] == \
            [dfa.flagged for dfa in m.machine.components]
        assert reloaded.machine.outputs == m.machine.outputs


# ---------------------------------------------------------------------------
# Lasso differential test: the empty continuation decides the definite sides
# ---------------------------------------------------------------------------

def _empty_continuation(f, classes, prefix) -> str:
    """What u·(∅)^ω says about the prefix u: signed formulas are monotone in
    the information order and ∅^ω lies below every continuation, so ⊤ holds
    iff it satisfies ``sat``, ⊥ iff it satisfies ``viol``, and a
    forever-undefined ending is still possible iff it satisfies neither."""
    sat, viol, _ = signed_triple(f, classes)
    word = LassoWord(tuple(prefix), (frozenset(),))
    in_sat, in_viol = eval_lasso(sat, word), eval_lasso(viol, word)
    assert not (in_sat and in_viol)
    return "TRUE" if in_sat else "FALSE" if in_viol else "undefined"


def _verdict_kind(verdict: Verdict) -> str:
    return verdict.name if verdict in (Verdict.TRUE, Verdict.FALSE) else "undefined"


class TestSuccessorMemo:
    """``DFA.step`` remembers, on a state that reads literals, the successor
    of each ``frozenset`` event it has valued (``DFA.successors``)."""

    POOL = ("p", "q", "r", "s")

    @classmethod
    def draws(cls, seed: int):
        """Fresh (unshared) imperfect and standard machines of seeded
        criterion-6 draws, each with a random event maker over its names."""
        rng = random.Random(seed)
        for _ in range(40):
            f = criterion_formula(rng, rng.randint(1, 8), cls.POOL)
            classes = random_partition(rng, cls.POOL)
            for m in (synthesize_imperfect(f, classes), synthesize_standard(f)):
                m = machine_from_json(machine_to_json(m))
                if m.machine.signed:
                    names = sorted({lit.name for dfa in m.machine.components
                                    for lits in dfa.lits.values() for lit in lits} | {"x"})
                    yield m, lambda: random_signed_event(rng, names)
                else:
                    yield m, lambda: frozenset(a for a in cls.POOL if rng.random() < 0.5)

    @staticmethod
    def reference(dfa, state, event):
        return dfa.table[state][valuation_bits(dfa.lits[state], event)]

    @pytest.mark.parametrize("limit", [MEMO_LIMIT, 0])
    def test_memoised_step_equals_the_table(self, monkeypatch, limit):
        monkeypatch.setattr(pipeline_module, "MEMO_LIMIT", limit)
        remembered = 0
        for m, event_of in self.draws(11):
            for dfa in m.machine.components:
                events = [event_of() for _ in range(12)]
                for _ in range(3):  # misses, then hits, and copies of the events
                    for event in events:
                        for state in dfa.states:
                            assert dfa.step(state, event) == self.reference(dfa, state, event)
                    events = [frozenset(e) for e in events]
                remembered += len(dfa.successors or {})
        assert bool(remembered) == bool(limit)

    def test_only_frozensets_on_states_that_read_literals_are_remembered(self):
        blind = reading = 0
        for m, event_of in self.draws(12):
            for dfa in m.machine.components:
                for state in dfa.states:
                    event = event_of()
                    before = dict(dfa.successors or {})
                    assert dfa.step(state, set(event)) == self.reference(dfa, state, event)
                    assert (dfa.successors or {}) == before
                    dfa.step(state, event)
                    remembered = (state, event) in (dfa.successors or {})
                    assert remembered == bool(dfa.lits[state])
                    blind += not dfa.lits[state]
                    reading += bool(dfa.lits[state])
        assert blind and reading

    def test_memo_never_exceeds_the_limit(self, monkeypatch):
        monkeypatch.setattr(pipeline_module, "MEMO_LIMIT", 3)
        for m, event_of in self.draws(13):
            for dfa in m.machine.components:
                for _ in range(20):
                    event = event_of()
                    for state in dfa.states:
                        assert dfa.step(state, event) == self.reference(dfa, state, event)
                assert len(dfa.successors or {}) <= 3

    def test_memo_is_no_part_of_the_machine(self):
        """Machines equal before stepping stay equal, print alike and are
        written alike."""
        for m, event_of in self.draws(14):
            other = machine_from_json(machine_to_json(m))
            for _ in range(10):
                m.step(event_of())
            assert any(dfa.successors for dfa in m.machine.components) \
                or not any(dfa.lits[dfa.initial] for dfa in m.machine.components)
            assert m.machine == other.machine
            assert repr(m.machine) == repr(other.machine)
            assert machine_to_json(m) == machine_to_json(other)


class TestMachineBytes:
    """Synthesis is pinned byte for byte: the sha256 of ``machine_to_json``
    over seeded criterion-6 draws, two machines each (imperfect and
    standard).  A change that renumbers machines on purpose updates the
    digest and says so; CI runs this test under two hash seeds, so set
    iteration order cannot leak into machine files."""

    DIGEST = "b279117937e5ea107e6695b607900d814181270fbe0146ad1f79342ee36beb4c"

    def test_criterion_6_draws(self):
        rng = random.Random(7)
        pool = ("p", "q", "r", "s")
        digest = hashlib.sha256()
        for _ in range(300):
            f = criterion_formula(rng, rng.randint(1, 8), pool)
            classes = random_partition(rng, pool)
            for m in (synthesize_imperfect(f, classes), synthesize_standard(f)):
                digest.update(machine_to_json(m).encode())
        assert digest.hexdigest() == self.DIGEST


class TestDotBound:
    def test_product_row_past_the_bound_is_refused(self):
        """``a0 | … | a10`` over singleton classes synthesises, each DFA row
        reading 11 literals, but its initial product state reads both signs
        of 11 names: 3^11 edges, over ``MAX_ROW``.  DOT export refuses it
        before drawing any edge."""
        names = [f"a{i}" for i in range(11)]
        m = synthesize_imperfect(parse_formula(" | ".join(names)), derive_classes(names, []))
        start = time.perf_counter()
        with pytest.raises(TooWideError, match="a product state reads 22 literals"):
            moore_to_dot(m.machine)
        assert time.perf_counter() - start < 0.5


class TestDotBytes:
    """DOT export is pinned byte for byte like the machine files: the sha256
    of ``moore_to_dot`` and of ``automaton_to_dot`` on both components, over
    the same draws and machines as ``TestMachineBytes``.  The guards on
    every edge are decoded from valuation masks, so this pins the encoding
    too; CI runs it under two hash seeds."""

    DIGEST = "3844a5bf4130d9864f326faa143003d5d44b49bdb37de3446f40ea4f27ea1eea"

    def test_criterion_6_draws(self):
        rng = random.Random(7)
        pool = ("p", "q", "r", "s")
        digest = hashlib.sha256()
        for _ in range(300):
            f = criterion_formula(rng, rng.randint(1, 8), pool)
            classes = random_partition(rng, pool)
            for m in (synthesize_imperfect(f, classes), synthesize_standard(f)):
                digest.update(moore_to_dot(m.machine).encode())
                for dfa in m.machine.components:
                    digest.update(automaton_to_dot(dfa).encode())
        assert digest.hexdigest() == self.DIGEST


def _check_every_prefix(f, classes, visible) -> list[str]:
    """Step a fresh monitor along ``visible`` and hold the verdict after
    every prefix (the empty one included) to the lasso evaluator."""
    cursor = synthesize_imperfect(f, classes)
    kinds = []
    for k in range(len(visible) + 1):
        if k:
            cursor.step(visible[k - 1])
        expected = _empty_continuation(f, classes, visible[:k])
        assert _verdict_kind(cursor.verdict) == expected, (f, visible[:k], cursor.verdict)
        kinds.append(expected)
    return kinds


class TestEmptyContinuation:
    def test_rover_properties_long_prefixes(self):
        """Seven rover properties, case-study classes, 20 seeded prefixes of
        50-300 events each; no closure automaton, so no size guard rail."""
        classes = casestudy.spec().classes
        rng = random.Random(20240817)
        kinds = []
        for name, f in casestudy.formulas().items():
            for _ in range(20):
                density = rng.choice((0.02, 0.1, 0.3))
                trace = [frozenset(a for a in casestudy.ALPHABET if rng.random() < density)
                         for _ in range(rng.randint(50, 300))]
                visible = visible_trace(explicit_trace(trace, casestudy.ALPHABET), classes, ())
                m = synthesize_imperfect(f, classes)
                m.run(visible)
                expected = _empty_continuation(f, classes, visible)
                assert _verdict_kind(m.verdict) == expected, (name, len(visible))
                kinds.append(expected)
        assert len(kinds) == 140
        assert set(kinds) == {"TRUE", "FALSE", "undefined"}

    def test_criterion_06_draws(self):
        """A seeded sample of criterion-6 draws (size 1-8 over four atoms,
        random classes), every prefix of four 1-12-event traces each."""
        pool = ("p", "q", "r", "s")
        rng = random.Random(20240817)
        kinds = []
        for _ in range(80):
            f = criterion_formula(rng, rng.randint(1, 8), pool)
            classes = random_partition(rng, pool)
            for _ in range(4):
                trace = random_plain_trace(rng, rng.randint(1, 12), pool)
                visible = visible_trace(explicit_trace(trace, pool), classes, ())
                kinds += _check_every_prefix(f, classes, visible)
        assert set(kinds) == {"TRUE", "FALSE", "undefined"}


SLOW_DRAW = "((G (F ((F (p) R s))) U (p & (s R s))) R q)"


class TestSlowDraw:
    @pytest.mark.parametrize("classes_text", ["p; q; r; s", "p~q; r~s"])
    def test_synthesis_is_fast_and_sound(self, classes_text):
        """A criterion-6 draw with six temporal operators whose synthesis
        once took over 20 s (and did not finish in 30 s with p~q; r~s)."""
        f = parse_formula(SLOW_DRAW)
        classes = parse_classes(classes_text)
        clear_machine_caches()
        t0 = time.perf_counter()
        synthesize_imperfect(f, classes)
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, f"synthesis took {elapsed:.2f}s"

        pool = ("p", "q", "r", "s")
        rng = random.Random(7)
        for _ in range(12):
            trace = random_plain_trace(rng, rng.randint(1, 16), pool)
            visible = visible_trace(explicit_trace(trace, pool), classes, ())
            _check_every_prefix(f, classes, visible)


# The pipeline stages ``monitor`` calls through its globals, by the names
# the benchmark's tracer wraps.
STAGES = ("ltl_to_nba", "nonempty_states", "quotient_bisim", "determinize", "minimize",
          "signed_triple")


@pytest.mark.parametrize("mode", ["standard", "imperfect"])
def test_one_front_end_per_monitor(monkeypatch, mode):
    """Both branches of a monitor share one tableau, one emptiness pass (and
    one flag pass when signed) and one NFA quotient; the subset
    construction and minimisation run once per branch.  The six-valued
    monitor needs only the satisfaction and violation DFAs: no
    forever-undefined automaton is synthesised."""
    calls = dict.fromkeys(STAGES, 0)
    for name in STAGES:
        def counted(*args, _stage=getattr(monitor_module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _stage(*args, **kwargs)
        monkeypatch.setattr(monitor_module, name, counted)
    clear_machine_caches()
    f = parse_formula(PROPS["phi2"])
    signed = mode == "imperfect"
    m = synthesize_imperfect(f, CLASSES) if signed else synthesize_standard(f)
    assert m.mode == mode and len(m.machine.components) == 2
    assert calls == {"ltl_to_nba": 1, "nonempty_states": 1 + signed, "quotient_bisim": 1,
                     "determinize": 2, "minimize": 2, "signed_triple": int(signed)}


@pytest.mark.parametrize("mode", ["standard", "imperfect"])
def test_front_end_builds_one_automaton(monkeypatch, mode):
    """``subset_dfas`` builds the tableau's automaton and, only when the
    quotient merges states, the quotient's: emptiness and the flag pass
    fill the tableau's in place, and a quotient that merges nothing returns
    it.  Over the rover properties and seeded criterion-6 draws."""
    built = []
    init = GuardedAutomaton.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(GuardedAutomaton, "__init__", counted)
    quotient = monitor_module.quotient_bisim
    merged = []

    def watched(aut):
        result = quotient(aut)
        merged.append(result is not aut)
        return result
    monkeypatch.setattr(monitor_module, "quotient_bisim", watched)
    rng = random.Random(20261021)
    pool = ("p", "q", "r", "s")
    draws = [(parse_formula(text), CLASSES) for text in PROPS.values()]
    draws += [(criterion_formula(rng, rng.randint(1, 8), pool), random_partition(rng, pool))
              for _ in range(40)]
    signed = mode == "imperfect"
    for f, classes in draws:
        roots = monitor_module.signed_triple(f, classes) if signed else nnf_pair(f)
        monitor_module.subset_dfas(roots, signed)
    assert len(merged) == len(draws) and 0 < sum(merged) < len(draws)
    assert len(built) == len(draws) + sum(merged)


class TestSignedLeaves:
    """The parser never makes a signed literal, but a formula built through
    the API can hold one.  Synthesis renders atoms onto the classes itself,
    so every entry point refuses such a leaf with a ``ValueError`` naming
    it, before any stage runs: the signed product of such a leaf reaches a
    state no verdict describes, and a plain machine holding it is a file
    that its own loader refuses."""

    F = Eventually(Lit(SLit("p", True)))

    @pytest.mark.parametrize("entry", ["standard", "imperfect", "active"])
    def test_signed_literal_is_refused(self, entry):
        from ltlscope.rational import ActiveSession, RationalConfig
        from ltlscope.visibility import VisibilitySpec
        classes = parse_classes("p; q")
        run = {
            "standard": lambda: synthesize_standard(self.F),
            "imperfect": lambda: synthesize_imperfect(self.F, classes),
            "active": lambda: ActiveSession(self.F, VisibilitySpec(classes=classes),
                                            RationalConfig()),
        }[entry]
        clear_machine_caches()
        with pytest.raises(ValueError, match=r"signed literal 'p=1'"):
            run()

    def test_signed_formulas_still_reach_the_stages(self):
        """The stages below the monitors keep taking signed formulas: the
        oracle and the stage tests feed them."""
        sat, _ = nnf_pair(self.F)
        aut = ltl_to_nba((sat,), signed=True)
        assert aut.literals == (SLit("p", True),)


class TestWideFormulas:
    """A conjunction of n atoms is only log2(n) levels deep, but its tableau
    node has all 2n - 1 subformulas pending at once, and its first DFA state
    reads all n atoms: a row of 2^n events."""

    def test_tableau_refuses_a_node_past_the_recursion_limit(self):
        with pytest.raises(TooWideError, match="recursion limit"):
            ltl_to_nba((balanced_conjunction(1200),), signed=False)

    @pytest.mark.parametrize("entry, count, reason", [
        ("standard", 1200, "recursion limit"), ("standard", 300, "reads 300 literals"),
        ("imperfect", 1200, "recursion limit"), ("imperfect", 24, "reads 24 literals"),
        ("active", 1200, "recursion limit"), ("reactive", 24, "reads 24 literals")])
    def test_wide_formula_is_refused(self, entry, count, reason):
        """Every synthesis entry point refuses the formula before building
        its row."""
        from ltlscope.rational import RationalConfig, active_monitor, reactive_monitor
        from ltlscope.visibility import VisibilitySpec
        f = balanced_conjunction(count)
        names = [f"p{i}" for i in range(count)]
        classes = derive_classes(names, [])
        spec = VisibilitySpec(classes=classes)
        run = {
            "standard": lambda: synthesize_standard(f),
            "imperfect": lambda: synthesize_imperfect(f, classes),
            "active": lambda: active_monitor([{"p0"}], f, spec, RationalConfig()),
            "reactive": lambda: reactive_monitor([{"p0"}], f, spec, RationalConfig(window=1)),
        }[entry]
        clear_machine_caches()
        t0 = time.perf_counter()
        with pytest.raises(TooWideError, match=reason):
            run()
        assert time.perf_counter() - t0 < 5.0

    def test_conjunction_of_disjunctions_is_refused(self):
        """``(p0 | q0) & … & (p9 | q9)`` has 2^10 tableau nodes, and its first
        DFA state reads 20 literals: a row of 2^20 events, over ``MAX_ROW``.
        Admitted, it ran for more than 30 s."""
        f = parse_formula(" & ".join(f"(p{i} | q{i})" for i in range(10)))
        clear_machine_caches()
        t0 = time.perf_counter()
        with pytest.raises(TooWideError, match="reads 20 literals"):
            synthesize_standard(f)
        assert time.perf_counter() - t0 < 5.0
