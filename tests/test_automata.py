"""Synthesis pipeline: tableau, emptiness, determinisation, Moore products."""

import itertools
import random
from dataclasses import replace
from typing import NamedTuple

import pytest

from ltlscope import casestudy, randgen
from ltlscope.automata import (DFA, GuardedAutomaton, ImpossibleStateError,
                               Verdict, classify2, classify3, determinize,
                               ltl_to_nba, minimize, nonempty_states)
from ltlscope.automata.dot import automaton_to_dot, moore_to_dot
from ltlscope.automata.moore import product2, product3
from ltlscope.automata.pipeline import (coarsest_partition, consistent_count,
                                        consistent_masks, guard_free,
                                        literal_order, mask_event, quotient_bisim)
from ltlscope.formula import (FALSE, TRUE, And, Atom, FalseConst, Lit, Next,
                              Not, Or, Release, SLit, TrueConst, Until,
                              negate_nnf, parse_formula, subformulas)
from ltlscope.monitor import (clear_machine_caches, minimal_dfas, subset_dfas,
                              synthesize_imperfect, synthesize_standard)
from ltlscope.oracle.lasso import LassoWord, eval_lasso
from ltlscope.oracle.verdict import signed_triple
from ltlscope.visibility import (derive_classes, explicit_trace, identity_classes,
                                 visible_trace)

from conftest import (accepts_prefix, all_words, plain_events, prefix_nfa,
                      random_formula, random_signed_event, run_prefix, successors,
                      to_nnf)


def reach_sets(adjacency) -> dict:
    """Per state, the states it reaches by one or more edges."""
    out = {}
    for src, succ in adjacency.items():
        seen, work = set(), list(succ)
        while work:
            q = work.pop()
            if q not in seen:
                seen.add(q)
                work.extend(adjacency.get(q, ()))
        out[src] = seen
    return out


def good_cycle_states(marked, acceptance: int) -> set:
    """The states on a cycle whose edges' marks cover every Until: a state
    that reaches itself qualifies when the edges among the states it
    reaches and that reach it back cover ``acceptance`` together.
    ``marked`` maps each state to its (marks, target) pairs.  Pairwise
    reachability, coded separately from the Tarjan pass of
    ``nonempty_states``."""
    reach = reach_sets({q: [dst for _, dst in out] for q, out in marked.items()})
    good = set()
    for s, ahead in reach.items():
        if s in ahead:
            mates = {t for t in ahead if s in reach[t]}
            covered = 0
            for t in mates:
                for marks, dst in marked[t]:
                    if dst in mates:
                        covered |= marks
            if covered & acceptance == acceptance:
                good.add(s)
    return good


def guard_sets(aut: GuardedAutomaton, require: int, forbid: int) -> tuple:
    """An edge's guard masks as its (required, forbidden) sets of literals."""
    return mask_event(aut.literals, require), mask_event(aut.literals, forbid)


def matches(guard: tuple, event: frozenset) -> bool:
    """Whether ``event`` meets a (required, forbidden) pair of literal sets."""
    require, forbid = guard
    return require <= event and not forbid & event


def lasso_accepted_by_nba(nba: GuardedAutomaton, stem, loop) -> bool:
    """Independent ultimately-periodic membership check on a transition-based
    generalised Büchi automaton: a run on the loop's product graph reaches a
    cycle whose edges' marks cover every Until."""
    current = set(nba.initial)
    for event in stem:
        current = {d for q in current for d in successors(nba, q, event)}
        if not current:
            return False
    k = len(loop)
    marked = {}
    work = [(q, 0) for q in current]
    while work:
        q, p = work.pop()
        if (q, p) not in marked:
            marked[(q, p)] = [(marks, (d, (p + 1) % k))
                              for require, forbid, marks, d in nba.transitions.get(q, ())
                              if matches(guard_sets(nba, require, forbid), loop[p])]
            work.extend(s for _, s in marked[(q, p)])
    good = good_cycle_states(marked, nba.acceptance)
    reach = reach_sets({s: [t for _, t in out] for s, out in marked.items()})
    return any(not reach[(q, 0)].isdisjoint(good) for q in current)


def emptiness_oracle(nba: GuardedAutomaton) -> frozenset[int]:
    """Per-state emptiness: the states that reach a cycle whose edges' marks
    cover every Until."""
    marked = {q: [(marks, dst) for _, _, marks, dst in nba.transitions.get(q, ())]
              for q in nba.states}
    good = good_cycle_states(marked, nba.acceptance)
    reach = reach_sets({q: [dst for _, dst in out] for q, out in marked.items()})
    return frozenset(q for q in nba.states if not reach[q].isdisjoint(good))


class TestTableau:
    def test_eventually_needs_a_witness(self):
        nba = ltl_to_nba((to_nnf(parse_formula("F p")),), signed=False)
        assert lasso_accepted_by_nba(nba, (frozenset(),), (frozenset({"p"}),))
        assert not lasso_accepted_by_nba(nba, (), (frozenset(),))

    def test_signed_atom_checks_first_event(self):
        nba = ltl_to_nba((Lit(SLit("p", True)),), signed=True)
        yes = frozenset({SLit("p", True)})
        no = frozenset({SLit("p", False)})
        assert lasso_accepted_by_nba(nba, (yes,), (frozenset(),))
        assert not lasso_accepted_by_nba(nba, (no,), (frozenset(),))
        assert not lasso_accepted_by_nba(nba, (frozenset(),), (frozenset(),))

    def test_case_study_liveness_language(self):
        """Exhaustive lasso agreement for the signed cut-warning property."""
        classes = derive_classes(("c", "s", "w"), [("c", "s")])
        sat, _, _ = signed_triple(parse_formula("F (c & X w)"), classes)
        nba = ltl_to_nba((sat,), signed=True)
        literals = [SLit("[cs]", True), SLit("[cs]", False), SLit("w", True), SLit("w", False)]
        events = [frozenset(), frozenset({literals[0]}), frozenset({literals[2]}),
                  frozenset({literals[0], literals[2]}), frozenset({literals[1], literals[3]})]
        for ls in range(1, 3):
            for ss in range(0, 3):
                for stem in itertools.product(events, repeat=ss):
                    for loop in itertools.product(events, repeat=ls):
                        want = eval_lasso(sat, LassoWord(tuple(stem), tuple(loop)))
                        got = lasso_accepted_by_nba(nba, stem, loop)
                        assert want == got

    def test_random_language_agreement(self, rng):
        events = plain_events(("p", "q"))
        for _ in range(30):
            f = to_nnf(random_formula(rng, rng.randint(1, 6), pool=("p", "q")))
            nba = ltl_to_nba((f,), signed=False)
            for _ in range(20):
                stem = tuple(rng.choice(events) for _ in range(rng.randint(0, 3)))
                loop = tuple(rng.choice(events) for _ in range(rng.randint(1, 3)))
                assert (eval_lasso(f, LassoWord(stem, loop))
                        == lasso_accepted_by_nba(nba, stem, loop))


class StateBased(NamedTuple):
    """A state-based generalised Büchi automaton: guards are (required,
    forbidden) pairs of literal sets and ``acceptance`` holds one set of
    states per Until.  A tableau's ``nodes`` give each state's (now, next)
    sets of formulas."""

    states: list
    initial: tuple
    transitions: dict  # state -> [((require, forbid), target)]
    acceptance: tuple
    nodes: tuple = ()


def preorder_positions(f) -> dict:
    """Each distinct subformula's place in preorder of first occurrence."""
    return {g: i for i, g in enumerate(dict.fromkeys(subformulas(f)))}


def literal_of(g):
    """The atom name or signed literal a literal formula tests."""
    g = g.operand if isinstance(g, Not) else g
    return g.name if isinstance(g, Atom) else g.lit


def is_literal(g) -> bool:
    return isinstance(g, (Atom, Lit)) or (isinstance(g, Not)
                                           and isinstance(g.operand, (Atom, Lit)))


def reference_nba(f, signed: bool) -> StateBased:
    """The tableau on frozensets of formulas, as it stood before subformula
    sets became bitmasks and before states became obligation sets: one
    state per (now, next) node behind a virtual start, state 0, each edge
    guarded by its target's literals, and one acceptance set of nodes per
    Until."""
    order = preorder_positions(f)
    memo = {}

    def guard_of(now):
        return (frozenset(literal_of(g) for g in now if isinstance(g, (Atom, Lit))),
                frozenset(literal_of(g) for g in now if isinstance(g, Not)))

    def consistent(guard):
        # Signed literals also clash with the other sign of their name.
        require, forbid = guard
        signs = {}
        return not require & forbid and not (signed and any(
            signs.setdefault(l.name, l.sign) != l.sign for l in require))

    def choices(g):
        mark, none = frozenset({g}), frozenset()
        if isinstance(g, TrueConst):
            return ((none, none, none),)
        if isinstance(g, FalseConst):
            return ()
        if is_literal(g):
            return ((mark, none, none),)
        if isinstance(g, And):
            return ((mark, none, frozenset({g.left, g.right})),)
        if isinstance(g, Next):
            return ((mark, frozenset({g.operand}), none),)
        if isinstance(g, Or):
            return ((mark, none, frozenset({g.left})), (mark, none, frozenset({g.right})))
        if isinstance(g, Until):
            return ((mark, mark, frozenset({g.left})), (mark, none, frozenset({g.right})))
        if isinstance(g, Release):
            return ((mark, mark, frozenset({g.right})),
                    (mark, none, frozenset({g.left, g.right})))
        raise ValueError(g)

    def cover(pending):
        if pending not in memo:
            out = {(frozenset(), frozenset())} if not pending else set()
            if pending:
                g = min(pending, key=order.__getitem__)
                for now_add, nxt_add, new_add in choices(g):
                    for now, nxt in cover(pending - {g} | new_add):
                        if consistent(guard_of(now | now_add)):
                            out.add((now | now_add, nxt | nxt_add))
            memo[pending] = frozenset(out)
        return memo[pending]

    def node_key(node):
        return (tuple(sorted(order[g] for g in node[0])),
                tuple(sorted(order[g] for g in node[1])))

    ids, nodes, rows = {}, [(frozenset(), frozenset({f}))], {}

    def successors(nxt):
        if nxt not in rows:
            leaves = sorted(cover(nxt), key=node_key)
            for node in leaves:
                if node not in ids:
                    ids[node] = len(nodes)
                    nodes.append(node)
            rows[nxt] = [(guard_of(node[0]), ids[node]) for node in leaves]
        return rows[nxt]

    edges, work = {}, [0]
    while work:
        uid = work.pop()
        if uid not in edges:
            edges[uid] = successors(nodes[uid][1])
            work.extend(dst for _, dst in edges[uid] if dst not in edges)

    untils = sorted((g for g in order if isinstance(g, Until)), key=order.__getitem__)
    return StateBased(
        states=list(range(len(nodes))), initial=(0,), transitions=edges,
        acceptance=tuple(frozenset(q for q, (now, _) in enumerate(nodes)
                                   if u not in now or u.right in now) for u in untils),
        nodes=tuple(nodes))


def guard_masks(guard: tuple, literals: tuple) -> tuple[int, int]:
    """A (required, forbidden) pair of literal sets as masks over a literal
    table."""
    bit = {lit: 1 << i for i, lit in enumerate(literals)}
    return tuple(sum(bit[l] for l in part) for part in guard)


def projected(ref: StateBased, f, signed: bool) -> GuardedAutomaton:
    """The reference tableau read on next sets, in the shape ``ltl_to_nba``
    gives: one state per distinct next set, the start being ``{f}``,
    numbered as first reached breadth first; each row's nodes taken in
    ascending (now, next) mask order, each entering the state of its next
    set with its own guard and, as marks, the acceptance sets it is in;
    edges with one guard and target merged, their marks OR-ed."""
    order = preorder_positions(f)
    literals = tuple(sorted({literal_of(g) for g in order if is_literal(g)}, key=str))

    def mask(formulas):
        return sum(1 << order[g] for g in formulas)

    reader = {}  # next set -> one node whose row is that set's completions
    for q, (_, nxt) in enumerate(ref.nodes):
        reader.setdefault(nxt, q)
    ids, states, transitions = {ref.nodes[0][1]: 0}, [ref.nodes[0][1]], {}
    for uid, nxt in enumerate(states):
        row = {}
        for guard, node in sorted(ref.transitions[reader[nxt]],
                                  key=lambda e: tuple(map(mask, ref.nodes[e[1]]))):
            target = ref.nodes[node][1]
            if target not in ids:
                ids[target] = len(states)
                states.append(target)
            marks = sum(1 << k for k, accepting in enumerate(ref.acceptance) if node in accepting)
            key = (*guard_masks(guard, literals), ids[target])
            row[key] = row.get(key, 0) | marks
        transitions[uid] = [(r, fb, m, d) for (r, fb, d), m in row.items()]
    return GuardedAutomaton(states=list(range(len(states))), initial=(0,),
                            transitions=transitions, signed=signed, literals=literals,
                            acceptance=(1 << len(ref.acceptance)) - 1)


def transition_based(aut: StateBased, signed: bool) -> GuardedAutomaton:
    """A state-based automaton in the pipeline's shape: each edge takes its
    target's acceptance sets as marks, and guards become int masks over the
    literals the edges mention, in ``str`` order."""
    literals = tuple(sorted({l for row in aut.transitions.values() for guard, _ in row
                             for part in guard for l in part}, key=str))

    def marks(q):
        return sum(1 << k for k, accepting in enumerate(aut.acceptance) if q in accepting)

    return GuardedAutomaton(
        states=aut.states, initial=aut.initial, signed=signed, literals=literals,
        transitions={q: [(*guard_masks(guard, literals), marks(dst), dst) for guard, dst in row]
                     for q, row in aut.transitions.items()},
        acceptance=(1 << len(aut.acceptance)) - 1)


def degeneralised(nba: StateBased) -> StateBased:
    """The NBA the pipeline read before it took generalised acceptance:
    ``nba`` quotiented by bisimulation over the acceptance sets each state
    is in, then degeneralised by a counter into a single acceptance set."""
    k = max(1, len(nba.acceptance))
    states, edges = nba.states, nba.transitions
    fulfils = {q: frozenset(i for i, f in enumerate(nba.acceptance) if q in f)
               if nba.acceptance else frozenset({0}) for q in states}
    remap = {}
    block = {q: remap.setdefault(fulfils[q], len(remap)) for q in states}
    while True:
        remap = {}
        refined = {q: remap.setdefault(
            (block[q], frozenset((g, block[d]) for g, d in edges[q])), len(remap))
            for q in states}
        if len(remap) == len(set(block.values())):
            block = refined
            break
        block = refined
    q_edges, q_fulfils = {}, {}
    for q in states:
        q_fulfils[block[q]] = fulfils[q]
        if block[q] not in q_edges:
            q_edges[block[q]] = sorted({(g, block[d]) for g, d in edges[q]},
                                       key=lambda e: (str(e[0]), e[1]))

    out_ids, transitions = {}, {}

    def out(q):
        if q not in out_ids:
            out_ids[q] = len(out_ids)
            transitions[out_ids[q]] = []
        return out_ids[q]

    (init,) = nba.initial
    start = out((block[init], 0))
    frontier, seen = [(block[init], 0)], {(block[init], 0)}
    while frontier:
        b, i = frontier.pop()
        j = (i + 1) % k if i in q_fulfils[b] else i
        for g, d in q_edges[b]:
            transitions[out((b, i))].append((g, out((d, j))))
            if (d, j) not in seen:
                seen.add((d, j))
                frontier.append((d, j))
    return StateBased(
        states=sorted(out_ids.values()), initial=(start,), transitions=transitions,
        acceptance=(frozenset(s for (b, i), s in out_ids.items()
                              if i == 0 and 0 in q_fulfils[b]),))


def criterion_6_branches():
    """(formula, signed) for all four branches of 320 seeded criterion-6
    draws: both plain normal forms and the signed pair under a random
    partition."""
    rng = random.Random(20240817)
    pool = ("p", "q", "r", "s")
    for _ in range(320):
        f = randgen.random_formula(rng, rng.randint(1, 8), pool)
        sat, viol, _ = signed_triple(f, randgen.random_partition(rng, pool))
        yield from ((to_nnf(f), False), (negate_nnf(f), False), (sat, True), (viol, True))


class TestTableauReference:
    """The tableau over obligation-set bitmasks builds exactly the frozenset
    tableau read on next sets: numbering, edge order, guards and marks."""

    @staticmethod
    def assert_same(f, signed):
        got = ltl_to_nba((f,), signed=signed)
        want = projected(reference_nba(f, signed), f, signed)
        assert got.states == want.states, f
        assert got.initial == want.initial, f
        assert got.literals == want.literals, f
        assert got.acceptance == want.acceptance, f
        assert [got.transitions[q] for q in got.states] == \
            [want.transitions[q] for q in want.states], f

    def test_criterion_6_draws(self):
        for branch, signed in criterion_6_branches():
            self.assert_same(branch, signed)

    @pytest.mark.parametrize("operands", range(2, 8))
    def test_until_chains(self, operands):
        f = parse_formula(" U ".join(["p"] * operands))
        self.assert_same(to_nnf(f), False)
        self.assert_same(negate_nnf(f), False)


class TestEmptiness:
    def test_universal_language(self):
        nba = ltl_to_nba((TRUE,), signed=False)
        assert nonempty_states(nba.transitions, nba.acceptance) == frozenset(nba.states)

    def test_empty_language(self):
        nba = ltl_to_nba((FALSE,), signed=False)
        assert nonempty_states(nba.transitions, nba.acceptance) == frozenset()

    def test_matches_independent_oracle(self, rng):
        for _ in range(40):
            f = to_nnf(random_formula(rng, rng.randint(1, 7)))
            nba = ltl_to_nba((f,), signed=False)
            assert nonempty_states(nba.transitions, nba.acceptance) == emptiness_oracle(nba)

    @pytest.mark.parametrize("text", ["G F p & F G !p", "F G !p & G F p", "G F p & G F q"])
    def test_every_acceptance_set_counts(self, text):
        nba = ltl_to_nba((to_nnf(parse_formula(text)),), signed=False)
        assert nba.acceptance == 0b11
        assert nonempty_states(nba.transitions, nba.acceptance) == emptiness_oracle(nba)

    def test_flag_pass_matches_independent_oracle(self, rng):
        """The flag pass, emptiness over the guard-free edges, agrees with
        the oracle run over the edges the empty event meets (those that
        require nothing): on the rover properties and on seeded signed
        draws, every branch of the signed triple."""
        pool = ("p", "q", "r", "s")
        draws = [(f, casestudy.spec().classes) for f in casestudy.formulas().values()]
        draws += [(randgen.random_formula(rng, rng.randint(1, 8), pool),
                   randgen.random_partition(rng, pool)) for _ in range(60)]
        for f, classes in draws:
            for branch in signed_triple(f, classes):
                nba = ltl_to_nba((branch,), signed=True)
                empty = {q: [edge for edge in row if edge[0] == 0]
                         for q, row in nba.transitions.items()}
                assert (nonempty_states(guard_free(nba.transitions), nba.acceptance)
                        == emptiness_oracle(replace(nba, transitions=empty))), branch

    def test_case_study_signed_oracle(self):
        classes = derive_classes(("a", "b", "g", "b1", "b2", "b3", "mb"),
                                 [("a", "b"), ("b", "g")])
        sat, viol, und = signed_triple(
            parse_formula("F (g & (b1 | b2 | b3) & X mb)"), classes)
        for formula in (sat, viol, und):
            nba = ltl_to_nba((formula,), signed=True)
            assert nonempty_states(nba.transitions, nba.acceptance) == emptiness_oracle(nba)


class TestNfa:
    def test_liveness_has_no_bad_prefix(self, rng):
        nfa = prefix_nfa(ltl_to_nba((to_nnf(parse_formula("F p")),), signed=False))
        for n in range(4):
            for word in all_words(plain_events(("p",)), n):
                assert accepts_prefix(nfa, word)

    def test_safety_bad_prefix_rejected(self):
        f = to_nnf(parse_formula("G p"))
        classes = derive_classes(("p",), [])
        sat, _, _ = signed_triple(f, classes)
        nfa = prefix_nfa(ltl_to_nba((sat,), signed=True))
        good = frozenset({SLit("p", True)})
        bad = frozenset()
        assert accepts_prefix(nfa, [good, good])
        assert not accepts_prefix(nfa, [good, bad])

    def test_case_study_violation_prefix(self):
        """The unbroken visible trace stops being violable once the warning
        lands: the position-3 obligation (no warning next) is refuted by the
        final event, leaving the cut-warning property not-violable."""
        alphabet = ("b1", "b2", "b3", "c", "s", "a", "b", "g", "mb", "w")
        classes = derive_classes(alphabet, [("c", "s"), ("a", "b"), ("b", "g")])
        _, viol, _ = signed_triple(parse_formula("F (c & X w)"), classes)
        nfa = prefix_nfa(ltl_to_nba((viol,), signed=True))
        sigma = [set(), {"g", "b1", "c"}, {"g", "c", "mb", "b2"}, {"c"}, {"w"}]
        sv = visible_trace(explicit_trace(sigma, alphabet), classes, ())
        assert accepts_prefix(nfa, sv[:4])
        assert not accepts_prefix(nfa, sv)


def filtered_masks(lits: tuple, signed: bool) -> tuple[int, ...]:
    """Reference for ``consistent_masks``: every mask over ``lits``, less
    those that set two literals of one name in the signed world."""
    conflicts = []
    if signed:
        for a, b in itertools.combinations(range(len(lits)), 2):
            if lits[a].name == lits[b].name:
                conflicts.append((1 << a) | (1 << b))
    return tuple(mask for mask in range(1 << len(lits))
                 if not any(mask & pair == pair for pair in conflicts))


class TestConsistentMasks:
    NAMES = ("p", "q", "b1", "b10", "b2", "[abg]", "[cs]", "w")

    def test_signed_world_matches_the_filter(self, rng):
        """Per name none or one sign equals filtering all masks, in the same
        ascending order, whatever order the literals come in."""
        for _ in range(300):
            names = rng.sample(self.NAMES, rng.randint(0, 6))
            lits = [SLit(name, sign) for name in names
                    for sign in rng.choice(((True,), (False,), (True, False)))]
            if rng.random() < 0.5:
                lits.sort(key=str)
            else:
                rng.shuffle(lits)
            assert consistent_masks(tuple(lits)) == filtered_masks(tuple(lits), True)

    def test_plain_world_matches_the_filter(self, rng):
        for _ in range(50):
            lits = tuple(rng.sample(self.NAMES, rng.randint(0, 7)))
            assert consistent_masks(lits) == filtered_masks(lits, False)
            assert len(consistent_masks(lits)) == 2 ** len(lits)

    def test_count_matches_the_table(self, rng):
        """The closed-form count that ``check_row`` compares with ``MAX_ROW``
        agrees with the table it lets synthesis and the machine loader skip."""
        for _ in range(300):
            signed = rng.random() < 0.7
            if signed:
                names = rng.sample(self.NAMES, rng.randint(0, 5))
                lits = [SLit(name, sign) for name in names
                        for sign in rng.choice(((True,), (False,), (True, False)))]
                rng.shuffle(lits)
            else:
                lits = rng.sample(self.NAMES, rng.randint(0, 6))
            lits = tuple(lits)
            assert consistent_count(lits) == len(consistent_masks(lits))


class TestDeterminize:
    def test_total_and_deterministic(self, rng):
        """Exactly one transition fires for any consistent event."""
        for _ in range(20):
            f = to_nnf(random_formula(rng, rng.randint(1, 5), pool=("p", "q")))
            classes = derive_classes(("p", "q"), [("p", "q")] if rng.random() < 0.5 else [])
            sat, _, _ = signed_triple(f, classes)
            dfa = determinize_one(prefix_nfa(ltl_to_nba((sat,), signed=True)))
            names = {lit.name for q in dfa.states for lit in dfa.lits[q]} | {"zz"}
            for _ in range(20):
                event = random_signed_event(rng, sorted(names))
                q = dfa.initial
                for _ in range(3):
                    q = dfa.step(q, event)  # raises if not total

    def test_membership_agreement_with_nfa(self, rng):
        events = plain_events(("p", "q"))
        for _ in range(30):
            f = to_nnf(random_formula(rng, rng.randint(1, 6), pool=("p", "q")))
            nfa = prefix_nfa(ltl_to_nba((f,), signed=False))
            dfa = determinize_one(nfa)
            for n in range(0, 4):
                for word in all_words(events, n):
                    assert accepts_prefix(nfa, word) == accepts_prefix(dfa, word)

    def test_empty_language_has_no_accepting_reachable(self):
        dfa = determinize_one(prefix_nfa(ltl_to_nba((FALSE,), signed=False)))
        assert dfa.accepting == frozenset()


def determinize_one(nfa: GuardedAutomaton) -> DFA:
    """The subset construction from the one root of ``nfa``."""
    (root,) = nfa.initial
    return determinize(nfa, root)


def branch_subset_dfa(f, signed: bool) -> DFA:
    """The subset DFA of one root alone, through the monitor's pipeline."""
    (dfa,) = subset_dfas((f,), signed)
    return dfa


def branch_dfa(f, signed: bool) -> DFA:
    """The minimal DFA of one root alone, through the monitor's pipeline."""
    (dfa,) = minimal_dfas((f,), signed)
    return dfa


def quotient_nfa(f, signed: bool) -> GuardedAutomaton:
    """The stages of ``subset_dfas`` before the subset construction, for one
    root."""
    return quotient_bisim(prefix_nfa(ltl_to_nba((f,), signed)))


def uncollapsed_determinize(nfa: GuardedAutomaton) -> DFA:
    """The subset construction without the collapse onto universal states:
    every reached subset is its own state.  Each subset reads the literals
    its guards mention, in table order, and steps under each consistent
    mask over them, ascending, to the targets of the guards the mask's
    event meets; subsets are numbered as they are reached."""
    initial = frozenset(nfa.initial)
    ids, order = {initial: 0}, [initial]
    lits_of, table = {}, {}
    for sid, subset in enumerate(order):
        edges = [(guard_sets(nfa, require, forbid), dst) for q in subset
                 for require, forbid, _, dst in nfa.transitions.get(q, ())]
        lits = literal_order({lit for guard, _ in edges for part in guard for lit in part})
        row = {}
        for bits in consistent_masks(lits):
            event = mask_event(lits, bits)
            key = frozenset(dst for guard, dst in edges if matches(guard, event))
            if key not in ids:
                ids[key] = len(order)
                order.append(key)
            row[bits] = ids[key]
        lits_of[sid], table[sid] = lits, row
    return DFA(states=list(range(len(order))), initial=0,
               accepting=frozenset(i for i, s in enumerate(order) if s & nfa.accepting),
               signed=nfa.signed, lits=lits_of, table=table,
               flagged=frozenset(i for i, s in enumerate(order) if s & nfa.flagged))


def reference_minimize(dfa: DFA) -> DFA:
    """``minimize`` by the universe table: each state's successor under every
    consistent event over the union of all literals, labelled by the event's
    index, refined to the coarsest stable partition."""
    universe = tuple(sorted({l for lits in dfa.lits.values() for l in lits}, key=str))
    events = [frozenset(l for i, l in enumerate(universe) if bits >> i & 1)
              for bits in consistent_masks(universe)]
    rows = {q: [(k, dfa.step(q, event)) for k, event in enumerate(events)]
            for q in dfa.states}
    block = coarsest_partition(
        {q: (q in dfa.accepting, q in dfa.flagged) for q in dfa.states}, rows,
        lambda row, block: frozenset((k, block[dst]) for k, dst in row))
    rep: dict[int, int] = {}
    for q in dfa.states:
        rep.setdefault(block[q], q)
    new_ids = {b: i for i, b in enumerate(sorted(rep))}
    return DFA(states=sorted(new_ids.values()), initial=new_ids[block[dfa.initial]],
               accepting=frozenset(new_ids[block[q]] for q in dfa.accepting),
               signed=dfa.signed,
               lits={new_ids[b]: dfa.lits[q] for b, q in rep.items()},
               table={new_ids[b]: {bits: new_ids[block[dst]]
                                   for bits, dst in dfa.table[q].items()}
                      for b, q in rep.items()},
               flagged=frozenset(new_ids[block[q]] for q in dfa.flagged))


def dfa_fields(dfa: DFA) -> tuple:
    return (dfa.states, dfa.initial, dfa.lits, dfa.table, dfa.accepting, dfa.flagged)


class TestMinimize:
    def test_agreement_after_minimize(self, rng):
        events = plain_events(("p", "q"))
        for _ in range(30):
            f = to_nnf(random_formula(rng, rng.randint(1, 6), pool=("p", "q")))
            dfa = determinize_one(prefix_nfa(ltl_to_nba((f,), signed=False)))
            small = minimize(dfa)
            assert len(small.states) <= len(dfa.states)
            for n in range(0, 5):
                for word in all_words(events, n):
                    assert accepts_prefix(dfa, word) == accepts_prefix(small, word)

    def test_minimal_input_is_stable(self):
        dfa = branch_dfa(to_nnf(parse_formula("F p")), signed=False)
        again = minimize(dfa)
        assert len(again.states) == len(dfa.states)

    def test_duplicate_states_merge(self):
        # Two states with identical behaviour built by hand.
        dfa = DFA(states=[0, 1, 2], initial=0, accepting=frozenset({2}),
                  signed=False,
                  lits={0: ("p",), 1: ("p",), 2: ()},
                  table={0: {0: 1, 1: 2}, 1: {0: 1, 1: 2}, 2: {0: 2}})
        small = minimize(dfa)
        assert len(small.states) == 2

    def test_flag_keeps_equivalent_states_apart(self):
        """States 0 and 1 accept the same prefixes; only 1 is flagged, so
        merging them would lose the flag of every prefix reaching 1."""
        dfa = DFA(states=[0, 1, 2], initial=0, accepting=frozenset({2}),
                  signed=False,
                  lits={0: ("p",), 1: ("p",), 2: ()},
                  table={0: {0: 1, 1: 2}, 1: {0: 1, 1: 2}, 2: {0: 2}},
                  flagged=frozenset({1}))
        small = minimize(dfa)
        assert len(small.states) == 3
        assert small.step(small.initial, frozenset()) in small.flagged
        assert small.initial not in small.flagged

    def test_states_reading_different_literals_merge(self):
        """States 1 and 2 are equivalent: 1 reads ``p`` but sends both masks
        to the accepting sink, 2 reads nothing.  They merge although their
        literal tuples differ, and the merged state keeps 1's row."""
        dfa = DFA(states=[0, 1, 2, 3], initial=0, accepting=frozenset({3}),
                  signed=False,
                  lits={0: ("q",), 1: ("p",), 2: (), 3: ()},
                  table={0: {0: 1, 1: 2}, 1: {0: 3, 1: 3}, 2: {0: 3}, 3: {0: 3}})
        small = minimize(dfa)
        assert dfa_fields(small) == dfa_fields(reference_minimize(dfa))
        assert len(small.states) == 3
        assert small.step(small.initial, frozenset()) == small.step(small.initial, {"q"})

    def test_signed_literals_of_one_name_merge(self):
        """A state reading both signs of ``p`` into one successor is the same
        as a state reading nothing."""
        pos, neg = SLit("p", True), SLit("p", False)
        dfa = DFA(states=[0, 1, 2, 3], initial=0, accepting=frozenset({3}),
                  signed=True,
                  lits={0: (neg, pos), 1: (neg, pos), 2: (), 3: ()},
                  table={0: {0: 3, 1: 1, 2: 2}, 1: {0: 3, 1: 3, 2: 3}, 2: {0: 3},
                         3: {0: 3}})
        small = minimize(dfa)
        assert dfa_fields(small) == dfa_fields(reference_minimize(dfa))
        assert len(small.states) == 3

    def test_matches_the_universe_table_on_criterion_6_draws(self):
        """Refining over each state's own literals gives the same DFA, field
        for field, as refining over every event on the union of literals:
        both branches of both monitors, signed and plain."""
        rng = random.Random(20261019)
        pool = ("p", "q", "r", "s")
        for _ in range(250):
            f = randgen.random_formula(rng, rng.randint(1, 8), pool)
            sat, viol, _ = signed_triple(f, randgen.random_partition(rng, pool))
            for branch, signed in ((to_nnf(f), False), (negate_nnf(f), False),
                                   (sat, True), (viol, True)):
                dfa = branch_subset_dfa(branch, signed)
                assert dfa_fields(minimize(dfa)) == dfa_fields(reference_minimize(dfa)), branch

    def test_wide_signed_alphabet_is_minimised(self):
        """Eight atoms whose both signs are read give a union of 3^8
        consistent events; the violation DFA without the collapse onto
        universal states still minimises, to 82 of its 162 states, and the
        machine has 99 Moore states.  With the collapse, the subset
        construction gives the 82 minimal states directly."""
        f, classes = both_signs_example()
        _, viol, _ = signed_triple(f, classes)
        dfa = uncollapsed_determinize(quotient_nfa(viol, signed=True))
        assert (len(dfa.states), len(minimize(dfa).states)) == (162, 82)
        assert len(branch_subset_dfa(viol, signed=True).states) == 82
        assert len(synthesize_imperfect(f, classes).machine.outputs) == 99


def greatest_bisimulation(keys, rows):
    """Pairs of states related by the greatest bisimulation that respects
    ``keys``, by refining the pair relation until every edge of one state
    is matched by an equally labelled edge of the other: a different
    algorithm from the block signatures of ``coarsest_partition``."""
    related = {(p, q) for p in keys for q in keys if keys[p] == keys[q]}

    def simulates(p, q):
        return all(any(label == other and (dst, dst2) in related
                       for other, dst2 in rows[q])
                   for label, dst in rows[p])

    while True:
        kept = {(p, q) for p, q in related if simulates(p, q) and simulates(q, p)}
        if kept == related:
            return related
        related = kept


def partition_case(rng, discrete: bool):
    """Random states, keys and labelled rows; ``discrete`` keys tell every
    state apart."""
    states = rng.sample(range(10), rng.randint(1, 7))
    keys = ({q: k for k, q in enumerate(states)} if discrete
            else {q: rng.randint(0, 2) for q in states})
    rows = {}
    for q in states:
        if rows and rng.random() < 0.3:
            rows[q] = rows[rng.choice(list(rows))]  # one shared row object
        else:
            rows[q] = [(rng.choice("ab"), rng.choice(states))
                       for _ in range(rng.randint(0, 3))]
    return states, keys, rows


class TestCoarsestPartition:
    def test_matches_pair_refinement(self):
        rng = random.Random(20261018)
        for discrete in [False] * 400 + [True] * 100:
            states, keys, rows = partition_case(rng, discrete)
            block = coarsest_partition(
                keys, rows, lambda row, block: frozenset((a, block[b]) for a, b in row))
            related = greatest_bisimulation(keys, rows)
            assert {(p, q) for p in states for q in states
                    if block[p] == block[q]} == related, (keys, rows)
            first_seen = list(dict.fromkeys(block[q] for q in states))
            assert first_seen == list(range(len(first_seen)))

    def test_discrete_keys_read_no_row(self):
        """A partition whose every block holds one state cannot split."""
        def read(row, block):
            raise AssertionError(f"read {row!r}")

        rng = random.Random(20261020)
        for _ in range(100):
            states, keys, rows = partition_case(rng, discrete=True)
            assert coarsest_partition(keys, rows, read) == keys

    def test_refinement_stops_once_discrete(self):
        """One round tells three states with one key apart; no second round
        reads their rows again to confirm it."""
        reads = []

        def read(row, block):
            reads.append(row)
            return row

        block = coarsest_partition(dict.fromkeys("abc", 0), {"a": "x", "b": "y", "c": "z"}, read)
        assert block == {"a": 0, "b": 1, "c": 2}
        assert reads == ["x", "y", "z"]


def rebuilt_quotient(aut: GuardedAutomaton, block: dict) -> GuardedAutomaton:
    """The quotient rebuilt from each block's first state, as ``quotient_bisim``
    builds every quotient that merges states: edges as sorted (require,
    forbid, target block) triples, marks dropped."""
    rep: dict[int, int] = {}
    for q in aut.states:
        rep.setdefault(block[q], q)
    return GuardedAutomaton(
        states=sorted(rep), initial=tuple(block[q] for q in aut.initial),
        transitions={b: [(require, forbid, 0, dst) for require, forbid, dst in sorted(
            {(require, forbid, block[dst]) for require, forbid, _, dst in aut.transitions.get(q, ())})]
            for b, q in rep.items()},
        signed=aut.signed, literals=aut.literals,
        accepting=frozenset(block[q] for q in aut.accepting),
        flagged=frozenset(block[q] for q in aut.flagged))


def rebuilt_minimal(dfa: DFA, block: dict) -> DFA:
    """The minimal DFA rebuilt from each block's first state, as ``minimize``
    builds every DFA that merges states."""
    rep: dict[int, int] = {}
    for q in dfa.states:
        rep.setdefault(block[q], q)
    return DFA(states=list(rep), initial=block[dfa.initial],
               accepting=frozenset(block[q] for q in dfa.accepting), signed=dfa.signed,
               lits={b: dfa.lits[q] for b, q in rep.items()},
               table={b: {bits: block[dst] for bits, dst in dfa.table[q].items()}
                      for b, q in rep.items()},
               flagged=frozenset(block[q] for q in dfa.flagged))


def nfa_fields(aut: GuardedAutomaton) -> tuple:
    """What the subset construction reads of an NFA: edges as sorted (require,
    forbid, target) triples, in no order and without marks."""
    return (aut.states, aut.initial, aut.signed, aut.literals, aut.accepting, aut.flagged,
            {q: sorted((require, forbid, dst) for require, forbid, _, dst in edges)
             for q, edges in aut.transitions.items()})


class TestUnmergedStages:
    """A quotient that merges no states returns its input, and one that
    merges some a new automaton.  A minimisation that merges none passes
    its input's structure on to a new DFA instead of rebuilding it.  Either
    result matches the rebuild field for field (the quotient's edges keep
    the tableau's order and marks, which no later stage reads), and the
    subset construction and the minimal DFA are unchanged."""

    def test_criterion_6_draws(self):
        rng = random.Random(20261020)
        pool = ("p", "q", "r", "s")
        unmerged = [0, 0]
        merged = 0
        for _ in range(150):
            f = randgen.random_formula(rng, rng.randint(1, 8), pool)
            sat, viol, _ = signed_triple(f, randgen.random_partition(rng, pool))
            for branch, signed in ((to_nnf(f), False), (negate_nnf(f), False),
                                   (sat, True), (viol, True)):
                nfa = prefix_nfa(ltl_to_nba((branch,), signed))
                quotient = quotient_bisim(nfa)
                if len(quotient.states) == len(nfa.states):
                    unmerged[0] += 1
                    assert quotient is nfa
                    rebuilt = rebuilt_quotient(nfa, {q: q for q in nfa.states})
                    assert nfa_fields(quotient) == nfa_fields(rebuilt), branch
                    assert (dfa_fields(determinize_one(quotient))
                            == dfa_fields(determinize_one(rebuilt)))
                else:
                    merged += 1
                    assert quotient is not nfa
                dfa = determinize_one(quotient)
                small = minimize(dfa)
                assert small is not dfa
                if len(small.states) == len(dfa.states):
                    unmerged[1] += 1
                    assert dfa_fields(small) == dfa_fields(
                        rebuilt_minimal(dfa, {q: q for q in dfa.states})), branch
        assert min(unmerged) > 100 and merged > 10, (unmerged, merged)

    def test_minimize_returns_a_new_dfa(self):
        dfa = branch_dfa(to_nnf(parse_formula("F p")), signed=False)
        again = minimize(dfa)
        assert again is not dfa and dfa_fields(again) == dfa_fields(dfa)


class TestFlags:
    def test_quotient_keeps_flagged_states_apart(self):
        """Two bisimilar states, one flagged, stay two blocks."""
        aut = GuardedAutomaton(states=[0, 1], initial=(0, 1),
                               transitions={0: [(0, 0, 0, 0)], 1: [(0, 0, 0, 1)]},
                               accepting=frozenset({0, 1}), signed=False,
                               flagged=frozenset({1}))
        quotient = quotient_bisim(aut)
        assert len(quotient.states) == 2 and len(quotient.flagged) == 1
        aut.flagged = frozenset()
        assert len(quotient_bisim(aut).states) == 1

    @pytest.mark.parametrize("minimized", [True, False])
    def test_flag_is_acceptance_of_the_empty_continuation(self, rng, minimized):
        """A signed DFA state is flagged exactly when the prefix reaching it,
        continued by empty events forever, satisfies the branch formula:
        on the minimal DFA and on the subset construction's."""
        names = ("p", "q")
        for _ in range(40):
            f = random_formula(rng, rng.randint(1, 6), pool=names)
            classes = derive_classes(names, [names] if rng.random() < 0.5 else [])
            for branch in signed_triple(f, classes)[:2]:
                dfa = (branch_dfa if minimized else branch_subset_dfa)(branch, signed=True)
                literals = sorted({lit.name for q in dfa.states for lit in dfa.lits[q]})
                for _ in range(6):
                    prefix = tuple(random_signed_event(rng, literals)
                                   for _ in range(rng.randint(0, 5)))
                    want = eval_lasso(branch, LassoWord(prefix, (frozenset(),)))
                    assert (run_prefix(dfa, prefix) in dfa.flagged) == want


class TestSingleQuotient:
    """The transition-based tableau over obligation sets, read with its
    edge marks and with the NFA quotient as the only quotient, changes no
    machine: each branch's minimal DFA equals the one built from the
    state-based frozenset tableau, quotiented and degeneralised, then given
    as marks the acceptance set of each edge's target.  The maps from the
    reference nodes to their next sets and to their quotient blocks are
    bisimulations that keep emptiness and the flag, so the NFA quotients
    agree up to renaming, and the subset construction without the collapse
    onto universal states numbers subsets by mask order alone: its DFAs are
    equal.  With the collapse they may differ, since which NFA states are
    universal depends on the automaton: either side may collapse more.
    The pipeline's subset DFA is no larger than its uncollapsed one, and
    both sides minimise to the same DFA."""

    @staticmethod
    def reference_nfa(f, signed):
        return quotient_bisim(prefix_nfa(
            transition_based(degeneralised(reference_nba(f, signed)), signed)))

    def assert_same(self, f, signed):
        reference = self.reference_nfa(f, signed)
        uncollapsed = uncollapsed_determinize(quotient_nfa(f, signed))
        assert dfa_fields(uncollapsed) == dfa_fields(uncollapsed_determinize(reference)), f
        assert len(branch_subset_dfa(f, signed).states) <= len(uncollapsed.states), f
        want = minimize(determinize_one(reference))
        assert dfa_fields(branch_dfa(f, signed)) == dfa_fields(want), f

    def test_criterion_6_draws(self):
        for branch, signed in criterion_6_branches():
            self.assert_same(branch, signed)

    @pytest.mark.parametrize("operands", range(2, 8))
    def test_until_chains(self, operands):
        f = parse_formula(" U ".join(["p"] * operands))
        self.assert_same(to_nnf(f), False)
        self.assert_same(negate_nnf(f), False)


def monitor_cases():
    """(roots, signed) of both monitors of the criterion-6 draws and of the
    rover properties under the case-study and the singleton classes, of
    until chains of 2 to 7 operands and of the both-signs formula."""
    branches = criterion_6_branches()
    for (sat, signed), (viol, _) in zip(branches, branches):  # consecutive pairs
        yield (sat, viol), signed
    vspec = casestudy.spec()
    for f in casestudy.formulas().values():
        yield (to_nnf(f), negate_nnf(f)), False
        for classes in (vspec.classes, identity_classes(vspec.alphabet)):
            yield signed_triple(f, classes)[:2], True
    for operands in range(2, 8):
        f = parse_formula(" U ".join("pqr"[k % 3] for k in range(operands)))
        yield (to_nnf(f), negate_nnf(f)), False
        yield signed_triple(f, derive_classes("pqr", [("p", "q")]))[:2], True
    f, classes = both_signs_example()
    yield (to_nnf(f), negate_nnf(f)), False
    yield signed_triple(f, classes)[:2], True


def collapse_cases():
    """(formula, signed) branches for the collapse checks: each root of
    ``monitor_cases``."""
    for roots, signed in monitor_cases():
        for root in roots:
            yield root, signed


class TestUniversalCollapse:
    """The subset construction makes every subset that holds a universal
    NFA state (accepting, flagged on the signed branch, with a ``true``
    loop) one state, which takes every event.  No minimal DFA changes: it
    equals the minimisation of the construction without the collapse in
    states, initial state, acceptance, flags and rows, except that a state
    that maps to itself may now read no literal."""

    def test_minimal_dfas_are_unchanged(self):
        collapsed = shrunk = 0
        for f, signed in collapse_cases():
            nfa = quotient_nfa(f, signed)
            plain = uncollapsed_determinize(nfa)
            want, got = minimize(plain), branch_dfa(f, signed)
            assert (got.states, got.initial, got.accepting, got.flagged) == \
                (want.states, want.initial, want.accepting, want.flagged), f
            for q in got.states:
                if (got.lits[q], got.table[q]) != (want.lits[q], want.table[q]):
                    assert set(want.table[q].values()) == {q}, (f, q)
                    assert (got.lits[q], got.table[q]) == ((), {0: q}), (f, q)
                    collapsed += 1
            shrunk += len(determinize_one(nfa).states) < len(plain.states)
        assert collapsed > 100 and shrunk > 100, (collapsed, shrunk)

    def test_plain_eventually_is_universal(self):
        """``{F p}`` is accepting and its ``true`` loop stays in it: the
        subset DFA of ``F p`` is one state that takes every event."""
        dfa = branch_subset_dfa(to_nnf(parse_formula("F p")), signed=False)
        assert dfa_fields(dfa) == ([0], 0, {0: ()}, {0: {0: 0}}, frozenset({0}), frozenset())

    def test_signed_eventually_is_not_flagged(self):
        """``{F p=1}`` has a ``true`` loop, but looping never fulfils the
        Until, so the empty continuation fails there and it is not flagged:
        not universal.  Its subset DFA reads ``p=1`` and is flagged only
        once ``p=1`` was seen."""
        sat, viol, _ = signed_triple(parse_formula("F p"), derive_classes(("p",), []))
        dfa = branch_subset_dfa(sat, signed=True)
        pos = SLit("p", True)
        assert pos in dfa.lits[dfa.initial]
        assert dfa.initial in dfa.accepting and dfa.initial not in dfa.flagged
        assert dfa.step(dfa.initial, frozenset()) not in dfa.flagged
        assert dfa.step(dfa.initial, frozenset({pos})) in dfa.flagged
        cursor = synthesize_imperfect(parse_formula("F p"), derive_classes(("p",), []))
        assert cursor.run([frozenset(), frozenset({pos})]) == Verdict.TRUE

    def test_empty_state_with_a_true_loop_is_not_universal(self):
        """``F (p & !p)`` loops on ``true`` but its language is empty, so its
        subsets must not collapse: ``X q`` still decides the verdict."""
        f = parse_formula("F (p & !p) | X q")
        assert synthesize_standard(f).run([frozenset(), frozenset({"q"})]) == Verdict.TRUE
        assert synthesize_standard(f).run([frozenset(), frozenset()]) == Verdict.FALSE
        dfa = branch_subset_dfa(to_nnf(f), signed=False)
        assert accepts_prefix(dfa, [frozenset(), frozenset({"q"})])
        assert not accepts_prefix(dfa, [frozenset(), frozenset()])


def decoded_edges(aut: GuardedAutomaton, q: int, acceptance: int) -> list:
    """A state's edges with their guards as sets of literals and only the
    marks within ``acceptance``."""
    return [(*guard_sets(aut, require, forbid), marks & acceptance, dst)
            for require, forbid, marks, dst in aut.transitions[q]]


class TestSharedFrontEnd:
    """A monitor's two roots share one tableau, one emptiness pass, one flag
    pass and one NFA quotient, and still each root's subset DFA and minimal
    DFA equal, field for field, those the root gets through the pipeline
    alone."""

    def test_each_root_gets_its_own_dfas(self):
        shared = 0
        for roots, signed in monitor_cases():
            for k, (subset, small) in enumerate(zip(subset_dfas(roots, signed),
                                                    minimal_dfas(roots, signed))):
                assert dfa_fields(subset) == dfa_fields(branch_subset_dfa(roots[k], signed)), roots
                assert dfa_fields(small) == dfa_fields(branch_dfa(roots[k], signed)), roots
            nba = ltl_to_nba(roots, signed)
            alone = sum(len(ltl_to_nba((root,), signed).states) for root in roots)
            shared += len(nba.states) < alone
        assert shared > 100, shared

    def test_root_0_part_is_the_one_root_tableau(self):
        """States are numbered breadth first from root 0 before root 1, so
        the states root 0 reaches come first and, with guards read as sets
        of literals and marks within its own Untils, carry its one-root
        tableau's edges.  Its edges set the mark of every Until that only
        root 1 holds."""
        for roots, signed in monitor_cases():
            nba, alone = ltl_to_nba(roots, signed), ltl_to_nba(roots[:1], signed)
            assert nba.initial[0] == 0 and len(nba.initial) == 2, roots
            own, later = alone.acceptance, nba.acceptance & ~alone.acceptance
            for q in alone.states:
                assert decoded_edges(nba, q, own) == decoded_edges(alone, q, own), roots
                assert all(marks & later == later for _, _, marks, _ in nba.transitions[q])


class TestProducts:
    def test_atomic_truth(self):
        from ltlscope.monitor import synthesize_standard
        m = synthesize_standard(Atom("p"))
        assert m.verdict == Verdict.UNKNOWN
        assert m.step({"p"}) == Verdict.TRUE

    def test_liveness_stays_unknown(self):
        from ltlscope.monitor import synthesize_standard
        m = synthesize_standard(parse_formula("F p"))
        m.run([frozenset(), frozenset()])
        assert m.verdict == Verdict.UNKNOWN

    def test_case_study_phi3_standard_true(self):
        from ltlscope.monitor import synthesize_standard
        m = synthesize_standard(parse_formula("F ((!c & b1 & X b2) | (!c & b2 & X b3))"))
        view = [frozenset(), frozenset({"b1"}), frozenset({"mb", "b2"})]
        m.run(view)
        assert m.verdict == Verdict.TRUE

    def test_classification_tables(self):
        assert classify3(True, False, False) == Verdict.TRUE
        assert classify3(False, True, False) == Verdict.FALSE
        assert classify3(False, False, True) == Verdict.UU
        assert classify3(True, False, True) == Verdict.UNKNOWN_NOT_FALSE
        assert classify3(False, True, True) == Verdict.UNKNOWN_NOT_TRUE
        assert classify3(True, True, True) == Verdict.UNKNOWN
        with pytest.raises(ImpossibleStateError):
            classify3(False, False, False)
        with pytest.raises(ImpossibleStateError):
            classify3(True, True, False)
        with pytest.raises(ImpossibleStateError):
            classify2(False, False)

    def test_singleton_truth_in_product3(self):
        classes = derive_classes(("p",), [])
        m = synthesize_imperfect(Atom("p"), classes)
        assert m.step({SLit("p", True)}) == Verdict.TRUE

    def test_case_study_six_valued_cells(self):
        """The unbroken visible trace classifies the no-cut property as
        not-violable and the cut-free safety property as not-satisfiable."""
        alphabet = ("b1", "b2", "b3", "c", "s", "a", "b", "g", "mb", "w")
        classes = derive_classes(alphabet, [("c", "s"), ("a", "b"), ("b", "g")])
        sigma = [set(), {"g", "b1", "c"}, {"g", "c", "mb", "b2"}, {"c"}, {"w"}]
        sv = visible_trace(explicit_trace(sigma, alphabet), classes, ())

        m = synthesize_imperfect(
            parse_formula("F ((!c & b1 & X b2) | (!c & b2 & X b3))"), classes)
        m.run(sv)
        assert m.verdict == Verdict.UNKNOWN_NOT_FALSE

        m = synthesize_imperfect(parse_formula("G (!g -> !mb)"), classes)
        m.run(sv)
        assert m.verdict == Verdict.UNKNOWN_NOT_TRUE

    def test_moore_totality_fuzz(self, rng):
        """Stepping never gets stuck, whatever junk literals events carry."""
        classes = derive_classes(("p", "q", "r"), [("p", "q")])
        m = synthesize_imperfect(parse_formula("p U (q & X r)"), classes)
        names = ["p", "q", "r", "[pq]", "zz"]
        state = m.machine.initial
        for _ in range(300):
            event = random_signed_event(rng, names)
            state = m.machine.step(state, event)
            assert state in m.machine.outputs


def reference_product(a: DFA, b: DFA, classify) -> dict:
    """The product's outputs by the union walk: at each reachable state pair,
    every consistent event over the union of both states' literals, built
    as a set and stepped through both DFAs."""
    outputs: dict = {}
    work = [(a.initial, b.initial)]
    while work:
        state = work.pop()
        if state in outputs:
            continue
        outputs[state] = classify(*state)
        s, v = state
        union = tuple(sorted({*a.lits[s], *b.lits[v]}, key=str))
        for bits in consistent_masks.__wrapped__(union):
            event = frozenset(l for i, l in enumerate(union) if bits >> i & 1)
            work.append((a.step(s, event), b.step(v, event)))
    return outputs


def wide_example(atoms: int):
    """``G ((a0|…|a(h-1)) -> X (ah|…))`` over singleton classes, h = atoms / 2."""
    names = [f"a{i}" for i in range(atoms)]
    half = atoms // 2
    f = parse_formula(f"G (({' | '.join(names[:half])}) -> X ({' | '.join(names[half:])}))")
    return f, derive_classes(names, [])


def both_signs_example():
    """Eight atoms, each read under both signs: 99 Moore states."""
    names = [f"a{i}" for i in range(8)]
    f = parse_formula("G (" + " & ".join(
        f"(a{i} -> X !a{i + 4}) & (!a{i} -> X a{i + 4})" for i in range(4)) + ")")
    return f, derive_classes(names, [])


def product_cases():
    """(label, formula, classes) for the differential product checks: the
    criterion-6 draws, the rover properties under the case-study and the
    singleton classes, the both-signs formula and the wide example."""
    rng = random.Random(20261019)
    pool = ("p", "q", "r", "s")
    for k in range(150):
        f = randgen.random_formula(rng, rng.randint(1, 8), pool)
        yield f"draw {k}", f, randgen.random_partition(rng, pool)
    vspec = casestudy.spec()
    for name, f in casestudy.formulas().items():
        yield name, f, vspec.classes
        yield f"{name} singleton", f, identity_classes(vspec.alphabet)
    yield ("both signs", *both_signs_example())
    for atoms in (8, 10):
        yield (f"wide {atoms}", *wide_example(atoms))


def random_rows_dfa(rng, names, signed: bool, one_successor: float) -> DFA:
    """A total DFA of two to four states, every state accepting; each state
    reads up to three random literals over ``names`` (both signs of a name
    may be among them), and with probability ``one_successor`` its row
    maps every mask to one successor."""
    literals = [SLit(n, sign) for n in names for sign in (True, False)] if signed else list(names)
    n = rng.randint(2, 4)
    lits, table = {}, {}
    for q in range(n):
        lits[q] = literal_order(rng.sample(literals, rng.randint(0, min(3, len(literals)))))
        only = rng.randrange(n) if rng.random() < one_successor else None
        table[q] = {bits: rng.randrange(n) if only is None else only
                    for bits in consistent_masks(lits[q])}
    return DFA(states=list(range(n)), initial=0, accepting=frozenset(range(n)),
               signed=signed, lits=lits, table=table)


def row_pair_cases():
    """(label, a, b) component pairs whose state pairs include rows that read
    no name in common and rows with one successor."""
    rng = random.Random(20261020)
    for k in range(60):
        for signed in (False, True):
            world = "signed" if signed else "plain"
            yield (f"disjoint {world} {k}", random_rows_dfa(rng, "pq", signed, 0.0),
                   random_rows_dfa(rng, "rs", signed, 0.0))
            yield (f"one successor {world} {k}", random_rows_dfa(rng, "pqr", signed, 0.5),
                   random_rows_dfa(rng, "pqr", signed, 0.5))
            yield (f"shared {world} {k}", random_rows_dfa(rng, "pq", signed, 0.0),
                   random_rows_dfa(rng, "pq", signed, 0.0))


def same_literal_cases():
    """(label, a, b) component pairs over one state set whose states read the
    same literal tuples, with rows of their own: signed ones may read both
    signs of a name, so only the consistent masks are keys."""
    rng = random.Random(20261021)
    for k in range(60):
        for signed in (False, True):
            a = random_rows_dfa(rng, "pqr", signed, 0.0)
            b = replace(a, table={q: {bits: rng.randrange(len(a.states)) for bits in row}
                                  for q, row in a.table.items()})
            yield f"same literals {'signed' if signed else 'plain'} {k}", a, b


class TestProductJoin:
    """The product joins the component rows on shared names; the union walk
    it replaced is kept here as ``reference_product``."""

    def test_row_pairs_match_the_union_walk(self):
        """Rows that read no name in common, or of which one has a single
        successor, give every pair of their successors."""
        for label, a, b in row_pair_cases():
            assert product2(a, b).outputs == reference_product(
                a, b, lambda s, v: classify2(True, True)), label

    def test_rows_over_one_literal_tuple_are_zipped(self):
        """Two rows over one literal tuple map the same consistent masks, so
        their successor pairs are the rows zipped mask by mask."""
        zipped = 0
        for label, a, b in same_literal_cases():
            outputs = product2(a, b).outputs
            assert outputs == reference_product(
                a, b, lambda s, v: classify2(True, True)), label
            zipped += sum(1 for s, v in outputs
                          if a.lits[s] == b.lits[v] and len(set(a.table[s].values())) > 1
                          and len(set(b.table[v].values())) > 1)
        assert zipped > 100, zipped

    @staticmethod
    def components(f, classes):
        sat, viol, _ = signed_triple(f, classes)
        return ((branch_dfa(to_nnf(f), signed=False), branch_dfa(negate_nnf(f), signed=False)),
                (branch_dfa(sat, signed=True), branch_dfa(viol, signed=True)))

    def test_outputs_match_the_union_walk(self):
        for label, f, classes in product_cases():
            (pos, neg), (sat, viol) = self.components(f, classes)
            assert product2(pos, neg).outputs == reference_product(
                pos, neg, lambda p, n: classify2(p in pos.accepting, n in neg.accepting)), label
            assert product3(sat, viol).outputs == reference_product(
                sat, viol, lambda s, v: classify3(s in sat.accepting, v in viol.accepting,
                                                  not (s in sat.flagged or v in viol.flagged))), label

    def test_opposite_signs_of_one_name_never_meet(self):
        """One row reads only ``p=1`` and the other only ``p=0``: a join on
        shared literal bits would pair ``p=1`` in one with ``p=0`` in the
        other, a successor pair no consistent event reaches."""
        pos, neg = SLit("p", True), SLit("p", False)
        a = DFA(states=[0, 1, 2], initial=0, accepting=frozenset({0, 1, 2}), signed=True,
                lits={0: (pos,), 1: (), 2: ()}, table={0: {0: 2, 1: 1}, 1: {0: 1}, 2: {0: 2}})
        b = DFA(states=[0, 1, 2], initial=0, accepting=frozenset({0, 1, 2}), signed=True,
                lits={0: (neg,), 1: (), 2: ()}, table={0: {0: 2, 1: 1}, 1: {0: 1}, 2: {0: 2}})
        outputs = product2(a, b).outputs
        assert set(outputs) == {(0, 0), (1, 2), (2, 1), (2, 2)}
        assert outputs == reference_product(a, b, lambda s, v: classify2(True, True))

    def test_wide_alphabet(self):
        """Ten atoms over singleton classes: a union of 3^10 consistent
        events at the widest state pair, six Moore states from two
        three-state DFAs."""
        m = synthesize_imperfect(*wide_example(10)).machine
        assert len(m.outputs) == 6
        assert [len(dfa.states) for dfa in m.components] == [3, 3]


class TestLemma1:
    def test_direction_failure_reproduced(self):
        """With p and q indistinguishable, the trace whose second event hides p
        is accepted by neither the satisfaction nor the violation automaton."""
        classes = derive_classes(("p", "q", "r"), [("p", "q")])
        sat, viol, _ = signed_triple(Next(Atom("p")), classes)
        sigma = [set(), {"p"}]
        sv = visible_trace(explicit_trace(sigma, ("p", "q", "r")), classes, ())
        assert sv[1] == frozenset({SLit("r", False)})
        for formula in (sat, viol):
            nfa = prefix_nfa(ltl_to_nba((formula,), signed=True))
            assert not accepts_prefix(nfa, sv)


class TestDot:
    def test_exports_render(self):
        classes = derive_classes(("p",), [])
        m = synthesize_imperfect(Atom("p"), classes)
        dot = moore_to_dot(m.machine)
        assert dot.startswith("digraph") and "?" in dot
        nfa = prefix_nfa(ltl_to_nba((to_nnf(parse_formula("F p")),), signed=False))
        assert "doublecircle" in automaton_to_dot(nfa)
        dfa = branch_dfa(to_nnf(parse_formula("F p")), signed=False)
        assert "digraph" in automaton_to_dot(dfa)

    def test_export_leaves_the_step_memos_alone(self):
        """Exporting a machine draws every edge without stepping it, so the
        components remember no successor of an event no trace stepped."""
        f = parse_formula("G ((a0 | a1 | a2 | a3) -> X (a4 | a5 | a6 | a7))")
        atoms = [f"a{i}" for i in range(8)]
        clear_machine_caches()
        machine = synthesize_imperfect(f, identity_classes(atoms)).machine
        assert moore_to_dot(machine).count(" -> s") > 4096
        assert [dfa.successors for dfa in machine.components] == [None, None]


class TestDotLabels:
    """Edge labels are decoded from guard masks: the required literals, then
    the forbidden ones negated, each part in ``str`` order, and ``true``
    for a guard that reads nothing."""

    def test_plain_guards(self):
        dot = automaton_to_dot(ltl_to_nba((to_nnf(parse_formula("F p")),), signed=False))
        assert '  q0 -> q0 [label="true"];' in dot
        assert '  q0 -> q1 [label="p"];' in dot
        forbid_only = automaton_to_dot(ltl_to_nba((to_nnf(parse_formula("G !p")),), signed=False))
        assert '  q0 -> q0 [label="!p"];' in forbid_only

    def test_class_witness_guards(self):
        m = synthesize_imperfect(parse_formula("F c"), derive_classes(("c", "s"), [("c", "s")]))
        sat, viol = (automaton_to_dot(dfa) for dfa in m.machine.components)
        assert '  q0 -> q1 [label="[cs]=1"];' in sat
        assert '  q0 -> q0 [label="![cs]=1"];' in sat
        assert '  q1 -> q1 [label="true"];' in sat
        assert '  q0 -> q1 [label="![cs]=0"];' in viol

    def test_product_edges(self):
        """One edge per consistent event over the union of the components'
        literals, in mask order; the required part comes first even where
        it sorts after the forbidden one."""
        plain = moore_to_dot(synthesize_standard(parse_formula("p U q")).machine)
        assert [line for line in plain.splitlines() if line.startswith("  s0 -> ")] == [
            '  s0 -> s1 [label="!p & !q"];', '  s0 -> s0 [label="p & !q"];',
            '  s0 -> s2 [label="q & !p"];', '  s0 -> s2 [label="p & q"];']
        m = synthesize_imperfect(parse_formula("F c"), derive_classes(("c", "s"), [("c", "s")]))
        signed = moore_to_dot(m.machine)
        assert [line for line in signed.splitlines() if line.startswith("  s0 -> ")] == [
            '  s0 -> s1 [label="![cs]=0 & ![cs]=1"];', '  s0 -> s0 [label="[cs]=0 & ![cs]=1"];',
            '  s0 -> s2 [label="[cs]=1 & ![cs]=0"];']
