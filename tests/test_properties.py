"""Hypothesis-driven invariants over generated formulas and traces."""

import contextlib
import io
import json
import os
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from ltlscope.automata.pipeline import consistent_count, literal_order
from ltlscope.cli import main
from ltlscope.formula import (FALSE, TRUE, Always, And, Atom, Eventually,
                              Formula, Implies, Next, Not, Or, ParseError,
                              Release, Until, fmt, parse_formula)
from ltlscope.monitor import (machine_from_json, machine_to_json, synthesize_imperfect,
                              synthesize_standard)
from ltlscope.oracle.lasso import LassoWord, eval_lasso
from ltlscope.rational import knapsack
from ltlscope.visibility import (derive_classes, explicit_trace,
                                 knowledge_from_event, visible_trace)

from conftest import is_nnf, to_nnf

ATOMS = ("p", "q", "r")

atoms = st.sampled_from(ATOMS).map(Atom)


def formula_trees(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map(Not), inner.map(Next), inner.map(Eventually), inner.map(Always),
            st.tuples(inner, inner).map(lambda t: And(*t)),
            st.tuples(inner, inner).map(lambda t: Or(*t)),
            st.tuples(inner, inner).map(lambda t: Implies(*t)),
            st.tuples(inner, inner).map(lambda t: Until(*t)),
            st.tuples(inner, inner).map(lambda t: Release(*t)),
        ),
        max_leaves=8,
    )


formulas = formula_trees(atoms)

# Every character the formula grammar reads, and a few it refuses.
GRAMMAR_TEXT = st.text(alphabet="pqr_19XFGURtruefals!&|->() \t#=[", max_size=120)

events = st.frozensets(st.sampled_from(ATOMS), max_size=3)
lassos = st.tuples(st.lists(events, max_size=3), st.lists(events, min_size=1, max_size=3))


class TestNnfProperties:
    @given(formulas)
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_shape(self, f):
        g = to_nnf(f)
        assert is_nnf(g)
        assert to_nnf(g) == g

    @given(formulas, lassos)
    @settings(max_examples=200, deadline=None)
    def test_language_preserved(self, f, lasso):
        stem, loop = lasso
        word = LassoWord(tuple(stem), tuple(loop))
        assert eval_lasso(f, word) == eval_lasso(to_nnf(f), word)


class TestParserProperties:
    @given(GRAMMAR_TEXT)
    @settings(max_examples=500, deadline=None)
    def test_text_parses_or_raises_parse_error(self, text):
        try:
            f = parse_formula(text)
        except ParseError:
            return
        assert isinstance(f, Formula)

    @given(formula_trees(atoms | st.sampled_from([TRUE, FALSE])))
    @settings(max_examples=300, deadline=None)
    def test_formatted_formula_parses_to_itself(self, f):
        assert parse_formula(fmt(f)) is f


class TestVisibilityProperties:
    @given(st.lists(events, min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_visible_knowledge_is_truthful(self, trace):
        """Whatever the monitor learns from a visible event is true of the
        underlying explicit event."""
        classes = derive_classes(ATOMS, [("p", "q")])
        sigma_e = explicit_trace(trace, ATOMS)
        sv = visible_trace(sigma_e, classes, ())
        for truth_event, seen in zip(sigma_e, sv):
            truth = {lit.name: lit.sign for lit in truth_event}
            for atom, value in knowledge_from_event(seen, classes).items():
                assert truth[atom] == value

    @given(st.lists(events, min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_full_break_round_trip(self, trace):
        classes = derive_classes(ATOMS, [("p", "q")])
        sigma_e = explicit_trace(trace, ATOMS)
        assert visible_trace(sigma_e, classes, ("pq",)) == sigma_e


class TestKnapsackProperties:
    @given(st.dictionaries(st.sampled_from(["a", "b", "c", "d"]),
                           st.floats(min_value=0.0, max_value=1.0), max_size=4),
           st.integers(min_value=0, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_selection_always_feasible(self, pays, bound):
        costs = {k: (i % 3) + 1 for i, k in enumerate(sorted(pays))}
        chosen = knapsack(pays, costs, bound, {k: len(k) for k in pays})
        assert sum(costs[k] for k in chosen) <= bound
        assert all(pays[k] > 0 for k in chosen)


# Valid machine files to mutate: a plain one and a signed one whose rows
# read both signs of a name and a class witness.
MACHINE_FILES = (
    machine_to_json(synthesize_standard(parse_formula("p U (q & X r)"))),
    machine_to_json(synthesize_imperfect(parse_formula("G (p -> X !q) & F r"),
                                         derive_classes(ATOMS, [("p", "q")]))),
)

json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(min_value=-2, max_value=70),
              st.text(alphabet="pqr01=[]x", max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(alphabet="0123p", max_size=3), inner,
                                            max_size=4)),
    max_leaves=6)


def _paths(node, prefix=()):
    """The path of every value in a JSON document, the root last, so that
    small picks edit the components rather than replace the document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in reversed(list(items)):
        yield from _paths(child, prefix + (key,))
    yield prefix


def _mutate(doc, path, kind, value):
    """``doc`` with the value at ``path`` replaced by ``value``, deleted, or,
    if it is an integer, moved by one."""
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if kind == "delete":
        del parent[key]
    elif kind == "bump" and isinstance(parent[key], int):
        parent[key] += 1 if value else -1
    else:
        parent[key] = value
    return doc


class TestMachineFileProperties:
    @given(st.sampled_from(MACHINE_FILES),
           st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(("replace", "delete", "bump")),
                              json_values), min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_mutated_file_loads_or_raises_value_error(self, text, edits):
        """Random edits of a valid machine file either load, which rebuilds
        the product from rows the pipeline never built, or raise
        ``ValueError``; nothing else escapes."""
        doc = json.loads(text)
        for pick, kind, value in edits:
            paths = list(_paths(doc))
            doc = _mutate(doc, paths[pick % len(paths)], kind, value)
            if not isinstance(doc, dict):
                break
        try:
            monitor = machine_from_json(json.dumps(doc))
        except ValueError:
            return
        assert monitor.verdict in monitor.machine.outputs.values()

    @given(st.sampled_from(MACHINE_FILES), st.integers(min_value=0),
           st.text(alphabet='{}[]:,"0123456789=pqx ', max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_garbled_text_loads_or_raises_value_error(self, text, at, insert):
        at %= len(text)
        try:
            machine_from_json(text[:at] + insert + text[at + 1:])
        except ValueError:
            pass


# Inputs of the command line that nothing else fuzzes: trace-file text,
# --classes, --costs and --alphabet.  Each draws well-formed values,
# malformed ones, or text over the separators and characters the readers
# split on or refuse.
TRACE_TOKENS = ("p", "q", "r", "p=1", "q=0", "[pq]=1", "[pq]=0", "zz=1", "=", "p=",
                "[", "]", ",", "p,q", "\t", "é", "p²", "[pq]", "")
TRACE_CHARS = "pqr=01[],\t \n~;é²"
trace_texts = st.one_of(
    st.lists(st.sampled_from(("p", "q", "r", "p q", "q,r", "")), max_size=6).map("\n".join),
    st.lists(st.lists(st.sampled_from(TRACE_TOKENS), max_size=4).map(" ".join),
             max_size=6).map("\n".join),
    st.text(alphabet=TRACE_CHARS, max_size=30))
classes_texts = st.one_of(
    st.sampled_from(("p~q", "q~p~r", "p; q")),
    st.sampled_from(("p", " p ~ q ", "p~", "~", "p;;q", "p~é", "")),
    st.text(alphabet="pqr~; é[]", max_size=10))
costs_texts = st.one_of(
    st.sampled_from(("pq=1", "pqr=2", "pq=0,pqr=1")),
    st.sampled_from(("pq=-1", "pq=--1", "pq=²", "pq", "=", "pq=1,pq=2", "é=1", "")),
    st.text(alphabet="pqr=,-01²é ", max_size=10))
alphabet_texts = st.one_of(
    st.sampled_from(("p,q", "p,q,r", " p , q ", "p,q,r,s", "p,q,p")),
    st.sampled_from(("q,r", "p", "", ",", "p,,q", "p q", "true", "X", "1p", "é")),
    st.text(alphabet="pqrs, ~;é", max_size=10))


# --config documents: a valid config with up to three keys, known or not,
# set to any JSON value and up to two known keys dropped, or any JSON value.
config_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(min_value=-3, max_value=5),
              st.integers(min_value=-10 ** 30, max_value=10 ** 30), st.floats(),
              st.sampled_from(("metric0", "metric3", "pq", "")),
              st.text(alphabet="pq=1é", max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(("pq", "pqr", "zz", "")), inner,
                                            max_size=3)),
    max_leaves=5)
VALID_CONFIG = {"metric": st.sampled_from(("metric0", "metric1", "metric2")),
                "costs": st.fixed_dictionaries({"pq": st.integers(min_value=0, max_value=3)}),
                "bound": st.integers(min_value=0, max_value=3),
                "window": st.integers(min_value=1, max_value=3),
                "seed": st.integers(min_value=-3, max_value=3)}
config_docs = st.one_of(
    st.builds(lambda valid, edits, dropped: {key: value for key, value in {**valid, **edits}.items()
                                             if key not in dropped},
              st.fixed_dictionaries(VALID_CONFIG),
              st.dictionaries(st.sampled_from((*VALID_CONFIG, "extra", "Bound")), config_values,
                              max_size=3),
              st.sets(st.sampled_from(tuple(VALID_CONFIG)), max_size=2)),
    config_values)


def run_cli(argv) -> tuple[int, str, str]:
    """The status, stdout and stderr of one command-line run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_one_line_refusal(code: int, err: str) -> None:
    assert code == 2 and err.count("\n") == 1 and err.endswith("\n"), (code, err)


class TestCommandLineFuzz:
    @given(st.sampled_from(("standard", "imperfect", "active", "reactive")), trace_texts,
           st.none() | classes_texts, st.none() | costs_texts)
    @settings(max_examples=300, deadline=None)
    def test_verify_runs_or_refuses_with_one_line(self, mode, trace, classes, costs):
        """``verify`` over a fixed formula either runs (status 0) or refuses
        with status 2 and one line on stderr; no exception escapes."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(trace)
            argv = ["verify", "-f", "F (p & X q)", "--trace", path, "--mode", mode,
                    "--bound", "1", "--window", "1", "--omit-timing"]
            if classes is not None:
                argv.append(f"--classes={classes}")
            if costs is not None:
                argv.append(f"--costs={costs}")
            code, out, err = run_cli(argv)
        if code == 0:
            assert json.loads(out)["final"] and not err
        else:
            assert_one_line_refusal(code, err)

    @given(st.sampled_from(("standard", "imperfect", "active", "reactive")), config_docs)
    @settings(max_examples=300, deadline=None)
    def test_config_file_runs_or_refuses_with_one_line(self, mode, config):
        """``verify --config`` either runs (status 0) or refuses with status
        2 and one line on stderr, whatever JSON the file holds."""
        with tempfile.TemporaryDirectory() as tmp:
            trace, config_path = os.path.join(tmp, "t.txt"), os.path.join(tmp, "c.json")
            with open(trace, "w", encoding="utf-8") as fh:
                fh.write("p\nq\n")
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            code, out, err = run_cli(["verify", "-f", "F (p & X q)", "--trace", trace,
                                      "--mode", mode, "--classes", "p~q", "--config", config_path,
                                      "--omit-timing"])
        if code == 0:
            assert json.loads(out)["final"] and not err
        else:
            assert_one_line_refusal(code, err)

    @given(st.sampled_from(("synthesize", "verify")), alphabet_texts,
           st.none() | classes_texts)
    @settings(max_examples=300, deadline=None)
    def test_alphabet_runs_or_refuses_with_one_line(self, command, alphabet, classes):
        """``synthesize`` and imperfect ``verify`` with an ``--alphabet``
        either run (status 0) or refuse with status 2 and one line on
        stderr; no exception escapes."""
        with tempfile.TemporaryDirectory() as tmp:
            if command == "synthesize":
                argv = ["synthesize", "--out", os.path.join(tmp, "m.json")]
            else:
                path = os.path.join(tmp, "t.txt")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("p\nq\n")
                argv = ["verify", "--mode", "imperfect", "--trace", path, "--omit-timing"]
            argv += ["-f", "F (p & X q)", f"--alphabet={alphabet}"]
            if classes is not None:
                argv.append(f"--classes={classes}")
            code, out, err = run_cli(argv)
        if code == 0:
            assert not err
            if command == "verify":
                assert json.loads(out)["final"]
        else:
            assert_one_line_refusal(code, err)

    @given(st.one_of(formulas.map(fmt), st.sampled_from(("p", "true", "X", "p &", "", "F é"))),
           st.none() | classes_texts)
    @settings(max_examples=150, deadline=None)
    def test_dot_runs_or_refuses_with_one_line(self, formula, classes):
        """``synthesize --dot`` either writes the machine and its DOT file
        (status 0), with one edge out of each product state per consistent
        event over the union of its components' literals, or refuses with
        status 2 and one line on stderr; no exception escapes."""
        with tempfile.TemporaryDirectory() as tmp:
            out_path, dot_path = os.path.join(tmp, "m.json"), os.path.join(tmp, "m.dot")
            argv = ["synthesize", "-f", formula, "--out", out_path, "--dot", dot_path]
            if classes is not None:
                argv.append(f"--classes={classes}")
            code, _, err = run_cli(argv)
            if code != 0:
                assert_one_line_refusal(code, err)
                return
            assert not err
            with open(out_path, encoding="utf-8") as fh:
                machine = machine_from_json(fh.read()).machine
            with open(dot_path, encoding="utf-8") as fh:
                sources = re.findall(r"^  s(\d+) -> s\d+ \[label=", fh.read(), re.M)
        a, b = machine.components
        expected = [consistent_count(literal_order({*a.lits[s], *b.lits[v]}))
                    for s, v in machine.states]
        assert [sources.count(str(i)) for i in range(len(expected))] == expected
        assert len(sources) == sum(expected)
