"""LTL formulas over named atoms and over signed literals.

Two flavours of formula share one AST:

* plain formulas have ``Atom`` leaves and are evaluated closed-world against
  events that are plain sets of atom names;
* signed formulas have ``Lit`` leaves that test for the *presence* of a signed
  literal (``c=1``, ``[cs]=0``) in an event.  A ``Not`` directly above a
  ``Lit`` tests for its absence; deeper negation is never produced.

The module also houses the normal forms (NNF of a formula or of its
negation, and the implication-preserving metric form, all from one
negation-pushing walker), the signed-alphabet translation of a formula, and
one-step progression over partially known events.  The satisfaction and
violation formulas the imperfect monitor is built from are made of these in
``monitor.signed_triple``; the oracle builds its own triple, with the
forever-undefined formula, in ``oracle.verdict.signed_triple``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple


class SLit(NamedTuple):
    """A signed literal: atom or class witness name plus truth sign."""

    name: str
    sign: bool

    def __str__(self) -> str:
        return f"{self.name}={1 if self.sign else 0}"


def parse_slit(token: str) -> SLit:
    """Parse a ``name=1`` / ``[group]=0`` token."""
    name, eq, value = token.partition("=")
    if not eq or value not in ("0", "1") or not name:
        raise ValueError(f"bad signed-literal token: {token!r}")
    return SLit(name, value == "1")


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class TrueConst(Formula):
    pass


@dataclass(frozen=True)
class FalseConst(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Lit(Formula):
    """Presence test of a signed literal (signed formulas only)."""

    lit: SLit


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    operand: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    operand: Formula


@dataclass(frozen=True)
class Always(Formula):
    operand: Formula


def _cached_structural_hash(self) -> int:
    h = self.__dict__.get("_hash")
    if h is None:
        # Collect the uncached nodes in preorder, each once, and hash them in
        # reverse: every node then comes after its descendants, so hashing
        # never recurses and a formula of any depth can be hashed.  The root
        # comes last.
        pending = [(self, tuple(getattr(self, name) for name in self.__dataclass_fields__))]
        seen = {id(self)}
        for _, values in pending:
            for v in values:
                if isinstance(v, Formula) and "_hash" not in v.__dict__ and id(v) not in seen:
                    seen.add(id(v))
                    pending.append((v, tuple(getattr(v, name) for name in v.__dataclass_fields__)))
        for g, values in reversed(pending):
            h = hash((type(g), values))
            object.__setattr__(g, "_hash", h)
    return h


# Deep formulas are hashed constantly by the automata constructions; the
# generated dataclass hash walks the whole tree every call, so cache it.
for _cls in (TrueConst, FalseConst, Atom, Lit, Not, And, Or, Implies, Next,
             Until, Release, Eventually, Always):
    _cls.__hash__ = _cached_structural_hash


TRUE = TrueConst()
FALSE = FalseConst()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    """Syntax error with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_UNARY = {"!": Not, "X": Next, "F": Eventually, "G": Always}

# Deepest nesting ``parse_formula`` accepts, counted two ways: parentheses,
# unary operators and right operands open at once while parsing, and the
# operator height of the result.  The normal forms recurse over the formula;
# at this depth synthesis stays far inside Python's default recursion limit.
MAX_NESTING = 100


class _Token(NamedTuple):
    kind: str  # 'name', 'op', 'lparen', 'rparen', 'end'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("lparen", ch, i))
            i += 1
        elif ch == ")":
            tokens.append(_Token("rparen", ch, i))
            i += 1
        elif ch in "!&|":
            tokens.append(_Token("op", ch, i))
            i += 1
        elif text.startswith("->", i):
            tokens.append(_Token("op", "->", i))
            i += 2
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in ("X", "F", "G", "U", "R"):
                tokens.append(_Token("op", word, i))
            else:
                tokens.append(_Token("name", word, i))
            i = j
        else:
            raise ParseError(f"unknown token {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    """Recursive descent over precedence: unary > U/R > & > | > ->."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def nested(self, parse, tok: _Token) -> Formula:
        """Parse one nested operand, refusing nesting beyond MAX_NESTING."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"formula nests deeper than {MAX_NESTING} levels", tok.pos)
        f = parse()
        self.depth -= 1
        return f

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Formula:
        f = self.implies()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return f

    def implies(self) -> Formula:
        left = self.disjunction()
        if self.peek().text == "->":
            tok = self.take()
            return Implies(left, self.nested(self.implies, tok))
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek().text == "|":
            self.take()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.until()
        while self.peek().text == "&":
            self.take()
            f = And(f, self.until())
        return f

    def until(self) -> Formula:
        left = self.unary()
        tok = self.peek()
        if tok.text in ("U", "R"):
            self.take()
            right = self.nested(self.until, tok)
            return Until(left, right) if tok.text == "U" else Release(left, right)
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.text in _UNARY:
            self.take()
            return _UNARY[tok.text](self.nested(self.unary, tok))
        return self.primary()

    def primary(self) -> Formula:
        tok = self.take()
        if tok.kind == "lparen":
            f = self.nested(self.implies, tok)
            closing = self.take()
            if closing.kind != "rparen":
                raise ParseError("missing ')'", closing.pos)
            return f
        if tok.kind == "name":
            if tok.text == "true":
                return TRUE
            if tok.text == "false":
                return FALSE
            return Atom(tok.text)
        raise ParseError(f"expected operand, got {tok.text!r}" if tok.text else "missing operand", tok.pos)


def parse_formula(text: str) -> Formula:
    """Parse the textual grammar into an AST, derived operators preserved.

    A formula nested deeper than ``MAX_NESTING`` raises ``ParseError``.
    """
    f = _Parser(_tokenize(text)).parse()
    if height(f) > MAX_NESTING:
        raise ParseError(f"formula nests deeper than {MAX_NESTING} levels", 0)
    return f


def height(f: Formula) -> int:
    """Operator height of a formula (0 for a leaf), computed without
    recursion so that it is safe on any depth."""
    level, h = [f], 0
    while True:
        level = [child for g in level for child in _children(g)]
        if not level:
            return h
        h += 1


def _children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (Not, Next, Eventually, Always)):
        return (f.operand,)
    if isinstance(f, (And, Or, Implies, Until, Release)):
        return (f.left, f.right)
    return ()


def fmt(f: Formula) -> str:
    """Render a formula back to the input grammar (fully parenthesised)."""
    if isinstance(f, TrueConst):
        return "true"
    if isinstance(f, FalseConst):
        return "false"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Lit):
        return str(f.lit)
    if isinstance(f, Not):
        return f"!{fmt(f.operand)}" if isinstance(f.operand, (Atom, Lit, TrueConst, FalseConst)) else f"!({fmt(f.operand)})"
    if isinstance(f, Next):
        return f"X ({fmt(f.operand)})"
    if isinstance(f, Eventually):
        return f"F ({fmt(f.operand)})"
    if isinstance(f, Always):
        return f"G ({fmt(f.operand)})"
    if isinstance(f, And):
        return f"({fmt(f.left)} & {fmt(f.right)})"
    if isinstance(f, Or):
        return f"({fmt(f.left)} | {fmt(f.right)})"
    if isinstance(f, Implies):
        return f"({fmt(f.left)} -> {fmt(f.right)})"
    if isinstance(f, Until):
        return f"({fmt(f.left)} U {fmt(f.right)})"
    if isinstance(f, Release):
        return f"({fmt(f.left)} R {fmt(f.right)})"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Structure queries
# ---------------------------------------------------------------------------

def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    for child in _children(f):
        yield from subformulas(child)


def atoms(f: Formula) -> frozenset[str]:
    """Names of the plain atoms occurring in the formula."""
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Atom))


def lits(f: Formula) -> frozenset[SLit]:
    """Signed literals occurring in the formula."""
    return frozenset(g.lit for g in subformulas(f) if isinstance(g, Lit))


# ---------------------------------------------------------------------------
# Boolean simplification (constant folding only)
# ---------------------------------------------------------------------------

def _mk_not(f: Formula) -> Formula:
    if isinstance(f, TrueConst):
        return FALSE
    if isinstance(f, FalseConst):
        return TRUE
    if isinstance(f, Not):
        return f.operand
    return Not(f)


def _mk_and(left: Formula, right: Formula) -> Formula:
    if isinstance(left, FalseConst) or isinstance(right, FalseConst):
        return FALSE
    if isinstance(left, TrueConst):
        return right
    if isinstance(right, TrueConst):
        return left
    return And(left, right)


def _mk_or(left: Formula, right: Formula) -> Formula:
    if isinstance(left, TrueConst) or isinstance(right, TrueConst):
        return TRUE
    if isinstance(left, FalseConst):
        return right
    if isinstance(right, FalseConst):
        return left
    return Or(left, right)


def _mk_implies(left: Formula, right: Formula) -> Formula:
    if isinstance(left, FalseConst) or isinstance(right, TrueConst):
        return TRUE
    if isinstance(left, TrueConst):
        return right
    return Implies(left, right)


# ---------------------------------------------------------------------------
# Normal forms: NNF and the metric form, from one negation-pushing walker
# ---------------------------------------------------------------------------

# How a binary node is rebuilt, indexed by ``negated`` and then by the node's
# type: negation swaps & with | and U with R.
_BINARY = (
    {And: _mk_and, Or: _mk_or, Until: Until, Release: Release},
    {And: _mk_or, Or: _mk_and, Until: Release, Release: Until},
)


def _push(f: Formula, negated: bool, keep_implies: bool) -> Formula:
    """``f``, or its negation when ``negated``, with negation pushed to the
    leaves and F, G expanded to ``true U``, ``false R``.

    Every rule comes with its dual under negation.  Only a positive ``->``
    reads ``keep_implies``: the metric form keeps it, NNF writes ``!l | r``.
    """
    if isinstance(f, (Atom, Lit)):
        return Not(f) if negated else f
    rebuild = _BINARY[negated].get(type(f))
    if rebuild is not None:
        return rebuild(_push(f.left, negated, keep_implies), _push(f.right, negated, keep_implies))
    if isinstance(f, Not):
        return _push(f.operand, not negated, keep_implies)
    if isinstance(f, Next):
        return Next(_push(f.operand, negated, keep_implies))
    if isinstance(f, (Eventually, Always)):
        operand = _push(f.operand, negated, keep_implies)
        if isinstance(f, Eventually) != negated:  # F g, or !G g = F !g
            return Until(TRUE, operand)
        return Release(FALSE, operand)
    if isinstance(f, Implies):
        if negated:
            return _mk_and(_push(f.left, False, keep_implies), _push(f.right, True, keep_implies))
        if keep_implies:
            return _mk_implies(_push(f.left, False, True), _push(f.right, False, True))
        return _mk_or(_push(f.left, True, False), _push(f.right, False, False))
    if isinstance(f, (TrueConst, FalseConst)):
        return _mk_not(f) if negated else f
    raise TypeError(f"not a formula: {f!r}")


def to_nnf(f: Formula) -> Formula:
    """Push negation to atoms; expand ->, F and G into their core duals."""
    return _push(f, False, False)


def negate_nnf(f: Formula) -> Formula:
    """NNF of the negation of ``f``.  On a signed NNF formula this is its
    classical negation: the negation of a presence test is its absence test."""
    return _push(f, True, False)


def to_metric_form(f: Formula) -> Formula:
    """The form the payoff metric consumes: NNF, except that ``->`` is kept."""
    return _push(f, False, True)


def is_nnf(f: Formula) -> bool:
    """True when negation occurs only directly above leaves and no derived
    operators remain."""
    for g in subformulas(f):
        if isinstance(g, (Implies, Eventually, Always)):
            return False
        if isinstance(g, Not) and not isinstance(g.operand, (Atom, Lit)):
            return False
    return True


# ---------------------------------------------------------------------------
# Signed-alphabet translation
# ---------------------------------------------------------------------------

class UncoveredAtomError(ValueError):
    """An atom of the formula belongs to no visibility class."""


def make_signed(f: Formula, rendering: Mapping[str, str]) -> Formula:
    """Translate an NNF plain formula onto the signed alphabet.

    ``rendering`` maps each atom name to the literal base name that stands for
    it in events: the atom itself for singleton classes, the bracketed class
    witness otherwise.
    """
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
        return type(f)(make_signed(f.left, rendering), make_signed(f.right, rendering))
    if isinstance(f, Next):
        return Next(make_signed(f.operand, rendering))
    raise ValueError(f"make_signed expects an NNF formula, got {f!r}")


# ---------------------------------------------------------------------------
# One-step three-valued progression
# ---------------------------------------------------------------------------

def progress(f: Formula, knowledge: Mapping[str, bool]) -> Formula:
    """Progress an NNF or metric-form formula through one event.

    ``knowledge`` gives the truth of every atom the event determines (via an
    individual literal or its class witness); absent atoms stay unknown and
    their obligations survive as residual literals under the original names.
    """
    if isinstance(f, (TrueConst, FalseConst)):
        return f
    if isinstance(f, Atom):
        value = knowledge.get(f.name)
        if value is None:
            return f
        return TRUE if value else FALSE
    if isinstance(f, Not):
        inner = progress(f.operand, knowledge)
        return _mk_not(inner) if isinstance(inner, (TrueConst, FalseConst)) else Not(f.operand)
    if isinstance(f, And):
        return _mk_and(progress(f.left, knowledge), progress(f.right, knowledge))
    if isinstance(f, Or):
        return _mk_or(progress(f.left, knowledge), progress(f.right, knowledge))
    if isinstance(f, Implies):
        return _mk_implies(progress(f.left, knowledge), progress(f.right, knowledge))
    if isinstance(f, Next):
        return f.operand
    if isinstance(f, Until):
        # f U g  ->  prog(g) | (prog(f) & (f U g))
        return _mk_or(progress(f.right, knowledge), _mk_and(progress(f.left, knowledge), f))
    if isinstance(f, Release):
        # f R g  ->  prog(g) & (prog(f) | (f R g))
        return _mk_and(progress(f.right, knowledge), _mk_or(progress(f.left, knowledge), f))
    if isinstance(f, Eventually):
        return _mk_or(progress(f.operand, knowledge), f)
    if isinstance(f, Always):
        return _mk_and(progress(f.operand, knowledge), f)
    raise TypeError(f"not a formula: {f!r}")
