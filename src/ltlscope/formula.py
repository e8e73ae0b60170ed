"""LTL formulas over named atoms and over signed literals.

Two flavours of formula share one AST:

* plain formulas have ``Atom`` leaves and are evaluated closed-world against
  events that are plain sets of atom names;
* signed formulas have ``Lit`` leaves that test for the *presence* of a signed
  literal (``c=1``, ``[cs]=0``) in an event.  A ``Not`` directly above a
  ``Lit`` tests for its absence; deeper negation is never produced.

Nodes are interned (hash-consing): building a node whose type and fields
match one already built returns that node.  So each distinct formula is one
object, structural equality is identity, and nodes hash by identity, which
keeps every formula-keyed table cheap however deep its keys.  Nodes are
immutable; copying or unpickling one returns the interned node.

The module also houses the normal forms (``nnf_pair``: the NNF of a formula
and of its negation from one fold over its distinct nodes, optionally on the
signed alphabet of the classes) and one-step progression over partially
known events.  The imperfect monitor is built from the signed pair
(``monitor.signed_triple``); the oracle adds the forever-undefined formula
in ``oracle.verdict.signed_triple``.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple, Optional


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


# Every node built so far, by (type, *fields).  Nodes are never evicted: a
# plain dict is cheaper to probe than a weak one, and node building is hot.
_NODES: dict[tuple, "Formula"] = {}


class Formula:
    """An immutable, interned formula node; ``_fields`` names its fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __new__(cls, *values):
        key = (cls, *values)
        node = _NODES.get(key)
        if node is None:
            if len(values) != len(cls._fields):
                raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(values)}")
            node = object.__new__(cls)
            for name, value in zip(cls._fields, values):
                object.__setattr__(node, name, value)
            # Of two threads building the same node, both get the first stored.
            node = _NODES.setdefault(key, node)
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an interned formula")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an interned formula")

    def __reduce__(self):
        # copy, deepcopy and pickle all rebuild through __new__, so they
        # return the interned node.
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class TrueConst(Formula):
    __slots__ = ()


class FalseConst(Formula):
    __slots__ = ()


class Atom(Formula):
    __slots__ = _fields = ("name",)
    name: str


class Lit(Formula):
    """Presence test of a signed literal (signed formulas only)."""

    __slots__ = _fields = ("lit",)
    lit: SLit


class Not(Formula):
    __slots__ = _fields = ("operand",)
    operand: Formula


class And(Formula):
    __slots__ = _fields = ("left", "right")
    left: Formula
    right: Formula


class Or(Formula):
    __slots__ = _fields = ("left", "right")
    left: Formula
    right: Formula


class Implies(Formula):
    __slots__ = _fields = ("left", "right")
    left: Formula
    right: Formula


class Next(Formula):
    __slots__ = _fields = ("operand",)
    operand: Formula


class Until(Formula):
    __slots__ = _fields = ("left", "right")
    left: Formula
    right: Formula


class Release(Formula):
    __slots__ = _fields = ("left", "right")
    left: Formula
    right: Formula


class Eventually(Formula):
    __slots__ = _fields = ("operand",)
    operand: Formula


class Always(Formula):
    __slots__ = _fields = ("operand",)
    operand: Formula


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
# operator height of the result.  The parser is recursive descent, and
# synthesis work grows with height: without the limit, both monitors of
# ``X^400 p`` took 1-2 s and those of ``X^2000 p`` 30-40 s on a 2-vCPU VM.
# Progression and the payoff metric do not recurse, so the residuals a long
# reactive run builds may grow past this height.
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


def is_atom_name(name: str) -> bool:
    """Whether the formula grammar reads ``name`` as one atom: the rule for
    atom names in formulas, classes, alphabets and traces alike."""
    try:
        return parse_formula(name) is Atom(name)
    except ParseError:
        return False


def is_literal_name(name: str) -> bool:
    """Whether a signed literal may carry ``name``: an atom name, or a class
    witness name ``[x]`` (``EqClass.witness_name``).  ``x`` is the class's
    atom names run together, so it is one word of the characters atom names
    are made of, though the word itself may be a keyword (``[true]`` from
    ``tr~ue``).  The rule for literal names in machine files and signed
    traces alike."""
    if name[:1] == "[" and name[-1:] == "]":
        body = name[1:-1]
        return ((body[:1].isalpha() or body[:1] == "_")
                and all(ch.isalnum() or ch == "_" for ch in body))
    return is_atom_name(name)


def height(f: Formula) -> int:
    """Operator height of a formula (0 for a leaf), computed without
    recursion so that it is safe on any depth.  Each level holds each
    distinct node once, so shared subformulas are not walked twice."""
    level, h = {f}, 0
    while True:
        level = {child for g in level for child in _children(g)}
        if not level:
            return h
        h += 1


_ONE_OPERAND = frozenset({Not, Next, Eventually, Always})
_TWO_OPERANDS = frozenset({And, Or, Implies, Until, Release})


def _children(f: Formula) -> tuple[Formula, ...]:
    kind = type(f)
    if kind in _ONE_OPERAND:
        return (f.operand,)
    if kind in _TWO_OPERANDS:
        return (f.left, f.right)
    return ()


def postorder(f: Formula, into_next: bool = True, known=frozenset()) -> list[Formula]:
    """The distinct nodes of ``f``, each once, every node after its operands
    and left operands first.  With ``into_next`` false the operand of a
    ``Next`` is not entered, and nodes in ``known`` are neither listed nor
    entered.  The walk keeps its own stack, so it is safe on any depth, and
    a subformula shared by several parents is listed once."""
    unary = _ONE_OPERAND if into_next else _ONE_OPERAND - {Next}
    order: list[Formula] = []
    seen: set[Formula] = set()
    stack: list = [f]
    push, pop = stack.append, stack.pop
    while stack:
        g = pop()
        if g is None:  # every node above this marker's node is listed
            order.append(pop())
            continue
        if g in seen or g in known:
            continue
        seen.add(g)
        push(g)
        push(None)
        kind = type(g)
        if kind in _TWO_OPERANDS:
            if g.right not in seen:
                push(g.right)
            if g.left not in seen:
                push(g.left)
        elif kind in unary and g.operand not in seen:
            push(g.operand)
    return order


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
    """Names of the plain atoms occurring in the formula, each distinct
    subformula visited once."""
    return frozenset(g.name for g in postorder(f) if isinstance(g, Atom))


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
# Normal forms: NNF, the metric form and the signed translation, one fold
# ---------------------------------------------------------------------------

class UncoveredAtomError(ValueError):
    """An atom of the formula belongs to no visibility class."""


def nnf_pair(f: Formula, rendering: Optional[Mapping[str, str]] = None,
             keep_implies: bool = False) -> tuple[Formula, Formula]:
    """The NNF of ``f`` and of its negation, from one fold over the distinct
    nodes: ``Not`` swaps the pair, & and | and U and R are each other's
    duals, and F and G expand to ``true U`` and ``false R``.  With
    ``keep_implies`` a positive ``->`` is kept (the metric form).

    ``rendering`` maps each atom name to the literal base name that stands
    for it in events (the atom itself for singleton classes, the class
    witness otherwise).  With it an atom becomes its ``=1`` presence test
    and its negation the ``=0`` one; an unmapped atom raises
    ``UncoveredAtomError``."""
    done: dict[Formula, tuple[Formula, Formula]] = {}
    for g in postorder(f):
        kind = type(g)
        if kind in _TWO_OPERANDS:
            (lpos, lneg), (rpos, rneg) = done[g.left], done[g.right]
            if kind is And:
                pair = _mk_and(lpos, rpos), _mk_or(lneg, rneg)
            elif kind is Or:
                pair = _mk_or(lpos, rpos), _mk_and(lneg, rneg)
            elif kind is Until:
                pair = Until(lpos, rpos), Release(lneg, rneg)
            elif kind is Release:
                pair = Release(lpos, rpos), Until(lneg, rneg)
            else:  # Implies
                pos = _mk_implies(lpos, rpos) if keep_implies else _mk_or(lneg, rpos)
                pair = pos, _mk_and(lpos, rneg)
        elif kind in _ONE_OPERAND:
            pos, neg = done[g.operand]
            if kind is Not:
                pair = neg, pos
            elif kind is Next:
                pair = Next(pos), Next(neg)
            elif kind is Eventually:
                pair = Until(TRUE, pos), Release(FALSE, neg)
            else:  # Always
                pair = Release(FALSE, pos), Until(TRUE, neg)
        elif kind is Atom and rendering is not None:
            name = rendering.get(g.name)
            if name is None:
                raise UncoveredAtomError(f"atom {g.name!r} not covered by any class")
            pair = Lit(SLit(name, True)), Lit(SLit(name, False))
        elif kind is Atom or kind is Lit:
            pair = g, Not(g)
        elif g is TRUE or g is FALSE:
            pair = g, _mk_not(g)
        else:
            raise TypeError(f"not a formula: {g!r}")
        done[g] = pair
    return done[f]


def negate_nnf(f: Formula) -> Formula:
    """NNF of the negation of ``f``.  On a signed NNF formula this is its
    classical negation: the negation of a presence test is its absence test."""
    return nnf_pair(f)[1]


def to_metric_form(f: Formula) -> Formula:
    """The form the payoff metric consumes: NNF, except that ``->`` is kept."""
    return nnf_pair(f, keep_implies=True)[0]


# ---------------------------------------------------------------------------
# One-step three-valued progression
# ---------------------------------------------------------------------------

def _conjoin(left: Formula, right: Formula) -> Formula:
    """``_mk_and`` for progression: a side that is the other side, or one of
    that side's two operands when it is an ``And``, is dropped.  Every And
    combiner of the payoff metric is ``max`` or ``min``, idempotent,
    associative and commutative, so the payoffs of the residual do not
    change.  One level is where progression puts the repeat: ``G φ``
    progresses to ``prog φ & G φ``, and in the next window ``prog φ`` meets
    that conjunction's left operand.  So the residual of a formula whose
    obligations repeat, such as ``G p`` over events that leave ``p``
    unknown, stays one fixed object instead of growing by one node per
    event, and each conjunction costs constant work however large the
    residual."""
    if isinstance(left, FalseConst) or isinstance(right, FalseConst):
        return FALSE
    if isinstance(left, TrueConst):
        return right
    if isinstance(right, TrueConst):
        return left
    if left is right or isinstance(right, And) and (left is right.left or left is right.right):
        return right
    if isinstance(left, And) and (right is left.left or right is left.right):
        return left
    return And(left, right)


# The knowledge of the last progression and its results per node, kept for
# the next call: a residual progressed under the same knowledge again mostly
# holds the residual before it, whose nodes are then not walked twice.  Every
# node it keeps is interned and lives as long anyway, so it holds at most one
# result per live node and needs no bound of its own.
_last_progressed: tuple[dict, dict] = ({}, {})


def progress(f: Formula, knowledge: Mapping[str, bool]) -> Formula:
    """Progress an NNF or metric-form formula through one event.

    ``knowledge`` gives the truth of every atom the event determines (via an
    individual literal or its class witness); absent atoms stay unknown and
    their obligations survive as residual literals under the original names,
    for a later event's knowledge to resolve.  So a conjunct that the other
    side of a conjunction is, or holds as an operand, is dropped
    (``_conjoin``); disjunctions are kept as built, because the metric
    averages over ``|`` and an average is not associative.

    The formula is walked without recursion, each distinct node once
    (``postorder``), so no depth of residual raises ``RecursionError`` and a
    shared subformula costs one visit per call.  Consecutive calls under
    equal knowledge share their node results, however many, so a run whose
    events leave the same atoms unknown pays only for the nodes each window
    adds, at any trace length.
    """
    global _last_progressed
    known = dict(knowledge)
    last_known, done = _last_progressed
    if known != last_known:
        done = {}
        _last_progressed = known, done
    for g in postorder(f, into_next=False, known=done):
        kind = type(g)
        if kind is And:
            result = _conjoin(done[g.left], done[g.right])
        elif kind is Or:
            result = _mk_or(done[g.left], done[g.right])
        elif kind is Until:
            # f U g  ->  prog(g) | (prog(f) & (f U g))
            result = _mk_or(done[g.right], _conjoin(done[g.left], g))
        elif kind is Release:
            # f R g  ->  prog(g) & (prog(f) | (f R g))
            result = _conjoin(done[g.right], _mk_or(done[g.left], g))
        elif kind is Atom:
            value = known.get(g.name)
            result = g if value is None else TRUE if value else FALSE
        elif kind is Not:
            inner = done[g.operand]
            result = _mk_not(inner) if inner is TRUE or inner is FALSE else g
        elif kind is Next:
            result = g.operand
        elif kind is Implies:
            result = _mk_implies(done[g.left], done[g.right])
        elif kind is Eventually:
            result = _mk_or(done[g.operand], g)
        elif kind is Always:
            result = _conjoin(done[g.operand], g)
        elif g is TRUE or g is FALSE:
            result = g
        else:
            raise TypeError(f"not a formula: {g!r}")
        done[g] = result
    return done[f]
