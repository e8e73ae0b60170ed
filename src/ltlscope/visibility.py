"""Alphabets, indistinguishability classes, and the three trace forms.

A plain trace is what the system produced (sets of atom names).  Its explicit
form signs every atom of the alphabet at every position.  The visible form is
what the monitor observes: atoms from singleton or broken classes pass through
as individual signed literals, every other class contributes at most one
witness literal, emitted only when all members agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .formula import SLit, is_atom_name

PlainEvent = frozenset[str]
SignedEvent = frozenset[SLit]


@dataclass(frozen=True)
class EqClass:
    """One equivalence class of the indistinguishability relation."""

    members: frozenset[str]

    def __post_init__(self):
        if not self.members:
            raise ValueError("empty equivalence class")

    @property
    def canonical_id(self) -> str:
        return "".join(sorted(self.members))

    @property
    def representative(self) -> str:
        return min(self.members)

    @property
    def witness_name(self) -> str:
        return f"[{self.canonical_id}]"

    @property
    def is_singleton(self) -> bool:
        return len(self.members) == 1

    def __len__(self) -> int:
        return len(self.members)


def derive_classes(alphabet: Iterable[str], relation: Iterable[tuple[str, str]]) -> tuple[EqClass, ...]:
    """Quotient the alphabet by the reflexive-transitive-symmetric closure of
    the given pairs.  Classes come back sorted by representative."""
    alphabet = set(alphabet)
    parent: dict[str, str] = {a: a for a in alphabet}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p, q in relation:
        if p not in alphabet:
            raise ValueError(f"relation references unknown atom {p!r}")
        if q not in alphabet:
            raise ValueError(f"relation references unknown atom {q!r}")
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[rp] = rq

    groups: dict[str, set[str]] = {}
    for a in alphabet:
        groups.setdefault(find(a), set()).add(a)
    classes = tuple(sorted((EqClass(frozenset(g)) for g in groups.values()),
                           key=lambda c: c.representative))
    if len(classes) <= len(alphabet) - 2:  # else fewer than two classes have several members
        witness_names(classes)
    return classes


def witness_names(classes: Iterable[EqClass]) -> dict[str, EqClass]:
    """Each class with several members by its witness name.  Two classes
    whose members run together into one witness name (``ab~c`` and ``a~bc``
    are both ``[abc]``) raise ``ValueError``: a signed literal could not
    tell them apart.  ``derive_classes``, ``VisibilitySpec`` and
    ``rendering_map`` check every class structure that enters the library
    here."""
    out: dict[str, EqClass] = {}
    for cls in classes:
        if len(cls.members) > 1:
            name = cls.witness_name
            other = out.setdefault(name, cls)
            if other.members != cls.members:
                raise ValueError(f"classes {'~'.join(sorted(other.members))} and "
                                 f"{'~'.join(sorted(cls.members))} share the witness "
                                 f"name {name!r}")
    return out


def parse_classes(text: str, alphabet: Optional[Iterable[str]] = None) -> tuple[EqClass, ...]:
    """Parse the ``c~s; a~b~g`` classes syntax.

    Atoms outside the groups become singletons when an alphabet is given;
    otherwise the alphabet is the set of mentioned atoms.  Every name, in
    the groups and in the alphabet, must be one the formula grammar reads
    as an atom (``is_atom_name``); another raises ``ValueError``.  So do
    two classes that share a witness name (``witness_names``).
    """
    pairs: list[tuple[str, str]] = []
    mentioned: set[str] = set()
    for group in text.split(";"):
        group = group.strip()
        if not group:
            continue
        names = [n.strip() for n in group.split("~")]
        for name in names:
            if not is_atom_name(name):
                raise ValueError(f"bad atom name in classes spec: {name!r}")
            mentioned.add(name)
        pairs.extend(zip(names, names[1:]))
    full = set(alphabet) if alphabet is not None else mentioned
    for name in sorted(full - mentioned):
        if not is_atom_name(name):
            raise ValueError(f"bad atom name in alphabet: {name!r}")
    missing = mentioned - full
    if missing:
        raise ValueError(f"classes mention atoms outside the alphabet: {sorted(missing)}")
    return derive_classes(full, pairs)


@dataclass(frozen=True)
class VisibilitySpec:
    """Classes, per-class break costs and budget; the alphabet is their union."""

    classes: tuple[EqClass, ...]
    costs: Mapping[str, int] = field(default_factory=dict)  # canonical_id -> cost
    bound: int = 0
    alphabet: frozenset[str] = field(init=False)

    def __post_init__(self):
        covered: set[str] = set()
        for cls in self.classes:
            if covered & cls.members:
                raise ValueError("classes overlap")
            covered |= cls.members
        object.__setattr__(self, "alphabet", frozenset(covered))
        witness_names(self.classes)
        for cls in self.classes:
            if not cls.is_singleton and cls.canonical_id not in self.costs:
                raise ValueError(f"missing cost for class {cls.canonical_id!r}")
        for cid, cost in self.costs.items():
            if type(cost) is not int or cost < 0:
                raise ValueError(f"cost for {cid!r} must be a non-negative integer, "
                                 f"got {cost!r}")
        if type(self.bound) is not int:
            raise ValueError(f"bound must be an integer, got {self.bound!r}")
        if self.bound < 0:
            raise ValueError("bound must be non-negative")

    @property
    def breakable(self) -> tuple[EqClass, ...]:
        return tuple(c for c in self.classes if not c.is_singleton)


def rendering_map(classes: Sequence[EqClass]) -> dict[str, str]:
    """Literal base name standing for each atom: itself for singletons, the
    class witness otherwise.  Two classes that share a witness name raise
    ``ValueError`` (``witness_names``)."""
    out = {atom: atom for cls in classes if cls.is_singleton for atom in cls.members}
    for name, cls in witness_names(classes).items():
        out.update(dict.fromkeys(cls.members, name))
    return out


def identity_classes(alphabet: Iterable[str]) -> tuple[EqClass, ...]:
    """All-singleton partition: every atom individually visible."""
    return tuple(EqClass(frozenset({a})) for a in sorted(set(alphabet)))


# ---------------------------------------------------------------------------
# Trace forms
# ---------------------------------------------------------------------------

def explicit_trace(trace: Sequence[Iterable[str]], alphabet: Iterable[str]) -> list[SignedEvent]:
    """Sign every atom of the alphabet at every position."""
    alphabet = frozenset(alphabet)
    out = []
    for i, event in enumerate(trace):
        present = frozenset(event)
        unknown = present - alphabet
        if unknown:
            raise ValueError(f"unknown atom(s) {sorted(unknown)} at position {i}")
        out.append(frozenset(SLit(a, a in present) for a in alphabet))
    return out


def visible_event(event: SignedEvent, classes: Sequence[EqClass],
                  broken: Iterable[str]) -> SignedEvent:
    """Filter one explicit event through the visibility of the classes.

    ``broken`` holds canonical ids of classes whose members are individually
    visible.  Unbroken non-singleton classes emit their witness literal only
    when every member carries the same sign.
    """
    broken = set(broken)
    truth = {lit.name: lit.sign for lit in event}
    out: set[SLit] = set()
    for cls in classes:
        if cls.is_singleton or cls.canonical_id in broken:
            for atom in cls.members:
                if atom in truth:
                    out.add(SLit(atom, truth[atom]))
        else:
            signs = {truth[a] for a in cls.members if a in truth}
            if len(signs) == 1 and all(a in truth for a in cls.members):
                out.add(SLit(cls.witness_name, signs.pop()))
    return frozenset(out)


def check_breakable(broken: Iterable[str], classes: Sequence[EqClass]) -> None:
    """Refuse a class id in ``broken`` that names no class with several
    members: only those can be broken."""
    stray = set(broken) - {c.canonical_id for c in classes if not c.is_singleton}
    if stray:
        raise ValueError(f"cannot break non-existent or singleton class(es): {sorted(stray)}")


def visible_trace(explicit: Sequence[SignedEvent], classes: Sequence[EqClass],
                  broken: Iterable[str]) -> list[SignedEvent]:
    broken = set(broken)
    check_breakable(broken, classes)
    return [visible_event(ev, classes, broken) for ev in explicit]


def expand_witnesses(event: SignedEvent, classes: Sequence[EqClass]) -> SignedEvent:
    """Decode witness literals back into their member literals.

    A witness carries exactly the information that all members share its
    sign, so decoding loses nothing and frees the consumer from tracking
    which classes are currently broken.
    """
    by_witness = {c.witness_name: c for c in classes if not c.is_singleton}
    out: set[SLit] = set()
    for lit in event:
        cls = by_witness.get(lit.name)
        if cls is None:
            out.add(lit)
        else:
            out.update(SLit(a, lit.sign) for a in cls.members)
    return frozenset(out)


def knowledge_from_event(event: SignedEvent, classes: Sequence[EqClass]) -> dict[str, bool]:
    """Atom truths a visible event determines, witnesses decoded."""
    return {lit.name: lit.sign for lit in expand_witnesses(event, classes)}


def event_set(event, what: str) -> frozenset:
    """``event`` as a frozenset of ``what``.  A ``str`` is refused, not read
    as the set of its characters, and so is a mapping, not read as its
    keys; ``None``, an int or any other value that is not a collection of
    hashable items raises ``ValueError`` too, not ``TypeError``."""
    if type(event) is frozenset:  # the common case: neither a string nor a mapping
        return event
    if isinstance(event, str):
        raise ValueError(f"an event is a set of {what}, not the string {event!r}")
    if isinstance(event, Mapping):
        raise ValueError(f"an event is a set of {what}, not the mapping {event!r}")
    try:
        return frozenset(event)
    except TypeError:
        raise ValueError(f"an event is a set of {what}, not {event!r}") from None


def check_consistent(event: SignedEvent) -> None:
    """Reject events carrying both signs of one literal name."""
    seen: dict[str, bool] = {}
    for lit in event:
        if seen.setdefault(lit.name, lit.sign) != lit.sign:
            raise ValueError(f"inconsistent event: both signs of {lit.name!r}")


def standard_view(trace: Sequence[Iterable[str]], classes: Sequence[EqClass]) -> list[PlainEvent]:
    """The plain trace a closed-world monitor receives: an atom survives only
    when its truth would be individually visible (singleton class) or
    witnessed by full class agreement."""
    out = []
    for event in trace:
        present = set(event)
        kept: set[str] = set()
        for cls in classes:
            if cls.members <= present:
                kept |= cls.members
        out.append(frozenset(kept))
    return out
