"""Formula syntax for tangled modal logics and the modal mu-calculus.

The language has atoms, the verum constant, negation, conjunction, the box
and its difference-style companion ``[d]``, a global quantifier ``A``, two
tangle modalities taking finite sets of formulas, and least fixpoint binders.
Everything else (falsum, disjunction, implication, equivalence, the diamonds,
``E``, greatest fixpoints) is a derived form, but derived forms are kept as
first-class AST nodes so that parsing and printing are faithful; semantic
code expands them.

Concrete grammar accepted by :func:`parse` (loosest to tightest):

    f  :=  g '<->' f  |  g
    g  :=  h '->' g   |  h
    h  :=  h '|' h    |  h '&' h          (usual precedence, left assoc)
    prefix := '~' p | '[]' p | '<>' p | '[d]' p | '<d>' p | 'A' p | 'E' p
    tangle := '<t>' '{' f (',' f)* '}'  |  '<dt>' '{' f (',' f)* '}'
    binder := ('mu' | 'nu') ATOM '.' f    (scope extends as far right as possible)
    p  :=  ATOM | 'true' | 'false' | '(' f ')' | prefix | tangle | binder

Atoms match ``[a-zA-Z][a-zA-Z0-9_]*`` minus the keywords
``mu nu true false A E``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator


class FormulaError(ValueError):
    """Base class for errors raised by the syntax layer."""


class ParseError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PositivityError(FormulaError):
    """A fixpoint binder whose variable occurs under an odd number of negations."""


class CaptureError(FormulaError):
    def __init__(self, binder: str):
        super().__init__(f"substitution would capture '{binder}'")
        self.binder = binder


# ---------------------------------------------------------------------------
# AST


class Formula:
    __slots__ = ()

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Neg(Formula):
    sub: Formula


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
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    sub: Formula


@dataclass(frozen=True)
class Dia(Formula):
    sub: Formula


@dataclass(frozen=True)
class BoxD(Formula):
    """``[d]`` - interior of the punctured neighbourhood, box-like."""

    sub: Formula


@dataclass(frozen=True)
class DiaD(Formula):
    """``<d>`` - the derivative (limit point) diamond."""

    sub: Formula


@dataclass(frozen=True)
class Forall(Formula):
    sub: Formula


@dataclass(frozen=True)
class Exists(Formula):
    sub: Formula


def _normalize_members(members: Iterable[Formula]) -> tuple[Formula, ...]:
    # canonical order: sort by printed form, dropping duplicates
    by_text = {pretty(m): m for m in members}
    if not by_text:
        raise FormulaError("tangle set must be non-empty")
    return tuple(by_text[k] for k in sorted(by_text))


@dataclass(frozen=True)
class Tangle(Formula):
    """``<t>{...}``: some point set where every member is cofinally reachable."""

    members: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", _normalize_members(self.members))


@dataclass(frozen=True)
class TangleD(Formula):
    """``<dt>{...}``: the derivative-based tangle."""

    members: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", _normalize_members(self.members))


@dataclass(frozen=True)
class Mu(Formula):
    var: str
    body: Formula

    def __post_init__(self):
        if not positive_in(self.body, self.var):
            raise PositivityError(
                f"'{self.var}' must occur positively in the body of mu {self.var}. {self.body}"
            )


@dataclass(frozen=True)
class Nu(Formula):
    var: str
    body: Formula

    def __post_init__(self):
        if not positive_in(self.body, self.var):
            raise PositivityError(
                f"'{self.var}' must occur positively in the body of nu {self.var}. {self.body}"
            )


def box_star(phi: Formula) -> Formula:
    """Reflexive box: phi and box phi."""
    return And(phi, Box(phi))


def dia_star(phi: Formula) -> Formula:
    """Reflexive diamond: phi or diamond phi."""
    return Or(phi, Dia(phi))


def conj(formulas: Iterable[Formula]) -> Formula:
    """Left-folded conjunction; empty input gives the verum constant."""
    items = list(formulas)
    if not items:
        return Top()
    out = items[0]
    for f in items[1:]:
        out = And(out, f)
    return out


def disj(formulas: Iterable[Formula]) -> Formula:
    items = list(formulas)
    if not items:
        return Bot()
    out = items[0]
    for f in items[1:]:
        out = Or(out, f)
    return out


# ---------------------------------------------------------------------------
# Polarity and well-formedness

_POS = 1
_NEG = -1


def _polarities(phi: Formula, name: str) -> frozenset[int]:
    """Parities of the free occurrences of ``name`` once derived forms are
    expanded into the primitive connectives.  An implication flips its left
    side; an equivalence mentions both sides with both parities."""
    if isinstance(phi, Atom):
        return frozenset([_POS]) if phi.name == name else frozenset()
    if isinstance(phi, (Top, Bot)):
        return frozenset()
    if isinstance(phi, Neg):
        return frozenset(-p for p in _polarities(phi.sub, name))
    if isinstance(phi, (And, Or)):
        return _polarities(phi.left, name) | _polarities(phi.right, name)
    if isinstance(phi, Implies):
        left = frozenset(-p for p in _polarities(phi.left, name))
        return left | _polarities(phi.right, name)
    if isinstance(phi, Iff):
        out: frozenset[int] = frozenset()
        for side in (phi.left, phi.right):
            pol = _polarities(side, name)
            out = out | pol | frozenset(-p for p in pol)
        return out
    if isinstance(phi, (Box, Dia, BoxD, DiaD, Forall, Exists)):
        return _polarities(phi.sub, name)
    if isinstance(phi, (Tangle, TangleD)):
        out = frozenset()
        for m in phi.members:
            out = out | _polarities(m, name)
        return out
    if isinstance(phi, (Mu, Nu)):
        if phi.var == name:
            return frozenset()
        return _polarities(phi.body, name)
    raise TypeError(f"not a formula: {phi!r}")


def positive_in(phi: Formula, name: str) -> bool:
    """True iff every free occurrence of ``name`` in ``phi`` sits under an
    even number of negations, counting the expansions of derived forms."""
    return _NEG not in _polarities(phi, name)


def free_atoms(phi: Formula) -> frozenset[str]:
    if isinstance(phi, Atom):
        return frozenset([phi.name])
    if isinstance(phi, (Top, Bot)):
        return frozenset()
    if isinstance(phi, (Neg, Box, Dia, BoxD, DiaD, Forall, Exists)):
        return free_atoms(phi.sub)
    if isinstance(phi, (And, Or, Implies, Iff)):
        return free_atoms(phi.left) | free_atoms(phi.right)
    if isinstance(phi, (Tangle, TangleD)):
        out: frozenset[str] = frozenset()
        for m in phi.members:
            out = out | free_atoms(m)
        return out
    if isinstance(phi, (Mu, Nu)):
        return free_atoms(phi.body) - {phi.var}
    raise TypeError(f"not a formula: {phi!r}")


def all_names(phi: Formula) -> frozenset[str]:
    """Every identifier occurring in ``phi``, free or bound, binders included."""
    if isinstance(phi, Atom):
        return frozenset([phi.name])
    if isinstance(phi, (Top, Bot)):
        return frozenset()
    if isinstance(phi, (Neg, Box, Dia, BoxD, DiaD, Forall, Exists)):
        return all_names(phi.sub)
    if isinstance(phi, (And, Or, Implies, Iff)):
        return all_names(phi.left) | all_names(phi.right)
    if isinstance(phi, (Tangle, TangleD)):
        out: frozenset[str] = frozenset()
        for m in phi.members:
            out = out | all_names(m)
        return out
    if isinstance(phi, (Mu, Nu)):
        return all_names(phi.body) | {phi.var}
    raise TypeError(f"not a formula: {phi!r}")


def fresh_names(used: Iterable[str]) -> Iterator[str]:
    """Yield ``_g0, _g1, ...`` skipping any name in ``used``."""
    taken = set(used)
    i = 0
    while True:
        name = f"_g{i}"
        if name not in taken:
            yield name
        i += 1


def substitute(phi: Formula, psi: Formula, name: str) -> Formula:
    """Replace every free occurrence of the atom ``name`` in ``phi`` by ``psi``.

    Raises :class:`CaptureError` when a free atom of ``psi`` would be caught
    by a binder of ``phi``, and :class:`PositivityError` when the result
    would put a bound fixpoint variable under an odd number of negations.
    """
    if name not in free_atoms(phi):
        return phi
    psi_free = free_atoms(psi)

    def walk(f: Formula) -> Formula:
        if isinstance(f, Atom):
            return psi if f.name == name else f
        if isinstance(f, (Top, Bot)):
            return f
        if isinstance(f, Neg):
            return Neg(walk(f.sub))
        if isinstance(f, And):
            return And(walk(f.left), walk(f.right))
        if isinstance(f, Or):
            return Or(walk(f.left), walk(f.right))
        if isinstance(f, Implies):
            return Implies(walk(f.left), walk(f.right))
        if isinstance(f, Iff):
            return Iff(walk(f.left), walk(f.right))
        if isinstance(f, Box):
            return Box(walk(f.sub))
        if isinstance(f, Dia):
            return Dia(walk(f.sub))
        if isinstance(f, BoxD):
            return BoxD(walk(f.sub))
        if isinstance(f, DiaD):
            return DiaD(walk(f.sub))
        if isinstance(f, Forall):
            return Forall(walk(f.sub))
        if isinstance(f, Exists):
            return Exists(walk(f.sub))
        if isinstance(f, Tangle):
            return Tangle(tuple(walk(m) for m in f.members))
        if isinstance(f, TangleD):
            return TangleD(tuple(walk(m) for m in f.members))
        if isinstance(f, (Mu, Nu)):
            if f.var == name:
                return f
            if name in free_atoms(f.body):
                if f.var in psi_free:
                    raise CaptureError(f.var)
                # reconstruction re-checks positivity of the binder
                return type(f)(f.var, walk(f.body))
            return f
        raise TypeError(f"not a formula: {f!r}")

    return walk(phi)


# ---------------------------------------------------------------------------
# Subformula closure


def immediate_subformulas(phi: Formula) -> tuple[Formula, ...]:
    """Direct subformulas of the node as written; derived forms count as
    primitive constructors here."""
    if isinstance(phi, (Atom, Top, Bot)):
        return ()
    if isinstance(phi, (Neg, Box, Dia, BoxD, DiaD, Forall, Exists)):
        return (phi.sub,)
    if isinstance(phi, (And, Or, Implies, Iff)):
        return (phi.left, phi.right)
    if isinstance(phi, (Tangle, TangleD)):
        return phi.members
    if isinstance(phi, (Mu, Nu)):
        return (phi.body,)
    raise TypeError(f"not a formula: {phi!r}")


@dataclass(frozen=True)
class ClosureSet:
    """A finite formula set closed under immediate subformulas."""

    formulas: frozenset[Formula] = field(default_factory=frozenset)

    def __post_init__(self):
        for f in self.formulas:
            for sub in immediate_subformulas(f):
                if sub not in self.formulas:
                    raise FormulaError(
                        f"closure set misses {pretty(sub)}, a subformula of {pretty(f)}"
                    )

    def __contains__(self, phi: Formula) -> bool:
        return phi in self.formulas

    def __len__(self) -> int:
        return len(self.formulas)

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.sorted())

    def sorted(self) -> tuple[Formula, ...]:
        """Members in a deterministic order (by printed form)."""
        return tuple(sorted(self.formulas, key=pretty))

    @property
    def tangle_members(self) -> tuple[Formula, ...]:
        return tuple(f for f in self.sorted() if isinstance(f, (Tangle, TangleD)))

    @property
    def diamond_members(self) -> tuple[Formula, ...]:
        return tuple(f for f in self.sorted() if isinstance(f, (Dia, DiaD)))

    @property
    def atoms(self) -> frozenset[str]:
        return frozenset(f.name for f in self.formulas if isinstance(f, Atom))


def subformula_closure(roots: Iterable[Formula]) -> ClosureSet:
    """Least set containing ``roots`` and closed under immediate subformulas."""
    seen: set[Formula] = set()
    stack = list(roots)
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        stack.extend(immediate_subformulas(f))
    return ClosureSet(frozenset(seen))


# ---------------------------------------------------------------------------
# Printer

# binary operator levels, loosest binds first
_LEVEL_IFF = 1
_LEVEL_IMP = 2
_LEVEL_OR = 3
_LEVEL_AND = 4
_LEVEL_PREFIX = 5
_LEVEL_ATOM = 6


def _level(phi: Formula) -> int:
    if isinstance(phi, (Atom, Top, Bot, Tangle, TangleD)):
        return _LEVEL_ATOM
    if isinstance(phi, (Neg, Box, Dia, BoxD, DiaD, Forall, Exists)):
        return _LEVEL_PREFIX
    if isinstance(phi, And):
        return _LEVEL_AND
    if isinstance(phi, Or):
        return _LEVEL_OR
    if isinstance(phi, Implies):
        return _LEVEL_IMP
    if isinstance(phi, Iff):
        return _LEVEL_IFF
    if isinstance(phi, (Mu, Nu)):
        return 0
    raise TypeError(f"not a formula: {phi!r}")


_PREFIX_TOKEN = {
    Neg: "~",
    Box: "[]",
    Dia: "<>",
    BoxD: "[d]",
    DiaD: "<d>",
    Forall: "A ",
    Exists: "E ",
}

_BINARY = {
    And: ("&", _LEVEL_AND, "left"),
    Or: ("|", _LEVEL_OR, "left"),
    Implies: ("->", _LEVEL_IMP, "right"),
    Iff: ("<->", _LEVEL_IFF, "right"),
}


def pretty(phi: Formula) -> str:
    """Print with minimal parentheses; ``parse(pretty(phi)) == phi``."""

    def emit(f: Formula, need: int, rightmost: bool) -> str:
        if isinstance(f, Atom):
            return f.name
        if isinstance(f, Top):
            return "true"
        if isinstance(f, Bot):
            return "false"
        if isinstance(f, (Mu, Nu)):
            kw = "mu" if isinstance(f, Mu) else "nu"
            text = f"{kw} {f.var}. {emit(f.body, 0, True)}"
            # a binder swallows everything to its right, so it can stay
            # bare only in rightmost position
            return text if rightmost else f"({text})"
        if isinstance(f, (Tangle, TangleD)):
            tok = "<t>" if isinstance(f, Tangle) else "<dt>"
            inner = ", ".join(emit(m, 0, True) for m in f.members)
            return f"{tok}{{{inner}}}"
        if type(f) in _PREFIX_TOKEN:
            text = _PREFIX_TOKEN[type(f)] + emit(f.sub, _LEVEL_PREFIX, rightmost)
            return text if _LEVEL_PREFIX >= need else f"({text})"
        op, lvl, assoc = _BINARY[type(f)]
        left_need = lvl if assoc == "left" else lvl + 1
        right_need = lvl + 1 if assoc == "left" else lvl
        text = (
            emit(f.left, left_need, False)
            + f" {op} "
            + emit(f.right, right_need, rightmost)
        )
        return text if lvl >= need else f"({text})"

    return emit(phi, 0, True)


# ---------------------------------------------------------------------------
# Parser

_KEYWORDS = {"mu", "nu", "true", "false", "A", "E"}
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# token kinds carrying no payload
_SYMBOLS = [
    ("<->", "IFF"),
    ("<dt>", "TANGLED"),
    ("<d>", "DIAD"),
    ("<t>", "TANGLE"),
    ("<>", "DIA"),
    ("[d]", "BOXD"),
    ("[]", "BOX"),
    ("->", "IMP"),
    ("~", "NOT"),
    ("&", "AND"),
    ("|", "OR"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    ("{", "LBRACE"),
    ("}", "RBRACE"),
    (",", "COMMA"),
    (".", "DOT"),
]


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        m = _IDENT.match(text, i)
        if m:
            word = m.group(0)
            if word in _KEYWORDS:
                tokens.append((word.upper(), word, i))
            else:
                tokens.append(("ATOM", word, i))
            i = m.end()
            continue
        for sym, kind in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append((kind, sym, i))
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("EOF", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def formula(self) -> Formula:
        return self.iff()

    def iff(self) -> Formula:
        left = self.imp()
        if self.peek()[0] == "IFF":
            self.next()
            return Iff(left, self.iff())
        return left

    def imp(self) -> Formula:
        left = self.disj()
        if self.peek()[0] == "IMP":
            self.next()
            return Implies(left, self.imp())
        return left

    def disj(self) -> Formula:
        out = self.conj()
        while self.peek()[0] == "OR":
            self.next()
            out = Or(out, self.conj())
        return out

    def conj(self) -> Formula:
        out = self.prefix()
        while self.peek()[0] == "AND":
            self.next()
            out = And(out, self.prefix())
        return out

    def prefix(self) -> Formula:
        kind, _, pos = self.peek()
        if kind == "NOT":
            self.next()
            return Neg(self.prefix())
        if kind == "BOX":
            self.next()
            return Box(self.prefix())
        if kind == "DIA":
            self.next()
            return Dia(self.prefix())
        if kind == "BOXD":
            self.next()
            return BoxD(self.prefix())
        if kind == "DIAD":
            self.next()
            return DiaD(self.prefix())
        if kind == "A":
            self.next()
            return Forall(self.prefix())
        if kind == "E":
            self.next()
            return Exists(self.prefix())
        if kind in ("TANGLE", "TANGLED"):
            self.next()
            self.expect("LBRACE")
            if self.peek()[0] == "RBRACE":
                raise ParseError("empty tangle braces", self.peek()[2])
            members = [self.formula()]
            while self.peek()[0] == "COMMA":
                self.next()
                members.append(self.formula())
            self.expect("RBRACE")
            return Tangle(tuple(members)) if kind == "TANGLE" else TangleD(tuple(members))
        if kind in ("MU", "NU"):
            self.next()
            var = self.expect("ATOM")[1]
            self.expect("DOT")
            body = self.formula()  # maximal scope to the right
            return Mu(var, body) if kind == "MU" else Nu(var, body)
        return self.primary()

    def primary(self) -> Formula:
        kind, value, pos = self.next()
        if kind == "ATOM":
            return Atom(value)
        if kind == "TRUE":
            return Top()
        if kind == "FALSE":
            return Bot()
        if kind == "LPAREN":
            inner = self.formula()
            self.expect("RPAREN")
            return inner
        raise ParseError(f"unexpected {value or 'end of input'!r}", pos)


def parse(text: str) -> Formula:
    parser = _Parser(text)
    out = parser.formula()
    kind, value, pos = parser.peek()
    if kind != "EOF":
        raise ParseError(f"trailing input {value!r}", pos)
    return out
