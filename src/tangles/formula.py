"""Formula syntax for tangled modal logics and the modal mu-calculus.

The language has atoms, the verum constant, negation, conjunction, the box
and its difference-style companion ``[d]``, a global quantifier ``A``, two
tangle modalities taking finite sets of formulas, and least fixpoint binders.
Everything else (falsum, disjunction, implication, equivalence, the diamonds,
``E``, greatest fixpoints) is a derived form, but derived forms are kept as
first-class AST nodes so that parsing and printing are faithful; semantic
code expands them.

:func:`immediate_subformulas` is the one child map of the syntax tree and
:func:`rebuild` its inverse: it makes a node of the same kind over new
children.  Folds (``free_atoms``, ``all_names``, polarity) and rewrites
(``substitute`` and the translations) name only the constructors they treat
specially and pass every other node through these two.

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
from typing import Iterable, Iterator, Sequence


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
class _Binder(Formula):
    """Shared shape of the fixpoint binders: the body must be positive in
    the bound variable."""

    var: str
    body: Formula

    def __post_init__(self):
        if _polarities(self.body, self.var) & _NEG:
            kw = type(self).__name__.lower()
            raise PositivityError(
                f"'{self.var}' must occur positively in the body of {kw} {self.var}. {self.body}"
            )


@dataclass(frozen=True)
class Mu(_Binder):
    """``mu x. f``: least fixpoint."""


@dataclass(frozen=True)
class Nu(_Binder):
    """``nu x. f``: greatest fixpoint."""


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

# The parities of a name's occurrences, as a two-bit mask.
_POS = 1
_NEG = 2
_FLIPPED = (0, _NEG, _POS, _POS | _NEG)  # indexed by a mask: its parities swapped


def _polarities(phi: Formula, name: str) -> int:
    """Parities of the free occurrences of ``name`` once derived forms are
    expanded into the primitive connectives.  A negation or an implication
    flips its first side; an equivalence mentions both sides with both
    parities."""
    if isinstance(phi, Atom):
        return _POS if phi.name == name else 0
    if isinstance(phi, (Mu, Nu)) and phi.var == name:
        return 0
    flip = isinstance(phi, (Neg, Implies))
    out = 0
    for sub in immediate_subformulas(phi):
        pol = _polarities(sub, name)
        if flip:
            pol = _FLIPPED[pol]
            flip = False
        out |= pol
    if isinstance(phi, Iff):
        out |= _FLIPPED[out]
    return out


def positive_in(phi: Formula, name: str) -> bool:
    """True iff every free occurrence of ``name`` in ``phi`` sits under an
    even number of negations, counting the expansions of derived forms."""
    return not _polarities(phi, name) & _NEG


def free_atoms(phi: Formula) -> frozenset[str]:
    if isinstance(phi, Atom):
        return frozenset([phi.name])
    out: frozenset[str] = frozenset()
    for sub in immediate_subformulas(phi):
        out |= free_atoms(sub)
    if isinstance(phi, (Mu, Nu)):
        out -= {phi.var}
    return out


def all_names(phi: Formula) -> frozenset[str]:
    """Every identifier occurring in ``phi``, free or bound, binders included."""
    if isinstance(phi, Atom):
        return frozenset([phi.name])
    out: frozenset[str] = frozenset()
    for sub in immediate_subformulas(phi):
        out |= all_names(sub)
    if isinstance(phi, (Mu, Nu)):
        out |= {phi.var}
    return out


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
        if isinstance(f, (Mu, Nu)):
            if f.var == name or name not in free_atoms(f.body):
                return f
            if f.var in psi_free:
                raise CaptureError(f.var)
        # rebuilding a binder re-checks its positivity
        subs = []
        for sub in immediate_subformulas(f):
            subs.append(walk(sub))
        return rebuild(f, subs)

    return walk(phi)


# ---------------------------------------------------------------------------
# Subformula closure


# Constructors by shape; the one-child and two-child constructors are the
# keys of the printer's ``_PREFIX_TOKEN`` and ``_BINARY`` tables.
_LEAVES = frozenset({Atom, Top, Bot})
_TANGLES = frozenset({Tangle, TangleD})
_BINDERS = frozenset({Mu, Nu})


def immediate_subformulas(phi: Formula) -> tuple[Formula, ...]:
    """Direct subformulas of the node as written; derived forms count as
    primitive constructors here."""
    # Dispatch on the exact type: unlike ``isinstance`` with a tuple of
    # classes, a set lookup takes no recursion-limit slot, so walkers built
    # on this map reach as deep as hand-written ones.
    kind = type(phi)
    if kind in _PREFIX_TOKEN:
        return (phi.sub,)
    if kind in _BINARY:
        return (phi.left, phi.right)
    if kind in _BINDERS:
        return (phi.body,)
    if kind in _TANGLES:
        return phi.members
    if kind in _LEAVES:
        return ()
    raise TypeError(f"not a formula: {phi!r}")


def rebuild(phi: Formula, subs: Sequence[Formula]) -> Formula:
    """A node of ``phi``'s kind whose immediate subformulas are ``subs``;
    the inverse of :func:`immediate_subformulas`."""
    kind = type(phi)
    if kind in _LEAVES:
        return phi
    if kind in _BINDERS:
        args = (phi.var, *subs)
    elif kind in _TANGLES:
        args = (tuple(subs),)
    else:
        args = subs
    # Running __init__ on a bare instance, rather than calling the class,
    # skips the type call's recursion-limit slot, so a walk that ends here
    # reaches as deep as one that calls the constructor itself.
    node = object.__new__(kind)
    node.__init__(*args)
    return node


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

_PREFIX_TOKEN = {
    Neg: "~",
    Box: "[]",
    Dia: "<>",
    BoxD: "[d]",
    DiaD: "<d>",
    Forall: "A ",
    Exists: "E ",
}

_PREFIX_KIND = {
    "NOT": Neg,
    "BOX": Box,
    "DIA": Dia,
    "BOXD": BoxD,
    "DIAD": DiaD,
    "A": Forall,
    "E": Exists,
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
        if kind in _PREFIX_KIND:
            self.next()
            return _PREFIX_KIND[kind](self.prefix())
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
    try:
        out = parser.formula()
    except RecursionError:
        raise FormulaError("formula nested too deeply") from None
    kind, value, pos = parser.peek()
    if kind != "EOF":
        raise ParseError(f"trailing input {value!r}", pos)
    return out
