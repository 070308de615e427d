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

Nodes are hash-consed: every way of making a node (the class call,
``rebuild``, the parser, ``dataclasses.replace``, ``copy`` and ``pickle``)
returns the one live node of that structure, from a table that holds nodes
weakly.  Equality is therefore identity, hashing is the object's, and a
formula that repeats a subformula is a DAG that stores it once.  The
canonical order of tangle members and closure sets is by printed form,
computed once per node.  :func:`pretty` and :func:`printed_length` lay out
each node once per printing context, so shared subformulas cost one layout;
the evaluator in ``kripke`` likewise computes each distinct subformula once.

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
import threading
import weakref
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


class _Entry(weakref.ref):
    """A weak reference to an interned node that remembers the node's key."""

    __slots__ = ("key",)


# Every live node by its structure: the node's class and its field values.
# Children enter a key by identity, which is sound because a live node keeps
# its children, and so their table entries, alive.  Lookups read the table
# without the lock; adding and removing entries hold it.  It is reentrant
# because a node can die, and its entry go, while its thread adds another.
_NODES: dict[tuple, _Entry] = {}
_NODES_LOCK = threading.RLock()


def _forget(entry: _Entry, nodes: dict = _NODES, lock=_NODES_LOCK) -> None:
    with lock:
        # only if the key still names this entry and not a newer node's
        if nodes.get(entry.key) is entry:
            del nodes[entry.key]


class Formula:
    """A node of the syntax DAG.

    Nodes are interned: calling a node class returns the one live node of
    that structure, made on first use, so equality is identity and the hash
    is the object's.  The fields are set here, once; the dataclasses of the
    node kinds generate no ``__init__``.
    """

    __slots__ = ()

    def __new__(kind, *args, **named):
        fields = kind.__match_args__
        if named:  # dataclasses.replace names every field
            args += tuple(named.pop(f) for f in fields[len(args):] if f in named)
        if named or len(args) != len(fields):
            raise TypeError(f"{kind.__name__} takes the fields {', '.join(fields)}")
        if kind in _TANGLES:
            args = (_normalize_members(args[0]),)
        key = (kind, *args)
        entry = _NODES.get(key)
        node = None if entry is None else entry()
        if node is None:
            if kind in _BINDERS and _polarities(args[1], args[0]) & _NEG:
                var, body = args
                raise PositivityError(
                    f"'{var}' must occur positively in the body of"
                    f" {kind.__name__.lower()} {var}. {body}"
                )
            with _NODES_LOCK:
                entry = _NODES.get(key)
                node = None if entry is None else entry()
                if node is None:  # no other thread made it meanwhile
                    node = object.__new__(kind)
                    for name, value in zip(fields, args):
                        object.__setattr__(node, name, value)
                    entry = _Entry(node, _forget)
                    entry.key = key
                    _NODES[key] = entry
        return node

    def __str__(self) -> str:
        return pretty(self)

    # a copy is the node itself, and unpickling goes through the table
    def __copy__(self) -> Formula:
        return self

    def __deepcopy__(self, memo) -> Formula:
        return self

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


# The node kinds: frozen dataclasses for their fields, ``repr`` and
# ``dataclasses.replace``; construction and equality come from Formula.
_node = dataclass(frozen=True, eq=False, init=False)


@_node
class Atom(Formula):
    name: str


@_node
class Top(Formula):
    pass


@_node
class Bot(Formula):
    pass


@_node
class Neg(Formula):
    sub: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    left: Formula
    right: Formula


@_node
class Box(Formula):
    sub: Formula


@_node
class Dia(Formula):
    sub: Formula


@_node
class BoxD(Formula):
    """``[d]`` - interior of the punctured neighbourhood, box-like."""

    sub: Formula


@_node
class DiaD(Formula):
    """``<d>`` - the derivative (limit point) diamond."""

    sub: Formula


@_node
class Forall(Formula):
    sub: Formula


@_node
class Exists(Formula):
    sub: Formula


def _sort_key(phi: Formula) -> str:
    """The canonical sort key of a node, its printed form, computed once."""
    try:
        return phi._text
    except AttributeError:
        text = pretty(phi)
        object.__setattr__(phi, "_text", text)
        return text


def _normalize_members(members: Iterable[Formula]) -> tuple[Formula, ...]:
    # canonical order: sort by printed form, dropping duplicates
    members = tuple(members)
    if len(members) == 1 and isinstance(members[0], Formula):
        return members  # already canonical, and its printed form may be huge
    by_text = {_sort_key(m): m for m in members}
    if not by_text:
        raise FormulaError("tangle set must be non-empty")
    return tuple(by_text[k] for k in sorted(by_text))


@_node
class Tangle(Formula):
    """``<t>{...}``: some point set where every member is cofinally reachable."""

    members: tuple[Formula, ...]


@_node
class TangleD(Formula):
    """``<dt>{...}``: the derivative-based tangle."""

    members: tuple[Formula, ...]


@_node
class _Binder(Formula):
    """Shared shape of the fixpoint binders: the body must be positive in
    the bound variable, which ``Formula.__new__`` checks."""

    var: str
    body: Formula


@_node
class Mu(_Binder):
    """``mu x. f``: least fixpoint."""


@_node
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


def _polarities(phi: Formula, name: str, memo: dict | None = None) -> int:
    """Parities of the free occurrences of ``name`` once derived forms are
    expanded into the primitive connectives.  A negation or an implication
    flips its first side; an equivalence mentions both sides with both
    parities.  ``memo`` holds the nodes already walked, so a shared
    subformula is walked once."""
    if isinstance(phi, Atom):
        return _POS if phi.name == name else 0
    if isinstance(phi, (Mu, Nu)) and phi.var == name:
        return 0
    if memo is None:
        memo = {}
    flip = isinstance(phi, (Neg, Implies))
    out = 0
    for sub in immediate_subformulas(phi):
        pol = memo.get(sub)
        if pol is None:
            pol = memo[sub] = _polarities(sub, name, memo)
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
    # Calling __new__ directly, rather than the class, skips the type call's
    # recursion-limit slot, so a walk that ends here reaches as deep as one
    # that calls the constructor itself.
    return Formula.__new__(kind, *args)


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
        return tuple(sorted(self.formulas, key=_sort_key))

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


def _layout(f: Formula, need: int, rightmost: bool) -> Sequence:
    """How ``f`` prints in a context that binds with strength ``need``: its
    literal text and, in place of each child, the child's printing context
    ``(child, need, rightmost)``."""
    kind = type(f)
    if kind is Atom:
        return (f.name,)
    if kind is Top:
        return ("true",)
    if kind is Bot:
        return ("false",)
    if kind in _PREFIX_TOKEN:
        # prefixes bind tightest, so they never need parentheses
        return (_PREFIX_TOKEN[kind], (f.sub, _LEVEL_PREFIX, rightmost))
    if kind in _BINDERS:
        head = f"{'mu' if kind is Mu else 'nu'} {f.var}. "
        # a binder swallows everything to its right, so it can stay bare
        # only in rightmost position
        body = (f.body, 0, True)
        return (head, body) if rightmost else ("(" + head, body, ")")
    if kind in _TANGLES:
        out = ["<t>{" if kind is Tangle else "<dt>{"]
        for m in f.members:
            out += ((m, 0, True), ", ")
        out[-1] = "}"
        return out
    op, lvl, assoc = _BINARY[kind]
    left = (f.left, lvl if assoc == "left" else lvl + 1, False)
    right = (f.right, lvl + 1 if assoc == "left" else lvl, rightmost)
    text = (left, f" {op} ", right)
    return text if lvl >= need else ("(", *text, ")")


def pretty(phi: Formula) -> str:
    """Print with minimal parentheses; ``parse(pretty(phi)) is phi``.  Each
    node is printed once per context, so shared subformulas cost one
    layout each."""
    memo: dict[tuple, str] = {}

    def emit(ctx: tuple) -> str:
        text = memo.get(ctx)
        if text is None:
            parts = []
            for piece in _layout(*ctx):
                parts.append(piece if type(piece) is str else emit(piece))
            text = memo[ctx] = "".join(parts)
        return text

    return emit((phi, 0, True))


def printed_length(phi: Formula) -> int:
    """``len(pretty(phi))``, counted without printing: once per node and
    context, so it takes time linear in the distinct nodes even where the
    printed text is exponentially longer."""
    memo: dict[tuple, int] = {}

    def measure(ctx: tuple) -> int:
        size = memo.get(ctx)
        if size is None:
            size = 0
            for piece in _layout(*ctx):
                size += len(piece) if type(piece) is str else measure(piece)
            memo[ctx] = size
        return size

    return measure((phi, 0, True))


# ---------------------------------------------------------------------------
# Parser

_KEYWORDS = {"mu", "nu", "true", "false", "A", "E"}

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

# One alternative per token kind, named after it; whitespace is unnamed and
# any other character matches BAD.
_TOKEN = re.compile(
    "|".join(
        [r"(?P<ATOM>[A-Za-z_][A-Za-z0-9_]*)"]
        + [f"(?P<{kind}>{re.escape(sym)})" for sym, kind in _SYMBOLS]
        + [r"\s+", "(?P<BAD>.)"]
    ),
    re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        word = m.group()
        if kind == "ATOM":
            if word in _KEYWORDS:
                kind = word.upper()
        elif kind == "BAD":
            raise ParseError(f"unexpected character {word!r}", m.start())
        tokens.append((kind, word, m.start()))
    tokens.append(("EOF", "", len(text)))
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
