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
specially and pass every other node through these two.  None of them
recurses, nor do the printer and ``repr``; the folds and ``substitute``
walk :func:`post_order`, which lists each distinct node once.

Nodes are hash-consed: every way of making a node (the class call,
positional or by field name, ``rebuild``, the parser, ``copy`` and
``pickle``) returns the one live node of that structure, from a table that
holds nodes weakly.  Equality is therefore identity, hashing is the
object's, and a formula that repeats a subformula is a DAG that stores it
once.  The node kinds are plain slotted classes, immutable once made:
setting or deleting a field raises ``dataclasses.FrozenInstanceError``.  The
canonical order of tangle members and closure sets is by printed form,
computed once per node; a tangle of two or more members prints them from
that cached text, and the lone member of a tangle, never sorted, is laid out.
:func:`pretty` and :func:`printed_length` lay out each node once per
printing context, so shared subformulas cost one layout; the evaluator in
``kripke`` likewise computes each distinct subformula once.

Concrete grammar accepted by :func:`parse` (loosest to tightest):

    f  :=  g '<->' f  |  g
    g  :=  h '->' g   |  h
    h  :=  h '|' h    |  h '&' h          (usual precedence, left assoc)
    prefix := '~' p | '[]' p | '<>' p | '[d]' p | '<d>' p | 'A' p | 'E' p
    tangle := '<t>' '{' f (',' f)* '}'  |  '<dt>' '{' f (',' f)* '}'
    binder := ('mu' | 'nu') ATOM '.' f    (scope extends as far right as possible)
    p  :=  ATOM | 'true' | 'false' | '(' f ')' | prefix | tangle | binder

Atoms match ``[A-Za-z_][A-Za-z0-9_]*`` minus the keywords
``mu nu true false A E``.
"""

from __future__ import annotations

import functools
import itertools
import re
import threading
import weakref
from collections import deque
from collections.abc import Iterable, Iterator, Sequence


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


# Every live node by its structure: the node's class and its field values.
# Children enter a key by identity, which is sound because a live node keeps
# its children, and so their table entries, alive.  Lookups read the table
# without the lock; adding and removing entries hold it.  It is reentrant
# because a node can die, and its entry go, while its thread adds another.
_NODES: dict[tuple, weakref.KeyedRef] = {}
_NODES_LOCK = threading.RLock()


def _frozen(doing: str, name: str):
    """Refuse to change a field of an immutable node or record.  The error
    class is imported only when it is raised, so that no command loads
    ``dataclasses``."""
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot {doing} field {name!r}")


def _forget(entry: weakref.KeyedRef, nodes: dict = _NODES, lock=_NODES_LOCK) -> None:
    with lock:
        # only if the key still names this entry and not a newer node's
        if nodes.get(entry.key) is entry:
            del nodes[entry.key]


class Formula:
    """A node of the syntax DAG.

    Nodes are interned: calling a node class returns the one live node of
    that structure, made on first use, so equality is identity and the hash
    is the object's.  Each node kind names its fields in ``__match_args__``
    and ``__slots__``; they are set here, once, and never again.  The slots
    declared here cache a node's printed form and free names.
    """

    __slots__ = ("_text", "_free", "__weakref__")

    def __new__(kind, *args, **named):
        fields = kind.__match_args__
        if named:  # fields by keyword, as repr spells them
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
                    _NODES[key] = weakref.KeyedRef(node, _forget, key)
        return node

    def __setattr__(self, name, value):
        _frozen("assign to", name)

    def __delattr__(self, name):
        _frozen("delete", name)

    def __str__(self) -> str:
        return pretty(self)

    def __repr__(self) -> str:
        """The constructor calls that build the node, field by field.  A
        subformula met along more than one path is written in full once,
        tagged ``#k=``, and as ``#k`` after that, so the text grows with
        the distinct nodes, not with the tree.  Built without recursion."""
        uses: dict[Formula, int] = {}
        for f in post_order(self):
            for sub in immediate_subformulas(f):
                uses[sub] = uses.get(sub, 0) + 1
        tags: dict[Formula, int] = {}
        out: list[str] = []
        todo: list = [self]
        while todo:
            item = todo.pop()
            if type(item) is str:
                out.append(item)
            elif item in tags:
                out.append(f"#{tags[item]}")
            else:
                if uses.get(item, 0) > 1 and type(item) not in _LEAVES:
                    tags[item] = len(tags) + 1
                    out.append(f"#{tags[item]}=")
                pieces: list = [f"{type(item).__name__}("]
                for k, name in enumerate(item.__match_args__):
                    value = getattr(item, name)
                    pieces.append(f"{', ' if k else ''}{name}=")
                    if type(value) is tuple:  # tangle members
                        pieces.append("(")
                        for m in value:
                            pieces += [m, ", "]
                        pieces[-1] = ",)" if len(value) == 1 else ")"
                    else:
                        pieces.append(value if isinstance(value, Formula) else repr(value))
                pieces.append(")")
                todo += reversed(pieces)
        return "".join(out)

    # a copy is the node itself, and unpickling goes through the table
    def __copy__(self) -> Formula:
        return self

    def __deepcopy__(self, memo) -> Formula:
        return self

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


class Atom(Formula):
    __slots__ = __match_args__ = ("name",)


class Top(Formula):
    __slots__ = __match_args__ = ()


class Bot(Formula):
    __slots__ = __match_args__ = ()


class Neg(Formula):
    __slots__ = __match_args__ = ("sub",)


class And(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Or(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Implies(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Iff(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Box(Formula):
    __slots__ = __match_args__ = ("sub",)


class Dia(Formula):
    __slots__ = __match_args__ = ("sub",)


class BoxD(Formula):
    """``[d]`` - interior of the punctured neighbourhood, box-like."""

    __slots__ = __match_args__ = ("sub",)


class DiaD(Formula):
    """``<d>`` - the derivative (limit point) diamond."""

    __slots__ = __match_args__ = ("sub",)


class Forall(Formula):
    __slots__ = __match_args__ = ("sub",)


class Exists(Formula):
    __slots__ = __match_args__ = ("sub",)


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


class Tangle(Formula):
    """``<t>{...}``: some point set where every member is cofinally reachable."""

    __slots__ = __match_args__ = ("members",)


class TangleD(Formula):
    """``<dt>{...}``: the derivative-based tangle."""

    __slots__ = __match_args__ = ("members",)


class _Binder(Formula):
    """Shared shape of the fixpoint binders: the body must be positive in
    the bound variable, which ``Formula.__new__`` checks."""

    __slots__ = __match_args__ = ("var", "body")


class Mu(_Binder):
    """``mu x. f``: least fixpoint."""

    __slots__ = ()


class Nu(_Binder):
    """``nu x. f``: greatest fixpoint."""

    __slots__ = ()


def box_star(phi: Formula) -> Formula:
    """Reflexive box: phi and box phi."""
    return And(phi, Box(phi))


def dia_star(phi: Formula) -> Formula:
    """Reflexive diamond: phi or diamond phi."""
    return Or(phi, Dia(phi))


def _left_fold(kind: type, formulas: Iterable[Formula], empty: type) -> Formula:
    items = iter(formulas)
    first = next(items, None)
    return empty() if first is None else functools.reduce(kind, items, first)


def conj(formulas: Iterable[Formula]) -> Formula:
    """Left-folded conjunction; empty input gives the verum constant."""
    return _left_fold(And, formulas, Top)


def disj(formulas: Iterable[Formula]) -> Formula:
    """Left-folded disjunction; empty input gives the falsum constant."""
    return _left_fold(Or, formulas, Bot)


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
    parities.  Only the subformulas where ``name`` is free are visited."""
    if name not in free_atoms(phi):
        return 0
    memo: dict[Formula, int] = {}
    for f in _post_order_within(phi, lambda sub: name in sub._free):
        kind = type(f)
        if kind is Atom:
            memo[f] = _POS
            continue
        pols = [memo.get(sub, 0) for sub in immediate_subformulas(f)]
        if kind is Neg or kind is Implies:
            pols[0] = _FLIPPED[pols[0]]
        out = 0
        for pol in pols:
            out |= pol
        memo[f] = out | _FLIPPED[out] if kind is Iff else out
    return memo[phi]


def positive_in(phi: Formula, name: str) -> bool:
    """True iff every free occurrence of ``name`` in ``phi`` sits under an
    even number of negations, counting the expansions of derived forms."""
    return not _polarities(phi, name) & _NEG


def post_order(phi: Formula) -> list[Formula]:
    """The distinct nodes of ``phi``, each after its immediate subformulas,
    found without recursion."""
    return _post_order_within(phi, None)


def _post_order_within(phi: Formula, enter) -> list[Formula]:
    """``post_order(phi)`` cut down to ``phi`` and the nodes that pass
    ``enter`` and are reached through such nodes only; with ``enter`` None,
    all of it."""
    order: list[Formula] = []
    seen = {phi}
    stack = [(phi, iter(immediate_subformulas(phi)))]
    while stack:
        f, subs = stack[-1]
        for sub in subs:
            if sub not in seen and (enter is None or enter(sub)):
                seen.add(sub)
                stack.append((sub, iter(immediate_subformulas(sub))))
                break
        else:
            stack.pop()
            order.append(f)
    return order


_NO_NAMES: frozenset[str] = frozenset()


def free_atoms(phi: Formula) -> frozenset[str]:
    """The names that occur free in ``phi``.  Each node keeps its own once
    they are found, as it keeps its sort key, so a later call visits only
    the nodes that no call has visited yet."""
    try:
        return phi._free
    except AttributeError:
        pass
    for f in _post_order_within(phi, lambda sub: not hasattr(sub, "_free")):
        if type(f) is Atom:
            names = frozenset((f.name,))
        else:
            names = _NO_NAMES
            for sub in immediate_subformulas(f):
                # most children mention no name: skip the empty unions
                if sub._free:
                    names = names | sub._free if names else sub._free
            if type(f) in _BINDERS and f.var in names:
                names = names - {f.var}
        object.__setattr__(f, "_free", names)
    return phi._free


def all_names(phi: Formula) -> frozenset[str]:
    """Every identifier occurring in ``phi``, free or bound, binders included."""
    names = set()
    for f in post_order(phi):
        kind = type(f)
        if kind is Atom:
            names.add(f.name)
        elif kind in _BINDERS:
            names.add(f.var)
    return frozenset(names)


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
    by a binder of ``phi`` over a free occurrence of ``name``: the first
    such binder depth first and left to right, outer before inner.  Only
    the subformulas where ``name`` is free are visited, each distinct one
    once.  No other error can arise: the occurrences of a bound variable
    change only where ``psi`` mentions it free, and that is a capture.
    """
    if name not in free_atoms(phi):
        return phi
    psi_free = free_atoms(psi)

    def enter(f: Formula) -> bool:
        # free_atoms(phi) gave every node below phi its free names
        if name not in f._free:
            return False
        if type(f) in _BINDERS and f.var in psi_free:
            raise CaptureError(f.var)
        return True

    # the walk passes every node but phi through enter; a node it does not
    # enter is kept as it is
    enter(phi)
    done: dict[Formula, Formula] = {}
    for f in _post_order_within(phi, enter):
        subs = [done.get(sub, sub) for sub in immediate_subformulas(f)]
        done[f] = psi if type(f) is Atom else rebuild(f, subs)
    return done[phi]


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


class _Record:
    """An immutable record: the base of every record class of the package,
    its results, structures and models.  A class body lists its fields as
    annotations, in order, with an optional class-level default.  The
    record takes them by position or by name, then runs ``__post_init__``;
    it compares, hashes, prints and matches field by field, and refuses
    assignment and deletion, as a frozen dataclass does.  It is no
    dataclass, so ``dataclasses.replace``, ``fields`` and ``asdict``
    refuse it; a call of its class remakes one."""

    def __init_subclass__(cls):
        # the class's own annotations; a class attribute that reads as
        # missing (a descriptor without a class default) leaves a field required
        cls.__match_args__ = names = tuple(cls.__annotations__)
        cls._defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}

    def __init__(self, *args, **named):
        names = self.__match_args__
        if named or len(args) != len(names):  # fields by keyword or by default
            given = dict(zip(names, args))
            values = self._defaults | given | named
            if len(args) > len(names) or given.keys() & named or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
            args = map(values.__getitem__, names)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        _frozen("assign to", name)

    def __delattr__(self, name):
        _frozen("delete", name)


class ClosureSet(_Record):
    """A finite formula set closed under immediate subformulas."""

    formulas: frozenset[Formula] = frozenset()

    def __post_init__(self):
        formulas = frozenset(self.formulas)
        object.__setattr__(self, "formulas", formulas)
        lost = [(s, f) for f in formulas for s in immediate_subformulas(f) if s not in formulas]
        if lost:
            # a frozenset has no order, so name the least missing subformula
            # and the least member it is missing from
            sub = min((s for s, _ in lost), key=_sort_key)
            f = min((f for s, f in lost if s is sub), key=_sort_key)
            raise FormulaError(
                f"closure set misses {_sort_key(sub)}, a subformula of {_sort_key(f)}"
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
    return ClosureSet(frozenset().union(*map(post_order, roots)))


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
        # sorting two or more members cached each one's printed form alone,
        # which is how it prints here; a lone member is not sorted
        keyed = len(f.members) > 1
        out = ["<t>{" if kind is Tangle else "<dt>{"]
        for m in f.members:
            out += (m._text if keyed else (m, 0, True), ", ")
        out[-1] = "}"
        return out
    op, lvl, assoc = _BINARY[kind]
    left = (f.left, lvl if assoc == "left" else lvl + 1, False)
    right = (f.right, lvl + 1 if assoc == "left" else lvl, rightmost)
    text = (left, f" {op} ", right)
    return text if lvl >= need else ("(", *text, ")")


def _fold_layout(phi: Formula, measure, join):
    """Fold the printed form of ``phi`` over its printing contexts, children
    first and without recursion: a text piece counts as ``measure(piece)``,
    and a context as ``join`` of its pieces' values.  Each context is laid
    out once, so shared subformulas cost one layout each."""
    root = (phi, 0, True)
    memo: dict[tuple, object] = {}
    stack: list[tuple] = [(root, None)]
    while stack:
        ctx, pieces = stack.pop()
        if pieces is not None:
            memo[ctx] = join([memo[p] if type(p) is tuple else measure(p) for p in pieces])
        elif ctx not in memo:
            pieces = _layout(*ctx)
            stack.append((ctx, pieces))
            stack += [(p, None) for p in pieces if type(p) is tuple and p not in memo]
    return memo[root]


def pretty(phi: Formula) -> str:
    """Print with minimal parentheses; ``parse(pretty(phi)) is phi``.  Each
    node is printed once per context, so shared subformulas cost one
    layout each."""
    return _fold_layout(phi, str, "".join)


def printed_length(phi: Formula) -> int:
    """``len(pretty(phi))``, counted without printing: once per node and
    context, so it takes time linear in the distinct nodes even where the
    printed text is exponentially longer."""
    return _fold_layout(phi, len, sum)


# ---------------------------------------------------------------------------
# Parser

#: Deepest nesting :func:`parse` accepts: at no point may more than this
#: many parentheses, tangle braces, prefix operators, binders and operators
#: still waiting for their right operand be open at once.
MAX_DEPTH = 1000

_KEYWORDS = {"mu", "nu", "true", "false", "A", "E"}
_SYMBOLS = (
    "<->", "<dt>", "<d>", "<t>", "<>", "[d]", "[]", "->",
    "~", "&", "|", "(", ")", "{", "}", ",", ".",
)

# An atom, a symbol, or any other visible character, which is a bad one;
# whitespace only separates tokens.  The symbols are those of _SYMBOLS,
# grouped by their first character, which scans faster than one
# alternative each.  No token holds a parenthesis but one alone.
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[~&|(){},.]|<(?:->|dt>|d>|t>|>)|\[d?\]|->|\S")
_HEAD = re.compile(r"\([^()]*")  # a group's head: its text up to the next parenthesis
_ATOM_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# every token that is not an atom; "" ends the text
_RESERVED = frozenset((*_SYMBOLS, *_KEYWORDS, ""))

_PREFIX = {text.strip(): kind for kind, text in _PREFIX_TOKEN.items()}
_INFIX = {sym: (kind, level) for kind, (sym, level, _) in _BINARY.items()}

# tags of the parser's frames that are not operators
_BINDER_TAG = 0
_PAREN_TAG = -1
_TANGLE_TAG = -2


def _position(text: str, start: int, i: int) -> int:
    """Where the ``i``-th token from ``start`` in ``text`` starts, or the
    end of ``text`` past the last."""
    m = next(itertools.islice(_TOKEN.finditer(text, start), i, None), None)
    return len(text) if m is None else m.start()


def _expected(what: str, text: str, start: int, toks: list[str], i: int) -> ParseError:
    return ParseError(f"expected {what}, found {toks[i] or 'end of input'!r}", _position(text, start, i))


def parse(text: str) -> Formula:
    """The formula ``text`` spells, by the grammar in the module docstring.

    One loop builds the formula over an explicit stack of open frames.  It
    tokenizes the text one stretch at a time, up to the next parenthesis.
    A parenthesized group parses the same way wherever it stands, so each
    distinct group is parsed once: at a "(", the groups already closed
    under the same head (the text up to the next parenthesis) are compared
    with the text in place, newest first, and a repeat is skipped with no
    tokens made for it.  A bad character is reported before any grammar
    error; input nested deeper than :data:`MAX_DEPTH` raises
    ``FormulaError("formula nested too deeply")``.
    """
    return _parse(text, members=False)


def parse_members(text: str) -> tuple[Formula, ...]:
    """The members, in canonical order, of the tangle member set ``text``:
    formulas separated by commas, either bare or in one pair of braces
    with nothing after them.  Errors are reported as :func:`parse` reports
    them, at positions in ``text``."""
    return _parse(text, members=True)


def _parse(text: str, members: bool):
    try:
        return _parse_text(text, members)
    except FormulaError as exc:
        error = exc
    # the parse read only part of the text, so look for a bad character in all of it
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok not in _RESERVED and tok[0] not in _ATOM_START:
            raise ParseError(f"unexpected character {tok!r}", m.start())
    raise error


def _parse_text(text: str, members: bool):
    # Open frames are (tag, kind, arg).  An operator waiting for its operand
    # is tagged with its level, so a prefix (at _LEVEL_PREFIX, arg None)
    # binds tighter than any binary operator (arg its left operand) and a
    # binder (arg its variable), whose body reaches as far right as it can,
    # looser.  A parenthesis frame holds its group's head, its start and the
    # outer value of ``high``; a tangle frame its kind and members so far.
    # A member set's root frame has kind None when it ends with the text.
    stack: list[tuple] = []
    # Each head -> its newest ``keep`` closed groups, newest first: their
    # text, node and the deepest stack each reached, counted from below its
    # "(".  A group is skipped only where its whole text stands, and a
    # balanced group is no proper prefix of another, so the match is exact.
    groups: dict[str, deque[tuple[str, Formula, int]]] = {}
    keep = len(text).bit_length()  # so a "(" compares O(log n) groups
    # characters of group text the memo may still keep: a group's text holds
    # its children's, so keeping all of it would cost the text times its depth
    spare = 4 * len(text)
    names: dict[str, Atom] = {}  # each atom parsed so far, by name
    high = 0  # the deepest stack since the innermost open "(" was pushed
    node = None  # the operand just completed, if any
    pos = 0  # where the next stretch starts
    if members:
        # one open tangle frame from the start: it closes at the brace that
        # matches a leading one, or else at the end of the text
        first = _TOKEN.search(text)
        if first is not None and first.group() == "{":
            second = _TOKEN.search(text, first.end())
            if second is not None and second.group() == "}":
                raise ParseError("empty tangle braces", second.start())
            stack.append((_TANGLE_TAG, Tangle, []))
            pos = first.end()
        else:
            stack.append((_TANGLE_TAG, None, []))
    while True:
        if high > MAX_DEPTH:
            raise FormulaError("formula nested too deeply")
        # a stretch: the tokens from pos through the next "(", at ``at``, or
        # through the end of the text, which "" stands for
        at = text.find("(", pos)
        if at < 0:
            toks = _TOKEN.findall(text, pos)
            toks.append("")
        else:
            toks = _TOKEN.findall(text, pos, at + 1)
        start, shut, i = pos, pos, 0  # the k-th ")" token is the k-th ")" from ``shut``
        while True:
            tok = toks[i]
            i += 1
            if node is None:  # an operand starts at tok
                if tok not in _RESERVED:
                    node = names.get(tok)
                    if node is None:
                        if tok[0] not in _ATOM_START:
                            raise ParseError(f"unexpected character {tok!r}", _position(text, start, i - 1))
                        node = names[tok] = Atom(tok)
                    continue
                if tok in _PREFIX:
                    stack.append((_LEVEL_PREFIX, _PREFIX[tok], None))
                elif tok == "(":
                    head = _HEAD.match(text, at).group()
                    for key, hit, height in groups.get(head, ()):
                        if text.startswith(key, at):
                            node = hit
                            high, pos = max(high, height + len(stack)), at + len(key)
                            break
                    else:
                        stack.append((_PAREN_TAG, head, (at, high)))
                        high, pos = len(stack), at + 1
                    break
                elif tok == "<t>" or tok == "<dt>":
                    if toks[i] != "{":
                        raise _expected("LBRACE", text, start, toks, i)
                    if toks[i + 1] == "}":
                        raise ParseError("empty tangle braces", _position(text, start, i + 1))
                    stack.append((_TANGLE_TAG, Tangle if tok == "<t>" else TangleD, []))
                    i += 1
                elif tok == "mu" or tok == "nu":
                    var = toks[i]
                    if var in _RESERVED or var[0] not in _ATOM_START:
                        raise _expected("ATOM", text, start, toks, i)
                    if toks[i + 1] != ".":
                        raise _expected("DOT", text, start, toks, i + 1)
                    stack.append((_BINDER_TAG, Mu if tok == "mu" else Nu, var))
                    i += 2
                elif tok == "true":
                    node = Top()
                    continue
                elif tok == "false":
                    node = Bot()
                    continue
                else:
                    raise ParseError(f"unexpected {tok or 'end of input'!r}", _position(text, start, i - 1))
            elif tok in _INFIX:
                # close the operators that bind tighter, then wait for the right operand
                kind, level = _INFIX[tok]
                while stack:
                    tag, op, arg = stack[-1]
                    if not (tag > level or tag == level >= _LEVEL_OR):
                        break
                    stack.pop()
                    node = op(node) if arg is None else op(arg, node)
                stack.append((level, kind, node))
                node = None
            else:
                # tok ends a formula: close every operator and binder still open in it
                while stack and stack[-1][0] >= _BINDER_TAG:
                    _, op, arg = stack.pop()
                    node = op(node) if arg is None else op(arg, node)
                if not stack:
                    if tok:
                        raise ParseError(f"trailing input {tok!r}", _position(text, start, i - 1))
                    return node
                if stack[-1][0] == _PAREN_TAG:
                    if tok != ")":
                        raise _expected("RPAREN", text, start, toks, i - 1)
                    _, head, (opened, outer_high) = stack.pop()
                    shut = text.find(")", shut) + 1
                    if shut - opened <= spare:
                        spare -= shut - opened
                        closed = (text[opened:shut], node, high - len(stack))
                        groups.setdefault(head, deque((), keep)).appendleft(closed)
                    high = max(high, outer_high)
                    continue
                _, kind, members_so_far = stack[-1]
                if tok == ",":
                    members_so_far.append(node)
                    node = None
                elif tok == ("}" if kind else ""):
                    stack.pop()
                    members_so_far.append(node)
                    if stack or not members:
                        node = kind(tuple(members_so_far))
                    elif kind is not None and toks[i]:  # a braced set, then more
                        raise ParseError(f"trailing input {toks[i]!r}", _position(text, start, i))
                    else:
                        return Tangle(members_so_far).members
                else:
                    raise _expected("RBRACE" if kind else "COMMA", text, start, toks, i - 1)
                continue
            if len(stack) > high:
                high = len(stack)
                if high > MAX_DEPTH:
                    raise FormulaError("formula nested too deeply")
