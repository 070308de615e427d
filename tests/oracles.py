"""Slow reference implementations that the fast paths are checked against.

``tree_extension`` is the recursive evaluator the compiled programs of
``kripke.Evaluator`` replaced: it walks the formula as a tree, evaluating a
shared subformula once per occurrence and a fixpoint body in full on every
round.  ``tree_frame_validates`` and ``tree_bounded_sat`` are the validity
sweep and the bounded search written on it, one valuation at a time, where
``logics`` sweeps blocks of valuations bitsliced.  ``tree_enumerate_frames``
is the frame enumeration with the canonicity test that builds each
relabeled matrix bit by bit, where ``logics`` relabels rows by table.

``tree_parse`` is the recursive-descent parser that ``formula.parse``
replaced: it tokenizes in a Python loop and descends through six levels of
calls for every node of the tree the text spells, repeats included.  Its
depth limit is Python's recursion limit.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterator, Mapping, Sequence

from tangles import (
    And,
    Atom,
    BudgetExceededError,
    Bot,
    Box,
    BoxD,
    Dia,
    DiaD,
    Evaluator,
    Exists,
    Forall,
    Formula,
    FormulaError,
    Frame,
    Iff,
    Implies,
    KripkeModel,
    Mu,
    Neg,
    NonTransitiveError,
    Nu,
    Or,
    ParseError,
    Tangle,
    TangleD,
    Top,
    ValidityReport,
    free_atoms,
    locally_n_connected,
    path_components,
)
from tangles.logics import SEARCH_BUDGET, VALUATION_BUDGET, _masks_to_val


def tree_extension(ev: Evaluator, phi: Formula, val: Mapping[str, int]) -> int:
    """The worlds of ``ev``'s frame where ``phi`` holds under ``val``."""
    if isinstance(phi, Atom):
        return val.get(phi.name, 0)
    if isinstance(phi, Top):
        return ev.full
    if isinstance(phi, Bot):
        return 0
    if isinstance(phi, Neg):
        return ev.full & ~tree_extension(ev, phi.sub, val)
    if isinstance(phi, And):
        return tree_extension(ev, phi.left, val) & tree_extension(ev, phi.right, val)
    if isinstance(phi, Or):
        return tree_extension(ev, phi.left, val) | tree_extension(ev, phi.right, val)
    if isinstance(phi, Implies):
        return (ev.full & ~tree_extension(ev, phi.left, val)) | tree_extension(
            ev, phi.right, val
        )
    if isinstance(phi, Iff):
        a = tree_extension(ev, phi.left, val)
        b = tree_extension(ev, phi.right, val)
        return ev.full & ~(a ^ b)
    if isinstance(phi, Box):
        return ev.box(tree_extension(ev, phi.sub, val), ev.succ)
    if isinstance(phi, BoxD):
        return ev.box(tree_extension(ev, phi.sub, val), ev.dsucc)
    if isinstance(phi, Dia):
        return ev.dia(tree_extension(ev, phi.sub, val), ev.succ)
    if isinstance(phi, DiaD):
        return ev.dia(tree_extension(ev, phi.sub, val), ev.dsucc)
    if isinstance(phi, Forall):
        return ev.full if tree_extension(ev, phi.sub, val) == ev.full else 0
    if isinstance(phi, Exists):
        return ev.full if tree_extension(ev, phi.sub, val) else 0
    if isinstance(phi, (Tangle, TangleD)):
        succ = ev.succ if isinstance(phi, Tangle) else ev.dsucc
        if not ev.frame.transitive:
            raise NonTransitiveError("tangle formulas require a transitive frame")
        masks = [tree_extension(ev, m, val) for m in phi.members]
        good = 0
        for cluster, rows in ev._cluster_rows(succ):
            if all(row & mask for row in rows for mask in masks):
                good |= cluster
        return ev.dia(good, succ)
    if isinstance(phi, (Mu, Nu)):
        current = 0 if isinstance(phi, Mu) else ev.full
        for _ in range(ev.n + 2):
            step = tree_extension(ev, phi.body, {**val, phi.var: current})
            if step == current:
                return current
            current = step
        raise RuntimeError("fixpoint iteration failed to stabilize")
    raise TypeError(f"not a formula: {phi!r}")


def valuation_masks(atoms: Sequence[str], n: int) -> Iterator[dict[str, int]]:
    # atom-major ascending: the first atom's mask varies slowest
    for combo in itertools.product(range(1 << n), repeat=len(atoms)):
        yield dict(zip(atoms, combo))


def tree_frame_validates(frame, phi: Formula, budget: int = VALUATION_BUDGET) -> ValidityReport:
    atoms = sorted(free_atoms(phi))
    n = len(frame.worlds)
    space = 1 << (len(atoms) * n)
    if space > budget:
        raise BudgetExceededError(f"{space} valuations exceed the budget of {budget}")
    ev = Evaluator(frame)
    checked = 0
    for masks in valuation_masks(atoms, n):
        checked += 1
        ext = tree_extension(ev, phi, masks)
        if ext != ev.full:
            bad = next(i for i in range(n) if not ext >> i & 1)
            return ValidityReport(
                valid=False,
                checked=checked,
                witness_valuation=_masks_to_val(masks, frame.worlds),
                witness_world=frame.worlds[bad],
            )
    return ValidityReport(valid=True, checked=checked)


def tree_bounded_sat(phi: Formula, profile, max_worlds: int, budget: int = SEARCH_BUDGET):
    atoms = sorted(free_atoms(phi))
    spent = 0
    for n in range(1, max_worlds + 1):
        per_frame = 1 << (len(atoms) * n)
        for frame in tree_enumerate_frames(
            n,
            serial=profile.serial,
            reflexive=profile.reflexive,
            connected=profile.connected,
            local_connectedness=profile.local_connectedness,
        ):
            spent += per_frame
            if spent > budget:
                raise BudgetExceededError(f"search budget {budget} exhausted on {n}-world frames")
            ev = Evaluator(frame)
            for masks in valuation_masks(atoms, n):
                if tree_extension(ev, phi, masks):
                    return KripkeModel(frame, _masks_to_val(masks, frame.worlds))
    return None


def _canonical(rows: Sequence[int], n: int) -> bool:
    """Is this adjacency matrix the lexicographically least among its
    relabelings?"""
    base = _matrix_key(rows, range(n), n)
    for perm in itertools.permutations(range(n)):
        if _matrix_key(rows, perm, n) < base:
            return False
    return True


def _matrix_key(rows: Sequence[int], perm: Sequence[int], n: int) -> int:
    key = 0
    for i in perm:
        for j in perm:
            key = key << 1 | rows[i] >> j & 1
    return key


def tree_enumerate_frames(
    n: int,
    *,
    serial: bool = False,
    reflexive: bool = False,
    connected: bool = False,
    local_connectedness: int | None = None,
    up_to_iso: bool = True,
) -> Iterator[Frame]:
    """``logics.enumerate_frames``, isomorphic duplicates dropped for
    n <= 4 by :func:`_canonical`."""
    if n < 1:
        raise ValueError("frame size must be at least 1")
    worlds = tuple(f"w{i}" for i in range(n))
    candidates = []
    for i in range(n):
        opts = range(1, 1 << n) if serial or reflexive else range(1 << n)
        if reflexive:
            opts = [m for m in opts if m >> i & 1]
        candidates.append(list(opts))
    rows: list[int] = []

    def consistent(m: int) -> bool:
        i = len(rows)
        for j in range(i):
            if m >> j & 1 and rows[j] & ~m:
                return False
            if rows[j] >> i & 1 and m & ~rows[j]:
                return False
        return True

    def search() -> Iterator[Frame]:
        if len(rows) == n:
            if up_to_iso and n <= 4 and not _canonical(rows, n):
                return
            rel = frozenset(
                (worlds[i], worlds[j])
                for i in range(n)
                for j in range(n)
                if rows[i] >> j & 1
            )
            frame = Frame(worlds, rel)
            if connected and len(path_components(frame)) > 1:
                return
            if local_connectedness is not None and not locally_n_connected(
                frame, local_connectedness
            ):
                return
            yield frame
            return
        for m in candidates[len(rows)]:
            if consistent(m):
                rows.append(m)
                yield from search()
                rows.pop()

    return search()


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

_PREFIX_KIND = {
    "NOT": Neg,
    "BOX": Box,
    "DIA": Dia,
    "BOXD": BoxD,
    "DIAD": DiaD,
    "A": Forall,
    "E": Exists,
}

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


def tree_parse(text: str) -> Formula:
    parser = _Parser(text)
    try:
        out = parser.formula()
    except RecursionError:
        raise FormulaError("formula nested too deeply") from None
    kind, value, pos = parser.peek()
    if kind != "EOF":
        raise ParseError(f"trailing input {value!r}", pos)
    return out
