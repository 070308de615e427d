"""Finite Kripke frames and models, and the modal/tangle/fixpoint checker.

Worlds are opaque strings; their order in ``Frame.worlds`` is the canonical
order used by every deterministic construction in the package.  Extensions
are computed internally as integer bitmasks over that order.

A tangle is its greatest fixpoint: ``<t>{D}`` is ``nu q.`` the
conjunction of ``<>(d & q)`` over the members ``d`` of ``D``, and
``<dt>{D}`` is the same with ``<d>``, whose relation a topological space
sets to its punctured neighbourhoods.  The compiler emits each tangle as
that loop, which takes about one round per level of the cluster order.
Tangles are defined on transitive frames only; elsewhere a program with
one raises :class:`NonTransitiveError` before it runs.

:class:`Evaluator` compiles formulas into a flat program over their
distinct subformulas (:func:`compile_formulas`) and runs that program per
valuation as a loop without recursion.  Inside a fixpoint only the
subformulas that mention the bound variable run again each round.
:meth:`Evaluator.run_block` runs the same program bitsliced, over a block
of valuations at once: each slot holds one int per world, with one bit per
valuation.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import cache, cached_property, lru_cache, reduce
from itertools import chain, compress, filterfalse, repeat, takewhile
from operator import or_

from .formula import (
    And,
    Atom,
    Box,
    BoxD,
    Dia,
    DiaD,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Neg,
    Nu,
    Or,
    Tangle,
    TangleD,
    Top,
    _BINDERS,
    _Record,
    free_atoms,
    immediate_subformulas,
)


class NonTransitiveError(ValueError):
    """An operation that presupposes a transitive relation got something else."""


# The searches of ``logics`` run on the evaluator below.  Their budgets and
# the error that ends them live here, so the command line names them without
# loading ``logics``.


class BudgetExceededError(RuntimeError):
    """The search was cut off before it could finish; the question is open."""


#: Valuation budget for ``frame_validates``: at most this many valuations.
VALUATION_BUDGET = 1 << 22
#: Work budget for ``bounded_sat``: at most this many frame/valuation pairs.
SEARCH_BUDGET = 1 << 21


class _Pairs:
    """A relation field that reads as a frozenset of pairs.  It keeps the
    pairs it was given; a :class:`Frame` given instead, or the frame itself
    when none was, stands for its rows, spelled out as pairs on first read."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            # no class default, so a record field of this kind is required
            raise AttributeError(self.name)
        cache = obj.__dict__
        pairs = cache.get(self.name, obj)
        if isinstance(pairs, Frame):
            pairs = cache[self.name] = frozenset(_row_pairs(pairs.worlds, pairs.succ))
        return pairs

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


class Frame(_Record):
    """Worlds in canonical order plus the relation as successor rows:
    ``succ[i]`` has bit ``j`` set iff world ``i`` sees world ``j``.

    Frames compare and hash on ``worlds`` and ``succ``.  ``rel`` is the
    relation as a set of pairs, kept when the frame is built from pairs and
    spelled out on first read when it is built from rows.  The rest of the
    relation index (``index``, ``pred``, ``transitive``, ``cluster_masks``)
    is cached on the instance, so analyses of the same frame object share
    it; ``cluster_masks`` reads only ``succ``.
    """

    worlds: tuple[str, ...]
    rel: frozenset[tuple[str, str]] = _Pairs()

    def __post_init__(self):
        given = self.__dict__["rel"]
        unordered = isinstance(given, (frozenset, set))
        pairs = given if unordered else tuple(given)
        worlds = _checked_worlds(self.worlds)
        # Given a sequence, rows of the entries before the first one that is
        # not a pair, so that the first bad entry of either kind is the one
        # named.  A set has no order: rows of all its pairs, and the stray
        # pair, or else the entry that is not a pair, with the least repr.
        bit, succ, stray = _relation_rows(
            worlds, [*(filter if unordered else takewhile)(_is_pair, pairs)], _itself
        )
        if stray and unordered:
            stray = _relation_rows(worlds, sorted(filter(_is_pair, pairs), key=repr), _itself)[2]
        if stray:
            raise ValueError(f"relation pair {stray} outside the world set")
        bad = filterfalse(_is_pair, pairs)
        for entry in sorted(bad, key=repr) if unordered else bad:
            raise ValueError(f"relation entry {entry!r} is not a pair")
        self.__dict__.update(worlds=worlds, rel=frozenset(pairs), succ=succ, _bit=bit)

    @classmethod
    def from_rows(cls, worlds: Iterable[str], succ: Iterable[int]) -> Frame:
        """The frame where world ``i`` sees world ``j`` iff bit ``j`` of
        ``succ[i]`` is set."""
        worlds, succ = _checked_worlds(worlds), tuple(succ)
        n = len(worlds)
        if len(succ) != n or any(row >> n for row in succ):
            raise ValueError("successor rows do not fit the world set")
        frame = object.__new__(cls)
        frame.__dict__.update(worlds=worlds, succ=succ)
        return frame

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.worlds == other.worlds and self.succ == other.succ

    def __hash__(self):
        return hash((self.worlds, self.succ))

    @cached_property
    def index(self) -> dict[str, int]:
        """Position of each world in ``worlds``."""
        return {w: i for i, w in enumerate(self.worlds)}

    @cached_property
    def pred(self) -> tuple[int, ...]:
        """``pred[j]`` has bit ``i`` set iff world ``i`` sees world ``j``."""
        # the worlds that have a row see each of its set bits: one pass per
        # distinct row, so the work follows the pairs, not the worlds squared
        pred = [0] * len(self.succ)
        for row, owners in _row_owners(self.succ).items():
            for j in _bits(row):
                pred[j] |= owners
        return tuple(pred)

    @cached_property
    def transitive(self) -> bool:
        succ = self.succ
        # worlds with the same successors pass or fail together
        return all(_union(succ, row) & ~row == 0 for row in set(succ))

    @cached_property
    def cluster_masks(self) -> tuple[int, ...]:
        """World masks of the clusters of a transitive frame, by first world:
        each holds the worlds with one up-set, their successors and themselves."""
        if not self.transitive:
            raise NonTransitiveError("cluster decomposition needs a transitive relation")
        return tuple(_row_owners([row | 1 << i for i, row in enumerate(self.succ)]).values())

    @cached_property
    def _bit(self) -> dict[str, int]:
        return {w: 1 << i for i, w in enumerate(self.worlds)}

    def mask(self, worlds: Iterable[str]) -> int:
        return reduce(or_, map(self._bit.__getitem__, worlds), 0)

    def unmask(self, mask: int) -> frozenset[str]:
        return frozenset(_picked(self.worlds, mask))

    def successors(self, w: str) -> frozenset[str]:
        return self.unmask(self.succ[self.index[w]])


def _collection(value: Iterable, what: str) -> Iterable:
    """``value``, refused if it is a string, which would read as a
    collection of its characters."""
    if isinstance(value, str):
        raise ValueError(f"{what} must be a collection, not the string {value!r}")
    return value


def _checked_worlds(worlds: Iterable[str]) -> tuple[str, ...]:
    worlds = tuple(_collection(worlds, "worlds"))
    if not worlds:
        raise ValueError("a frame needs at least one world")
    if len(set(worlds)) != len(worlds):
        raise ValueError("duplicate world ids")
    return worlds


def _is_pair(entry) -> bool:
    return isinstance(entry, tuple) and len(entry) == 2


def _itself(x):
    return x


def _relation_rows(worlds: tuple[str, ...], pairs: Sequence, name: Callable) -> tuple:
    """The bit of each of ``worlds`` by name, the successor rows of the
    ``pairs`` between them, each member read as ``name(member)``, and the
    first pair so read, in the given order, that names another world (None
    if there is none).  ``pairs`` is read a second time when it holds
    anything but pairs of world names."""
    bit = {w: 1 << i for i, w in enumerate(worlds)}
    rows = dict.fromkeys(worlds, 0)
    try:
        # pairs of world names, as a model file holds them: no call and no
        # position lookup per member
        for u, v in pairs:
            rows[u] |= bit[v]
    except (KeyError, TypeError, ValueError):
        # another member, or an entry that is not a pair: start again and
        # read each member through ``name``, so that the first stray pair is
        # named and a bad entry raises as it is met
        rows = dict.fromkeys(worlds, 0)
        stray = None
        for (u, v) in pairs:
            u, v = name(u), name(v)
            if u in rows and v in bit:
                rows[u] |= bit[v]
            else:
                stray = stray or (u, v)
        return bit, tuple(rows.values()), stray
    return bit, tuple(rows.values()), None


def _row_owners(values: Iterable) -> dict:
    """Each distinct one of ``values``, with the mask of the positions that
    hold it, in first-position order."""
    owners: dict = {}
    for i, value in enumerate(values):
        owners[value] = owners.get(value, 0) | 1 << i
    return owners


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# The two helpers below decode a whole mask at once, reading its binary
# digits with byte operations in C; ``_bits`` costs a step per set bit.
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _picked(items: Sequence, mask: int) -> Iterator:
    """``items[i]`` for each set bit ``i`` of ``mask`` below ``len(items)``,
    lowest first."""
    # one selector byte per bit, lowest first: 1 where the bit is set
    return compress(items, bin(mask)[:1:-1].encode().translate(_DIGITS))


def _columns(rows: Sequence[int], n: int) -> tuple[int, ...]:
    """Column ``j`` of the bit matrix ``rows`` has bit ``i`` set iff bit ``j``
    of ``rows[i]`` is, for each ``j`` below ``n``, which bounds every row."""
    # the digits of each row, lowest first, and of the last row first:
    # column j, highest bit first, is every n-th digit from the j-th
    grid = b"".join([bin(row)[:1:-1].encode().ljust(n, b"0") for row in reversed(rows)])
    return tuple([int(grid[j::n] or b"0", 2) for j in range(n)])


def _union(rows: Sequence[int], mask: int) -> int:
    """OR of ``rows[i]`` over the set bits ``i`` of ``mask``."""
    return reduce(or_, _picked(rows, mask), 0)


def _row_pairs(worlds: Sequence[str], rows: Sequence[int]) -> Iterator[tuple[str, str]]:
    """``(worlds[i], worlds[j])`` for each set bit ``j`` of each ``rows[i]``,
    ordered by ``i`` and then ``j``."""
    return chain.from_iterable(zip(repeat(u), _picked(worlds, row)) for u, row in zip(worlds, rows))


def _transitive_rows(succ: Sequence[int]) -> list[int]:
    """Successor rows of the transitive closure."""
    rows = list(succ)
    # a row that takes in its successors' rows doubles the path length it
    # covers; nothing changes once the relation is transitive
    changed = True
    while changed:
        changed = False
        for i, row in enumerate(rows):
            wider = row | _union(rows, row)
            if wider != row:
                rows[i] = wider
                changed = True
    return rows


class _Valued(_Record):
    """A structure plus a valuation of its elements.  A subclass declares
    the structure as its first field and ``val`` as its second, and names
    the elements by ``_elements`` and their kind, for messages, by
    ``_NOUN``.  Atoms absent from ``val``, or true nowhere, are false
    everywhere, and take no part in equality."""

    def __post_init__(self):
        scope = set(self._elements)
        val = {}
        for atom, elements in self.val.items():
            found = val[atom] = frozenset(_collection(elements, f"valuation of '{atom}'"))
            if not found <= scope:
                raise ValueError(f"valuation of '{atom}' mentions unknown {self._NOUN}")
        object.__setattr__(self, "val", val)

    def _values(self) -> tuple:
        structure, val = super()._values()
        return structure, frozenset((a, s) for a, s in val.items() if s)

    def __repr__(self):
        return f"{type(self).__name__}({self._NOUN}={len(self._elements)}, atoms={sorted(self.val)})"


class KripkeModel(_Valued):
    """A frame plus a valuation of its worlds."""

    frame: Frame
    val: Mapping[str, Iterable[str]]
    _NOUN = "worlds"
    _elements = property(lambda self: self.frame.worlds)


# ---------------------------------------------------------------------------
# Relation analysis


class RelationProperties(_Record):
    reflexive: bool
    transitive: bool
    serial: bool


def relation_properties(frame: Frame) -> RelationProperties:
    succ = frame.succ
    reflexive = all(row >> i & 1 for i, row in enumerate(succ))
    return RelationProperties(reflexive, frame.transitive, all(succ))


class Closures(_Record):
    transitive: Frame
    reflexive_transitive: Frame


def closures(frame: Frame) -> Closures:
    rows = _transitive_rows(frame.succ)
    return Closures(
        Frame.from_rows(frame.worlds, rows),
        Frame.from_rows(frame.worlds, (row | 1 << i for i, row in enumerate(rows))),
    )


class ClusterDecomposition(_Record):
    """Partition of a transitive frame into clusters.

    ``clusters[i]`` lists the member worlds; ``degenerate[i]`` flags the
    singleton irreflexive clusters; ``order`` holds the strict
    reachability pairs between cluster indices; ``rank[i]`` counts the
    clusters on the longest chain starting at cluster ``i`` (maximal
    clusters have rank 1).
    """

    clusters: tuple[frozenset[str], ...]
    degenerate: tuple[bool, ...]
    order: frozenset[tuple[int, int]]
    rank: tuple[int, ...]


def _first(mask: int) -> int:
    """Position of the lowest set bit of ``mask``."""
    return (mask & -mask).bit_length() - 1


def _maximal_clusters(frame: Frame) -> list[tuple[int, int]]:
    """The maximal clusters of a transitive frame, as (position among its
    clusters, world mask) pairs."""
    return [
        (c, mask) for c, mask in enumerate(frame.cluster_masks)
        if not frame.succ[_first(mask)] & ~mask
    ]


def cluster_decomposition(frame: Frame) -> ClusterDecomposition:
    masks = frame.cluster_masks
    succ = frame.succ
    # under transitivity every member of a cluster sees the same worlds, so
    # the first member speaks for the cluster
    firsts = list(map(_first, masks))
    assigned = [0] * len(succ)
    for c, mask in enumerate(masks):
        for i in _bits(mask):
            assigned[i] = c
    later = [set(_picked(assigned, succ[f] & ~m)) for f, m in zip(firsts, masks)]
    # a strictly later cluster sees strictly fewer worlds counting its own,
    # so ascending by that count every later cluster is ranked first
    rank = [0] * len(masks)
    for c in sorted(
        range(len(masks)), key=lambda c: (succ[firsts[c]] | masks[c]).bit_count()
    ):
        rank[c] = 1 + max((rank[d] for d in later[c]), default=0)
    return ClusterDecomposition(
        clusters=tuple(frame.unmask(m) for m in masks),
        degenerate=tuple(not succ[f] & m for f, m in zip(firsts, masks)),
        order=frozenset((c, d) for c, ds in enumerate(later) for d in ds),
        rank=tuple(rank),
    )


def _components(frame: Frame, mask: int) -> list[int]:
    """Connected components of the symmetrised relation restricted to the
    worlds of ``mask``, as masks ordered by first world."""
    succ, pred = frame.succ, frame.pred
    out: list[int] = []
    rest = mask
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reached = _union(succ, frontier) | _union(pred, frontier)
            frontier = reached & rest & ~comp
            comp |= frontier
        out.append(comp)
        rest &= ~comp
    return out


def path_components(frame: Frame) -> tuple[frozenset[str], ...]:
    """Partition of the worlds into zigzag-connectivity components."""
    everything = (1 << len(frame.worlds)) - 1
    return tuple(frame.unmask(c) for c in _components(frame, everything))


def _local_components(frame: Frame) -> Iterator[tuple[int, list[int]]]:
    """Each distinct nonempty successor set, in first-world order, with its
    path components, where the connecting paths must stay inside that set."""
    # a set that holds one of the worlds whose set it is forms one
    # component: that world sees every member
    return (
        (row, [row] if row & owners else _components(frame, row))
        for row, owners in _row_owners(frame.succ).items()
        if row
    )


def locally_n_connected(frame: Frame, n: int) -> bool:
    """Every successor set splits into at most ``n`` path components, where
    the connecting paths must stay inside the successor set.  An empty
    successor set has zero components and never violates the bound."""
    return all(len(comps) <= n for _, comps in _local_components(frame))


def min_local_connectedness(frame: Frame) -> int:
    """Least ``n >= 1`` such that the frame is locally n-connected."""
    return max((len(comps) for _, comps in _local_components(frame)), default=1)


# ---------------------------------------------------------------------------
# Model checking


# Opcodes of a compiled program.  An instruction is ``(op, out, a, b)``: it
# writes slot ``out`` from the slots or constants ``a`` and ``b``.  A
# relation operand selects ``succ`` (0) or ``dsucc`` (1).
(_ATOM, _TOP, _NOT, _AND, _OR, _IMP, _IFF, _BOX, _DIA, _ALL, _EX, _FIX,
 _LOOP) = range(13)

_BINARY_OPS = {And: _AND, Or: _OR, Implies: _IMP, Iff: _IFF}
_UNARY_OPS = {Neg: (_NOT, 0), Box: (_BOX, 0), BoxD: (_BOX, 1), Dia: (_DIA, 0),
              DiaD: (_DIA, 1), Forall: (_ALL, 0), Exists: (_EX, 0)}


class Program(_Record):
    """Formulas compiled for :meth:`Evaluator.run`: one instruction per
    distinct subformula and binding of its free fixpoint variables,
    children first; ``roots`` are the slots of the compiled formulas.

    A fixpoint is a loop between a ``_FIX`` instruction, which starts the
    bound variable's slot at nothing or everything, and a ``_LOOP``
    instruction, which jumps back until the body's slot equals it.  Only
    the subformulas that mention the bound variable sit inside the loop;
    the others come before it and run once.  A tangle is such a loop too,
    a greatest one, and ``tangled`` says whether the program has one.
    """

    code: tuple[tuple, ...]
    size: int
    roots: tuple[int, ...]
    tangled: bool = False


def _instruction(f: Formula, out: int, args: list[int]) -> list[tuple]:
    """The instruction that computes ``f`` into slot ``out`` from its
    children's slots, in a list; an empty one for Bot, whose slot starts empty."""
    kind = type(f)
    if kind is Atom:
        return [(_ATOM, out, f.name, 0)]
    if kind is Top:
        return [(_TOP, out, 0, 0)]
    if kind in _BINARY_OPS:
        return [(_BINARY_OPS[kind], out, *args)]
    if kind in _UNARY_OPS:
        op, rel = _UNARY_OPS[kind]
        return [(op, out, args[0], rel)]
    return []


def _tangle_body(members: list[int], q: int, rel: int) -> list[tuple]:
    """The loop body of ``nu q.`` the conjunction of ``<>(m & q)`` over the
    member slots ``members``, through relation operand ``rel``, where the
    loop holds ``q`` at slot ``q`` and its round count after it.  The last
    instruction computes the body."""
    code, out = [], q + 2
    for m in members:
        code += [(_AND, out, m, q), (_DIA, out + 1, out, rel)]
        out += 2
    body = q + 3
    for step in range(q + 5, out, 2):
        code.append((_AND, out, body, step))
        body, out = out, out + 1
    return code


def _loop(code: list[tuple], var: int, nu: bool, body: list[tuple], result: int) -> None:
    """Append to ``code`` the loop of slot ``var`` round ``body``, whose value
    is in slot ``result``, with the body's length in its ``_LOOP``."""
    code.append((_FIX, var, nu, var + 1))
    code += body
    code.append((_LOOP, var, result, (var + 1, len(body))))


# tasks of the compiler's work stack
_VISIT, _EMIT = range(2)


def compile_formulas(roots: Sequence[Formula]) -> Program:
    """Compile ``roots`` into one program, without recursion, so formulas
    of any depth compile.

    A compiled node's context is the innermost binder that binds one of
    its free names where it occurs, or none.  Binders take their slots in
    the order they are visited, so the innermost is the one with the
    largest slot.  All occurrences of a node in the same context share one
    instruction, which goes into that binder's loop, or before every loop
    if there is none.  Each node's free names are those :func:`free_atoms`
    keeps on it.  A tangle compiles as the greatest fixpoint loop of
    :func:`_tangle_body`; its members mention no name the loop binds, so
    they run before it.
    """
    roots = tuple(roots)
    for root in roots:
        free_atoms(root)
    # The instructions of the top level (key None) and of each open loop body
    # (key: its binder's slot); a loop goes whole into its context's as it closes.
    blocks: dict[int | None, list[tuple]] = {None: []}
    table: dict[tuple, int] = {}  # (context, node) -> slot
    done: list[int] = []  # the slot of each node visited, after its children's
    size = 0
    tangled = False

    # A task's ``where`` is, for a visit, its scope, which binds names to
    # binder slots, and for an emit, its node's context.  A binder takes
    # its slots at its visit, and its emit task carries them.
    stack: list[tuple] = [(_VISIT, f, {}, None) for f in reversed(roots)]
    while stack:
        task, f, where, slot = stack.pop()
        if task == _VISIT:
            # the innermost binder of f's free names: the largest slot
            dep = max([where[n] for n in f._free if n in where], default=None) if where else None
            slot = table.get((dep, f))
            if slot is not None:
                done.append(slot)
                continue
            kind = type(f)
            if kind is Atom and f.name in where:
                done.append(where[f.name])
            elif kind in _BINDERS:
                # two slots: the bound variable, which ends as the result,
                # and the loop's round count
                blocks[size] = []
                stack += [(_EMIT, f, dep, size), (_VISIT, f.body, {**where, f.var: size}, None)]
                size += 2
            else:
                stack.append((_EMIT, f, dep, None))
                stack += [(_VISIT, g, where, None) for g in reversed(immediate_subformulas(f))]
            continue
        # f computes into slot, in the loop of its context
        if slot is not None:
            _loop(blocks[where], slot, type(f) is Nu, blocks.pop(slot), done.pop())
        else:
            cut = len(done) - len(immediate_subformulas(f))
            args = done[cut:]
            del done[cut:]
            slot = size
            if type(f) is Tangle or type(f) is TangleD:
                tangled = True
                body = _tangle_body(args, slot, int(type(f) is TangleD))
                _loop(blocks[where], slot, True, body, body[-1][1])
                size = body[-1][1] + 1
            else:
                blocks[where] += _instruction(f, slot, args)
                size += 1
        table[where, f] = slot
        done.append(slot)

    # each _LOOP holds its body's length: make it the jump back to the body's start
    code = blocks[None]
    for pc, (op, var, result, back) in enumerate(code):
        if op == _LOOP:
            code[pc] = (op, var, result, (back[0], pc - back[1]))
    return Program(tuple(code), size, tuple(done), tangled)


class Evaluator:
    """Bitmask evaluator over a fixed frame.

    Build once per frame, then query :meth:`extension` with different
    valuations; the frame's relation index is reused, and each call
    compiles its formulas afresh.  ``rels`` holds the two
    relations by operand: the plain modalities and ``<t>`` read the frame's
    successor masks ``succ`` (0), the d-modalities and ``<dt>`` read
    ``dsucc`` (1), which defaults to the same masks.  A topological space
    passes its punctured neighbourhoods there.
    """

    succ = property(lambda self: self.rels[0])
    dsucc = property(lambda self: self.rels[1])

    def __init__(self, frame: Frame, dsucc: tuple[int, ...] | None = None):
        self.frame = frame
        self.n = len(frame.worlds)
        self.full = (1 << self.n) - 1
        self.rels = (frame.succ, frame.succ if dsucc is None else dsucc)

    @cached_property
    def _successors(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """Each world's successors, per relation operand, built once when
        both relations are the same."""
        succ, dsucc = self.rels
        made = list(map(_bit_tuple, succ))
        return made, made if dsucc is succ else list(map(_bit_tuple, dsucc))

    # -- sets <-> masks ---------------------------------------------------

    def valuation_masks(self, val: Mapping[str, Iterable[str]]) -> dict[str, int]:
        return {atom: self.frame.mask(ws) for atom, ws in val.items()}

    # -- modal operators --------------------------------------------------

    def dia(self, s: int, succ: tuple[int, ...]) -> int:
        """Worlds with a ``succ``-successor in ``s``."""
        out = 0
        for i, row in enumerate(succ):
            if row & s:
                out |= 1 << i
        return out

    def box(self, s: int, succ: tuple[int, ...]) -> int:
        """Worlds whose ``succ``-successors all lie in ``s``."""
        return self.full & ~self.dia(self.full & ~s, succ)

    # -- evaluation -------------------------------------------------------

    def extension(self, phi: Formula, val: Mapping[str, int]) -> int:
        return self.extensions((phi,), val)[0]

    def extensions(self, phis: Sequence[Formula], val: Mapping[str, int]) -> list[int]:
        """The extension of each of ``phis``, sharing their subformulas."""
        return self.run(compile_formulas(phis), val)

    def _guard(self, program: Program) -> None:
        """Refuse a program with a tangle on a frame that is not transitive."""
        if program.tangled and not self.frame.transitive:
            raise NonTransitiveError("tangle formulas require a transitive frame")

    def run(self, program: Program, val: Mapping[str, int]) -> list[int]:
        """Run a compiled program under ``val``; the extensions of its roots."""
        self._guard(program)
        full = self.full
        rels = self.rels
        get = val.get
        slots = [0] * program.size
        code = program.code
        pc, end = 0, len(code)
        while pc < end:
            op, out, a, b = code[pc]
            pc += 1
            if op == _AND:
                slots[out] = slots[a] & slots[b]
            elif op == _ATOM:
                slots[out] = get(a, 0)
            elif op == _DIA:
                slots[out] = self.dia(slots[a], rels[b])
            elif op == _BOX:
                slots[out] = self.box(slots[a], rels[b])
            elif op == _NOT:
                slots[out] = full & ~slots[a]
            elif op == _OR:
                slots[out] = slots[a] | slots[b]
            elif op == _IMP:
                slots[out] = (full & ~slots[a]) | slots[b]
            elif op == _IFF:
                slots[out] = full & ~(slots[a] ^ slots[b])
            elif op == _ALL:
                slots[out] = full if slots[a] == full else 0
            elif op == _EX:
                slots[out] = full if slots[a] else 0
            elif op == _TOP:
                slots[out] = full
            elif op == _FIX:
                slots[out] = full if a else 0
                slots[b] = 0
            else:
                # _LOOP: the body's value is in slot a.  Positive bodies are
                # monotone, so over n points the iteration settles within
                # n+1 rounds; more means something is broken.
                step = slots[a]
                if step != slots[out]:
                    rounds_slot, pc = b
                    rounds = slots[rounds_slot] + 1
                    if rounds == self.n + 2:
                        raise RuntimeError("fixpoint iteration failed to stabilize")
                    slots[rounds_slot] = rounds
                    slots[out] = step
        return [slots[r] for r in program.roots]

    def run_block(
        self, program: Program, atoms: Sequence[str], start: int, size: int
    ) -> list[list[int]]:
        """Run a compiled program under ``size`` valuations at once.

        Valuation ``v`` gives the ``k``-th of ``atoms`` the world mask in
        bits ``(len(atoms) - 1 - k) * n`` up of ``v``, so the first atom
        varies slowest.  The block holds valuations ``start`` to ``start +
        size - 1``, where ``size`` is a power of two dividing ``start``.  A
        slot holds one int per world, whose bit ``v - start`` is the truth
        there under valuation ``v``; the result is the roots' slots.  Every
        bit follows the iteration :meth:`run` makes for its valuation, so a
        fixpoint loops as often as the block's slowest valuation needs, under
        the same cap.
        """
        self._guard(program)
        n = self.n
        full = (1 << size) - 1
        width = size.bit_length() - 1
        last = len(atoms) - 1
        val = {
            atom: [
                _valuation_bit(bit, width) if bit < width else full * (start >> bit & 1)
                for bit in range((last - k) * n, (last - k + 1) * n)
            ]
            for k, atom in enumerate(atoms)
        }
        ones, zeros = [full] * n, [0] * n
        slots: list = [zeros] * program.size
        code = program.code
        pc, end = 0, len(code)
        while pc < end:
            op, out, a, b = code[pc]
            pc += 1
            if op == _AND:
                slots[out] = [x & y for x, y in zip(slots[a], slots[b])]
            elif op == _ATOM:
                slots[out] = val.get(a, zeros)
            elif op == _DIA or op == _BOX:
                # where a successor holds s; a box is the dual
                s = slots[a] if op == _DIA else [full ^ x for x in slots[a]]
                seen = self._dia_block(s, b)
                slots[out] = seen if op == _DIA else [full ^ x for x in seen]
            elif op == _NOT:
                slots[out] = [full ^ x for x in slots[a]]
            elif op == _OR:
                slots[out] = [x | y for x, y in zip(slots[a], slots[b])]
            elif op == _IMP:
                slots[out] = [full ^ x | y for x, y in zip(slots[a], slots[b])]
            elif op == _IFF:
                slots[out] = [full ^ x ^ y for x, y in zip(slots[a], slots[b])]
            elif op == _ALL or op == _EX:
                acc = full if op == _ALL else 0
                for x in slots[a]:
                    acc = acc & x if op == _ALL else acc | x
                slots[out] = [acc] * n
            elif op == _TOP:
                slots[out] = ones
            elif op == _FIX:
                slots[out] = ones if a else zeros
                slots[b] = 0
            else:  # _LOOP, as in run: until every valuation has settled
                step = slots[a]
                if step != slots[out]:
                    rounds_slot, pc = b
                    rounds = slots[rounds_slot] + 1
                    if rounds == n + 2:
                        raise RuntimeError("fixpoint iteration failed to stabilize")
                    slots[rounds_slot] = rounds
                    slots[out] = step
        return [slots[r] for r in program.roots]

    def _dia_block(self, s: list[int], rel: int) -> list[int]:
        """Per world, the OR of ``s`` over its successors through ``rel``."""
        out = []
        for js in self._successors[rel]:
            acc = 0
            for j in js:
                acc |= s[j]
            out.append(acc)
        return out


@lru_cache(maxsize=1024)
def _bit_tuple(mask: int) -> tuple[int, ...]:
    """``tuple(_bits(mask))``, remembered for the rows of small frames."""
    return tuple(_bits(mask))


@cache
def _valuation_bit(bit: int, width: int) -> int:
    """Bit ``bit`` of the numbers ``0 .. 2**width - 1``, one per bit of the
    result: alternating runs of ``2**bit`` zeros and ones, built by
    doubling."""
    run = 1 << bit
    out, span = ((1 << run) - 1) << run, run << 1
    while span < 1 << width:
        out |= out << span
        span <<= 1
    return out


def model_check(model: KripkeModel, phi: Formula) -> frozenset[str]:
    """Worlds of ``model`` satisfying ``phi``."""
    ev = Evaluator(model.frame)
    return model.frame.unmask(ev.extension(phi, ev.valuation_masks(model.val)))


def generated_submodel(model: KripkeModel, root: str) -> KripkeModel:
    """Restriction to the worlds reachable from ``root`` (root included).

    The global quantifier afterwards ranges over the submodel only.
    """
    frame = model.frame
    reach = frontier = 1 << frame.index[root]
    while frontier:
        frontier = _union(frame.succ, frontier) & ~reach
        reach |= frontier
    worlds = tuple(_picked(frame.worlds, reach))
    keep = frozenset(worlds)
    # reach is closed under successors, so each kept row's bits only move
    # to the positions of the kept worlds
    bit = {j: 1 << k for k, j in enumerate(_bits(reach))}
    rows = [sum(map(bit.__getitem__, _bits(row))) for row in _picked(frame.succ, reach)]
    val = {a: ws & keep for a, ws in model.val.items()}
    return KripkeModel(Frame.from_rows(worlds, rows), val)


# ---------------------------------------------------------------------------
# Serialization


def model_to_dict(model: KripkeModel) -> dict:
    order = model.frame.index
    return {
        "worlds": list(model.frame.worlds),
        "rel": list(map(list, _row_pairs(model.frame.worlds, model.frame.succ))),
        "val": {
            a: sorted(ws, key=order.get)
            for a, ws in sorted(model.val.items())
            if ws
        },
    }


def _listed(value, *, nested: bool = False):
    """``value``, which the data format has as a list, and when ``nested``
    as a list of lists.  A string or an object is refused in those places:
    iterating it would split it into characters or read its keys."""
    if nested and not isinstance(value, (str, Mapping)):
        # by exact type, in C: a large frame has many pairs
        if not {str, dict}.isdisjoint(map(type, value)):
            value = next(v for v in value if type(v) in (str, dict))
    if isinstance(value, (str, Mapping)):
        kind = "string" if isinstance(value, str) else "object"
        raise TypeError(f"expected a list, got the {kind} {value!r}")
    return value


def _valuation_data(data: Mapping) -> dict[str, list[str]]:
    """The ``val`` entry of a model's or a space's data, as strings."""
    return {str(a): [str(w) for w in _listed(ws)] for a, ws in data.get("val", {}).items()}


def model_from_dict(data: Mapping) -> KripkeModel:
    """The model ``data`` describes; its frame's ``succ`` comes from one pass
    over the pairs, and ``index`` and ``pred`` are built when read."""
    try:
        worlds = tuple(str(w) for w in _listed(data["worlds"]))
        bit, succ, stray = _relation_rows(worlds, _listed(data["rel"], nested=True), str)
        val = _valuation_data(data)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model data: {exc}") from exc
    frame = Frame.from_rows(worlds, succ)
    if stray:
        raise ValueError(f"relation pair {stray} outside the world set")
    frame.__dict__["_bit"] = bit
    return KripkeModel(frame, val)


_RANK_COLORS = [
    "#cfe8ff",
    "#d8f5d3",
    "#ffe9c7",
    "#f5d3e0",
    "#e3d9f7",
    "#f7f3c9",
    "#d3f0f2",
]


def _dot_quoted(text: str) -> str:
    """``text`` as a DOT quoted string that reads back as ``text``.  DOT
    reads ``\\"`` as a quote and drops a backslash before a newline, and
    every other character stands for itself; so a backslash that ends the
    text or comes before a newline is followed by such a dropped pair."""
    return '"' + re.sub(r"\\(?=\n|\Z)", r"\\\\\n", text).replace('"', '\\"') + '"'


def to_dot(model_or_frame: KripkeModel | Frame) -> str:
    """Graphviz digraph; on transitive frames clusters become same-rank
    groups filled by rank."""
    if isinstance(model_or_frame, KripkeModel):
        frame = model_or_frame.frame
        val = model_or_frame.val
    else:
        frame = model_or_frame
        val = {}
    ids = {w: _dot_quoted(w) for w in frame.worlds}
    labels = {}
    for w in frame.worlds:
        atoms = sorted(a for a, ws in val.items() if w in ws)
        # graphviz reads escapes such as \n in a label, so the backslashes
        # of names and atoms are doubled
        text = [w, ", ".join(atoms)] if atoms else [w]
        labels[w] = _dot_quoted("\\n".join(t.replace("\\", "\\\\") for t in text))
    lines = ["digraph model {", "  node [shape=ellipse, style=filled];"]
    if frame.transitive:
        dec = cluster_decomposition(frame)
        for i, cluster in enumerate(dec.clusters):
            color = _RANK_COLORS[(dec.rank[i] - 1) % len(_RANK_COLORS)]
            members = sorted(cluster, key=frame.index.get)
            lines.append(f"  subgraph cluster_{i} {{")
            lines.append(f'    label="rank {dec.rank[i]}"; rank=same;')
            for w in members:
                lines.append(f'    {ids[w]} [label={labels[w]}, fillcolor="{color}"];')
            lines.append("  }")
    else:
        for w in frame.worlds:
            lines.append(f'  {ids[w]} [label={labels[w]}, fillcolor="#eeeeee"];')
    lines.extend(f"  {ids[u]} -> {ids[v]};" for u, v in _row_pairs(frame.worlds, frame.succ))
    lines.append("}")
    return "\n".join(lines)
