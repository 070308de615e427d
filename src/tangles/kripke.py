"""Finite Kripke frames and models, and the modal/tangle/fixpoint checker.

Worlds are opaque strings; their order in ``Frame.worlds`` is the canonical
order used by every deterministic construction in the package.  Extensions
are computed internally as integer bitmasks over that order.

On transitive frames the tangle modality is evaluated through the cluster
criterion: ``x`` satisfies ``<t>{D}`` iff some successor ``y`` of ``x`` lies
in a cluster each of whose worlds sees, inside the cluster, a world of every
member of ``D``.  With the frame's own relation that means the cluster is
non-degenerate and meets every member.  ``<dt>{D}`` applies the same
criterion to the relation of the d-modalities, which a topological space
sets to its punctured neighbourhoods.
A brute-force lasso oracle (:func:`tangle_oracle`) is kept alongside purely
for cross-validation; it never feeds the checker.

:class:`Evaluator` compiles formulas into a flat program over their
distinct subformulas (:func:`compile_formulas`) and runs that program per
valuation as a loop without recursion.  Inside a fixpoint only the
subformulas that mention the bound variable run again each round.
:meth:`Evaluator.run_block` runs the same program bitsliced, over a block
of valuations at once: each slot holds one int per world, with one bit per
valuation.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, reduce
from itertools import chain, compress, repeat
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence

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
    immediate_subformulas,
)


class NonTransitiveError(ValueError):
    """An operation that presupposes a transitive relation got something else."""


@dataclass(frozen=True)
class Frame:
    """Worlds in canonical order plus the relation as a set of pairs.

    The relation index (``index``, ``succ``, ``pred``, ``transitive``) is
    built from ``rel`` on first use and cached on the instance; it takes no
    part in equality, hashing or ``repr``.  Every structure analysis reads
    it, so analyses of the same frame object share one index.
    :meth:`from_rows` builds a frame from successor rows with the index
    already filled in; such a frame spells out ``rel`` on first use.
    """

    worlds: tuple[str, ...]
    rel: frozenset[tuple[str, str]]

    def __post_init__(self):
        worlds = tuple(self.worlds)
        # a set has no order to report the first stray pair in
        pairs = self.rel if isinstance(self.rel, (frozenset, set)) else tuple(self.rel)
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "rel", frozenset(pairs))
        _check_worlds(worlds)
        scope = set(worlds)
        for pair in pairs:
            if pair[0] not in scope or pair[1] not in scope:
                raise ValueError(f"relation pair {tuple(pair)} outside the world set")

    @classmethod
    def from_rows(cls, worlds: Iterable[str], succ: Iterable[int]) -> Frame:
        """The frame where world ``i`` sees world ``j`` iff bit ``j`` of
        ``succ[i]`` is set, with ``index`` and ``succ`` filled in."""
        worlds, succ = tuple(worlds), tuple(succ)
        _check_worlds(worlds)
        n = len(worlds)
        if len(succ) != n or any(row >> n for row in succ):
            raise ValueError("successor rows do not fit the world set")
        return cls._seeded(worlds, succ)

    @classmethod
    def _seeded(cls, worlds, succ, pred=None, index=None) -> Frame:
        """A frame of checked worlds and rows, with its index cached from
        the start and ``rel`` left to :meth:`__getattr__`."""
        frame = object.__new__(cls)
        cache = frame.__dict__
        cache.update(worlds=worlds, succ=succ)
        if pred is not None:
            cache["pred"] = pred
        if index is not None:
            cache["index"] = index
        return frame

    def __getattr__(self, name):
        # only reached when normal lookup fails: the pairs of a row-built
        # frame, which are made once they are asked for
        cache = self.__dict__
        if name != "rel" or "succ" not in cache:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rel = cache["rel"] = frozenset(_row_pairs(self.worlds, self.succ))
        return rel

    @cached_property
    def index(self) -> dict[str, int]:
        """Position of each world in ``worlds``."""
        return {w: i for i, w in enumerate(self.worlds)}

    @cached_property
    def succ(self) -> tuple[int, ...]:
        """``succ[i]`` has bit ``j`` set iff world ``i`` sees world ``j``."""
        index = self.index
        succ = [0] * len(self.worlds)
        for (u, v) in self.rel:
            succ[index[u]] |= 1 << index[v]
        return tuple(succ)

    @cached_property
    def pred(self) -> tuple[int, ...]:
        """``pred[j]`` has bit ``i`` set iff world ``i`` sees world ``j``."""
        return _columns(self.succ, len(self.succ))

    @cached_property
    def transitive(self) -> bool:
        succ = self.succ
        # worlds with the same successors pass or fail together
        return all(_union(succ, row) & ~row == 0 for row in set(succ))

    @cached_property
    def _bit(self) -> dict[str, int]:
        return {w: 1 << i for i, w in enumerate(self.worlds)}

    def mask(self, worlds: Iterable[str]) -> int:
        return reduce(or_, map(self._bit.__getitem__, worlds), 0)

    def unmask(self, mask: int) -> frozenset[str]:
        return frozenset(_picked(self.worlds, mask))

    def successors(self, w: str) -> frozenset[str]:
        return self.unmask(self.succ[self.index[w]])


def _check_worlds(worlds: tuple[str, ...]) -> None:
    if not worlds:
        raise ValueError("a frame needs at least one world")
    if len(set(worlds)) != len(worlds):
        raise ValueError("duplicate world ids")


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# Every mask is decoded by one of the two helpers below, which read its
# binary digits with byte operations in C.
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


class _Valued:
    """A structure plus a valuation of its elements.  A subclass keeps the
    structure in its own slot and names it by ``_structure``, its elements
    by ``_elements`` and their kind, for messages, by ``_NOUN``.  Atoms
    absent from ``val`` are false everywhere.  Instances are value-compared
    and treated as immutable."""

    __slots__ = ()

    def _set_val(self, val: Mapping[str, Iterable[str]]) -> None:
        scope = set(self._elements)
        self.val = {}
        for atom, elements in val.items():
            found = self.val[atom] = frozenset(elements)
            if not found <= scope:
                raise ValueError(f"valuation of '{atom}' mentions unknown {self._NOUN}")

    def _key(self) -> tuple:
        return self._structure, frozenset((a, s) for a, s in self.val.items() if s)

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if isinstance(other, type(self)) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}({self._NOUN}={len(self._elements)}, atoms={sorted(self.val)})"


class KripkeModel(_Valued):
    """A frame plus a valuation of its worlds."""

    __slots__ = ("frame", "val")
    _NOUN = "worlds"
    _structure = property(lambda self: self.frame)
    _elements = property(lambda self: self.frame.worlds)

    def __init__(self, frame: Frame, val: Mapping[str, Iterable[str]]):
        self.frame = frame
        self._set_val(val)


# ---------------------------------------------------------------------------
# Relation analysis


@dataclass(frozen=True)
class RelationProperties:
    reflexive: bool
    transitive: bool
    serial: bool


def relation_properties(frame: Frame) -> RelationProperties:
    succ = frame.succ
    reflexive = all(row >> i & 1 for i, row in enumerate(succ))
    return RelationProperties(reflexive, frame.transitive, all(succ))


@dataclass(frozen=True)
class Closures:
    transitive: Frame
    reflexive_transitive: Frame


def closures(frame: Frame) -> Closures:
    rows = _transitive_rows(frame.succ)
    return Closures(
        Frame.from_rows(frame.worlds, rows),
        Frame.from_rows(frame.worlds, (row | 1 << i for i, row in enumerate(rows))),
    )


@dataclass(frozen=True)
class ClusterDecomposition:
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

    def cluster_of(self, w: str) -> int:
        for i, c in enumerate(self.clusters):
            if w in c:
                return i
        raise KeyError(w)


def _cluster_masks(frame: Frame) -> list[int]:
    """World masks of the clusters of a transitive frame, by first world."""
    if not frame.transitive:
        raise NonTransitiveError("cluster decomposition needs a transitive relation")
    succ, pred = frame.succ, frame.pred
    masks: list[int] = []
    seen = 0
    for i, row in enumerate(succ):
        bit = 1 << i
        if not seen & bit:
            mask = row & pred[i] | bit
            seen |= mask
            masks.append(mask)
    return masks


def _first(mask: int) -> int:
    """Position of the lowest set bit of ``mask``."""
    return (mask & -mask).bit_length() - 1


def _maximal_clusters(frame: Frame) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """The maximal clusters of a transitive frame, as (position among its
    clusters, world mask) pairs, and per world the indices into that list
    of the clusters it wholly sees."""
    succ, pred = frame.succ, frame.pred
    maximal = [
        (c, mask) for c, mask in enumerate(_cluster_masks(frame))
        if not succ[_first(mask)] & ~mask
    ]
    seen: list[list[int]] = [[] for _ in frame.worlds]
    for k, (_, mask) in enumerate(maximal):
        # a world sees all of a cluster iff it sees its first world
        for i in _bits(pred[_first(mask)]):
            seen[i].append(k)
    return maximal, seen


def cluster_decomposition(frame: Frame) -> ClusterDecomposition:
    masks = _cluster_masks(frame)
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


def _local_component_counts(frame: Frame) -> Iterator[int]:
    """Per world with successors, the path components of its successor set,
    where the connecting paths must stay inside that set."""
    # worlds with the same successors have the same count
    return (len(_components(frame, row)) for row in set(frame.succ) if row)


def locally_n_connected(frame: Frame, n: int) -> bool:
    """Every successor set splits into at most ``n`` path components, where
    the connecting paths must stay inside the successor set.  An empty
    successor set has zero components and never violates the bound."""
    return all(count <= n for count in _local_component_counts(frame))


def min_local_connectedness(frame: Frame) -> int:
    """Least ``n >= 1`` such that the frame is locally n-connected."""
    return max(_local_component_counts(frame), default=1)


# ---------------------------------------------------------------------------
# Model checking


# Opcodes of a compiled program.  An instruction is ``(op, out, a, b)``: it
# writes slot ``out`` from the slots or constants ``a`` and ``b``.  A
# relation operand selects ``succ`` (0) or ``dsucc`` (1).
(_ATOM, _TOP, _NOT, _AND, _OR, _IMP, _IFF, _BOX, _DIA, _ALL, _EX, _TANGLE,
 _FIX, _LOOP) = range(14)

_BINARY_OPS = {And: _AND, Or: _OR, Implies: _IMP, Iff: _IFF}
_UNARY_OPS = {Neg: (_NOT, 0), Box: (_BOX, 0), BoxD: (_BOX, 1), Dia: (_DIA, 0),
              DiaD: (_DIA, 1), Forall: (_ALL, 0), Exists: (_EX, 0)}


@dataclass(frozen=True)
class Program:
    """Formulas compiled for :meth:`Evaluator.run`: one instruction per
    distinct subformula and binding of its free fixpoint variables,
    children first; ``roots`` are the slots of the compiled formulas.

    A fixpoint is a loop between a ``_FIX`` instruction, which starts the
    bound variable's slot at nothing or everything, and a ``_LOOP``
    instruction, which jumps back until the body's slot equals it.  Only
    the subformulas that mention the bound variable sit inside the loop;
    the others come before it and run once.
    """

    code: tuple[tuple, ...]
    size: int
    roots: tuple[int, ...]
    tangles: bool


def _instruction(f: Formula, out: int, args: list[int]) -> tuple | None:
    """The instruction that computes ``f`` into slot ``out`` from its
    children's slots; none for Bot, whose slot starts empty."""
    kind = type(f)
    if kind is Atom:
        return (_ATOM, out, f.name, 0)
    if kind is Top:
        return (_TOP, out, 0, 0)
    if kind in _BINARY_OPS:
        return (_BINARY_OPS[kind], out, *args)
    if kind in _UNARY_OPS:
        op, rel = _UNARY_OPS[kind]
        return (op, out, args[0], rel)
    if kind is Tangle or kind is TangleD:
        return (_TANGLE, out, tuple(args), int(kind is TangleD))
    return None


# tasks of the compiler's work stack
_VISIT, _EMIT, _CLOSE = range(3)
_EMPTY: frozenset = frozenset()


def compile_formulas(roots: Sequence[Formula]) -> Program:
    """Compile ``roots`` into one program, without recursion, so formulas
    of any depth compile.

    A compiled node depends on the binders that bind its free names where
    it occurs: their slots are its ``deps``.  All occurrences of a node with
    the same ``deps`` share one instruction, which goes into the loop of the
    innermost binder among them, or before every loop if there is none.
    """
    roots = tuple(roots)
    # The instructions of the top level (key None) and of each loop body
    # (key: the binder's slot), where ``(None, var, body, nu)`` stands for
    # the nested loop of the binder at ``var``.
    blocks: dict[int | None, list[tuple]] = {None: []}
    depth_of: dict[int, int] = {}  # binder slot -> how many loops enclose its body
    table: defaultdict[frozenset, dict[Formula, int]] = defaultdict(dict)  # deps -> node -> slot
    free: dict[Formula, frozenset[str]] = {}  # node -> free names, once compiled
    done: list[int] = []  # the slot of each node visited, after its children's
    size = 0

    def deps_of(names: frozenset[str], bindings: dict[str, int]) -> frozenset:
        return frozenset([bindings[n] for n in names if n in bindings]) if bindings else _EMPTY

    # A scope binds names to binder slots and has a loop depth.
    top: tuple[dict, int] = ({}, 0)
    stack: list[tuple] = [(_VISIT, f, top, None) for f in reversed(roots)]
    while stack:
        task, f, scope, slot = stack.pop()
        bindings, depth = scope
        if task == _VISIT:
            if f in free:
                slot = table[deps_of(free[f], bindings)].get(f)
                if slot is not None:
                    done.append(slot)
                    continue
            kind = type(f)
            if kind is Atom and f.name in bindings:
                free[f] = frozenset((f.name,))
                done.append(bindings[f.name])
            elif kind in _BINDERS:
                # two slots: the bound variable, which ends as the result,
                # and the loop's round count
                depth_of[size] = depth + 1
                blocks[size] = []
                inner = ({**bindings, f.var: size}, depth + 1)
                stack += [(_CLOSE, f, scope, size), (_VISIT, f.body, inner, None)]
                size += 2
            else:
                stack.append((_EMIT, f, scope, None))
                stack += [(_VISIT, g, scope, None) for g in reversed(immediate_subformulas(f))]
            continue
        if task == _EMIT:
            subs = immediate_subformulas(f)
            names = frozenset((f.name,)) if type(f) is Atom else _EMPTY
            for g in subs:
                # most children mention no name: skip the empty unions
                if free[g]:
                    names = names | free[g] if names else free[g]
            cut = len(done) - len(subs)
            ins = _instruction(f, size, done[cut:])
            del done[cut:]
            slot = size
            size += 1
        else:
            names = free[f.body] - {f.var}
            ins = (None, slot, done.pop(), type(f) is Nu)
        # f computes into slot, in the loop of its innermost binder
        free[f] = names
        deps = deps_of(names, bindings)
        if ins:
            blocks[max(deps, key=depth_of.get) if deps else None].append(ins)
        table[deps][f] = slot
        done.append(slot)

    # Lay the blocks out, each loop between its _FIX and its _LOOP.
    code: list[tuple] = []
    layout = [(iter(blocks[None]), None)]
    while layout:
        todo, loop = layout[-1]
        for ins in todo:
            if ins[0] is None:
                _, var, body, nu = ins
                code.append((_FIX, var, nu, var + 1))
                layout.append((iter(blocks[var]), (var, body, len(code))))
                break
            code.append(ins)
        else:
            layout.pop()
            if loop:
                var, body, start = loop
                code.append((_LOOP, var, body, (var + 1, start)))
    tangles = any(ins[0] == _TANGLE for ins in code)
    return Program(tuple(code), size, tuple(done), tangles)


class Evaluator:
    """Bitmask evaluator over a fixed frame.

    Build once per frame, then query :meth:`extension` with different
    valuations; the frame's relation index and clusters are reused, and
    each call compiles its formulas afresh.  The plain modalities and
    ``<t>`` read the frame's successor masks; the d-modalities and ``<dt>``
    read ``dsucc``, which defaults to the same masks.  A topological space
    passes its punctured neighbourhoods there.
    """

    def __init__(self, frame: Frame, dsucc: tuple[int, ...] | None = None):
        self.frame = frame
        self.n = len(frame.worlds)
        self.full = (1 << self.n) - 1
        self.succ = frame.succ
        self.dsucc = self.succ if dsucc is None else dsucc
        self._rows: dict[int, list[tuple[int, set[int]]]] = {}

    @cached_property
    def _pairs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """(worlds, successor mask) pairs of each relation, as run reads
        them: one pair per distinct mask, with the worlds that have it."""
        return _row_groups(self.succ), _row_groups(self.dsucc)

    @cached_property
    def _successors(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """Each world's successors through ``succ`` and through ``dsucc``."""
        succ = list(map(_bit_tuple, self.succ))
        return succ, succ if self.dsucc is self.succ else list(map(_bit_tuple, self.dsucc))

    # -- sets <-> masks ---------------------------------------------------

    def mask(self, worlds: Iterable[str]) -> int:
        return self.frame.mask(worlds)

    def unmask(self, mask: int) -> frozenset[str]:
        return self.frame.unmask(mask)

    def valuation_masks(self, val: Mapping[str, Iterable[str]]) -> dict[str, int]:
        return {atom: self.mask(ws) for atom, ws in val.items()}

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

    def run(self, program: Program, val: Mapping[str, int]) -> list[int]:
        """Run a compiled program under ``val``; the extensions of its roots."""
        if program.tangles and not self.frame.transitive:
            raise NonTransitiveError("tangle formulas require a transitive frame")
        full = self.full
        rels = self._pairs
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
            elif op == _DIA or op == _BOX:
                # the worlds with a successor in s; a box is the dual
                s = slots[a] if op == _DIA else full & ~slots[a]
                seen = 0
                for group, row in rels[b]:
                    if row & s:
                        seen |= group
                slots[out] = seen if op == _DIA else full & ~seen
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
            elif op == _TANGLE:
                slots[out] = self._tangle([slots[i] for i in a], self.dsucc if b else self.succ)
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
        if program.tangles and not self.frame.transitive:
            raise NonTransitiveError("tangle formulas require a transitive frame")
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
            elif op == _TANGLE:
                slots[out] = self._tangle_block([slots[i] for i in a], b, full)
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

    def _tangle_block(self, members: list[list[int]], rel: int, full: int) -> list[int]:
        """The tangle of ``members`` on a block: per valuation, a cluster is
        good when each of its rows meets every member, and the result is
        the diamond of the good clusters."""
        good = [0] * self.n
        for cluster, rows in self._cluster_rows(self.dsucc if rel else self.succ):
            bits = full
            for row in rows:
                js = _bit_tuple(row)
                for m in members:
                    meets = 0
                    for j in js:
                        meets |= m[j]
                    bits &= meets
            for i in _bits(cluster):
                good[i] = bits
        return self._dia_block(good, rel)

    def _dia_block(self, s: list[int], rel: int) -> list[int]:
        """Per world, the OR of ``s`` over its successors through ``rel``."""
        out = []
        for js in self._successors[rel]:
            acc = 0
            for j in js:
                acc |= s[j]
            out.append(acc)
        return out

    def _tangle(self, masks: list[int], succ: tuple[int, ...]) -> int:
        good = 0
        for cluster, rows in self._cluster_rows(succ):
            if all(row & mask for row in rows for mask in masks):
                good |= cluster
        return self.dia(good, succ)

    def _cluster_rows(self, succ: tuple[int, ...]) -> list[tuple[int, set[int]]]:
        """Each cluster of the frame with the distinct parts of it that its
        worlds see through ``succ``.  Clusters where some world sees nothing
        inside are left out: they carry no tangle."""
        # succ is self.succ or self.dsucc; both live as long as self
        key = id(succ)
        if key not in self._rows:
            found = []
            for cluster in _cluster_masks(self.frame):
                rows = {succ[i] & cluster for i in _bits(cluster)}
                if 0 not in rows:
                    found.append((cluster, rows))
            self._rows[key] = found
        return self._rows[key]


def _row_groups(rows: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Each distinct row with the mask of the positions that hold it."""
    groups: dict[int, int] = {}
    for i, row in enumerate(rows):
        groups[row] = groups.get(row, 0) | 1 << i
    return tuple((group, row) for row, group in groups.items())


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
    return ev.unmask(ev.extension(phi, ev.valuation_masks(model.val)))


def tangle_oracle(model: KripkeModel, world: str, members: Iterable[Formula]) -> bool:
    """Independent lasso check for the tangle clause at one world.

    Enumerates the simple cycles reachable from ``world`` and asks whether
    some cycle carries every member formula.  Exact on transitive frames;
    member formulas should themselves be tangle-free.
    """
    members = list(members)
    ev = Evaluator(model.frame)
    val = ev.valuation_masks(model.val)
    member_masks = [ev.extension(m, val) for m in members]
    n = ev.n
    start = model.frame.index[world]

    reach = 1 << start
    frontier = [start]
    while frontier:
        i = frontier.pop()
        new = ev.succ[i] & ~reach
        for j in range(n):
            if new & (1 << j):
                reach |= 1 << j
                frontier.append(j)

    # depth-first enumeration of simple cycles inside the reachable part;
    # each cycle is anchored at its least node to avoid rotations
    def cycle_masks(first: int, current: int, on_path: int):
        succ = ev.succ[current]
        if succ & (1 << first):
            yield on_path
        for j in range(first + 1, n):
            bit = 1 << j
            if succ & bit and not on_path & bit and reach & bit:
                yield from cycle_masks(first, j, on_path | bit)

    for first in range(n):
        if not reach & (1 << first):
            continue
        for cmask in cycle_masks(first, first, 1 << first):
            if all(mask & cmask for mask in member_masks):
                return True
    return False


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
    # keep is closed under successors: a pair starting in it ends in it
    rel = frozenset(p for p in frame.rel if p[0] in keep)
    val = {a: ws & keep for a, ws in model.val.items()}
    return KripkeModel(Frame(worlds, rel), val)


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
    """The model ``data`` describes; its frame's ``succ``, ``pred`` and
    ``index`` are built in the same pass over ``data["rel"]``."""
    try:
        worlds = tuple(str(w) for w in _listed(data["worlds"]))
        index = {w: i for i, w in enumerate(worlds)}
        bits = [1 << i for i in range(len(worlds))]
        succ = [0] * len(worlds)
        pred = [0] * len(worlds)
        stray = None  # the first pair outside the world set, in file order
        for (u, v) in _listed(data["rel"], nested=True):
            i, j = index.get(str(u)), index.get(str(v))
            if i is None or j is None:
                stray = stray or (str(u), str(v))
                continue
            succ[i] |= bits[j]
            pred[j] |= bits[i]
        val = _valuation_data(data)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model data: {exc}") from exc
    _check_worlds(worlds)
    if stray:
        raise ValueError(f"relation pair {stray} outside the world set")
    return KripkeModel(Frame._seeded(worlds, tuple(succ), tuple(pred), index), val)


def model_to_json(model: KripkeModel) -> str:
    return json.dumps(model_to_dict(model), indent=2, sort_keys=False)


def model_from_json(text: str) -> KripkeModel:
    return model_from_dict(json.loads(text))


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
