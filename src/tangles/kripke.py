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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .formula import (
    And,
    Atom,
    Bot,
    Box,
    BoxD,
    Dia,
    DiaD,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Mu,
    Neg,
    Nu,
    Or,
    Tangle,
    TangleD,
    Top,
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
    """

    worlds: tuple[str, ...]
    rel: frozenset[tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "worlds", tuple(self.worlds))
        object.__setattr__(self, "rel", frozenset(self.rel))
        if not self.worlds:
            raise ValueError("a frame needs at least one world")
        if len(set(self.worlds)) != len(self.worlds):
            raise ValueError("duplicate world ids")
        scope = set(self.worlds)
        for pair in self.rel:
            if pair[0] not in scope or pair[1] not in scope:
                raise ValueError(f"relation pair {pair} outside the world set")

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
        pred = [0] * len(self.worlds)
        for i, row in enumerate(self.succ):
            for j in _bits(row):
                pred[j] |= 1 << i
        return tuple(pred)

    @cached_property
    def transitive(self) -> bool:
        succ = self.succ
        return all(succ[j] & ~row == 0 for row in succ for j in _bits(row))

    def mask(self, worlds: Iterable[str]) -> int:
        index = self.index
        m = 0
        for w in worlds:
            m |= 1 << index[w]
        return m

    def unmask(self, mask: int) -> frozenset[str]:
        return frozenset(self.worlds[i] for i in _bits(mask))

    def successors(self, w: str) -> frozenset[str]:
        return self.unmask(self.succ[self.index[w]])


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class KripkeModel:
    """A frame plus a valuation.  Atoms absent from ``val`` are false
    everywhere.  Instances are value-compared and treated as immutable."""

    __slots__ = ("frame", "val")

    def __init__(self, frame: Frame, val: Mapping[str, Iterable[str]]):
        scope = set(frame.worlds)
        clean: dict[str, frozenset[str]] = {}
        for atom, worlds in val.items():
            ws = frozenset(worlds)
            if not ws <= scope:
                raise ValueError(f"valuation of '{atom}' mentions unknown worlds")
            clean[atom] = ws
        self.frame = frame
        self.val = clean

    def __eq__(self, other) -> bool:
        if not isinstance(other, KripkeModel):
            return NotImplemented
        mine = {a: s for a, s in self.val.items() if s}
        theirs = {a: s for a, s in other.val.items() if s}
        return self.frame == other.frame and mine == theirs

    def __hash__(self):
        return hash((self.frame, frozenset((a, s) for a, s in self.val.items() if s)))

    def __repr__(self):
        return f"KripkeModel(worlds={len(self.frame.worlds)}, atoms={sorted(self.val)})"


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
    worlds = frame.worlds
    succ = list(frame.succ)
    # Warshall: after round k, paths through worlds 0..k are shortcut
    for k in range(len(succ)):
        bit, row = 1 << k, succ[k]
        for i, other in enumerate(succ):
            if other & bit:
                succ[i] = other | row
    trans_pairs = frozenset(
        (worlds[i], worlds[j]) for i, row in enumerate(succ) for j in _bits(row)
    )
    refl_pairs = trans_pairs | frozenset((w, w) for w in worlds)
    return Closures(Frame(worlds, trans_pairs), Frame(worlds, refl_pairs))


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


def cluster_decomposition(frame: Frame) -> ClusterDecomposition:
    if not frame.transitive:
        raise NonTransitiveError("cluster decomposition needs a transitive relation")
    succ = frame.succ
    masks = _cluster_masks(frame)
    # under transitivity every member of a cluster sees the same worlds, so
    # the first member speaks for the cluster
    firsts = [(m & -m).bit_length() - 1 for m in masks]
    assigned = [0] * len(succ)
    for c, mask in enumerate(masks):
        for i in _bits(mask):
            assigned[i] = c
    later = [
        {assigned[j] for j in _bits(succ[first] & ~mask)}
        for first, mask in zip(firsts, masks)
    ]
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
            reached = 0
            for i in _bits(frontier):
                reached |= succ[i] | pred[i]
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
    return (len(_components(frame, row)) for row in frame.succ if row)


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


class Evaluator:
    """Bitmask evaluator over a fixed frame.

    Build once per frame, then query :meth:`extension` with different
    valuations; the frame's relation index and clusters are reused.  The
    plain modalities and ``<t>`` read the frame's successor masks; the
    d-modalities and ``<dt>`` read ``dsucc``, which defaults to the same
    masks.  A topological space passes its punctured neighbourhoods there.
    """

    def __init__(self, frame: Frame, dsucc: tuple[int, ...] | None = None):
        self.frame = frame
        self.worlds = frame.worlds
        self.n = len(frame.worlds)
        self.full = (1 << self.n) - 1
        self.index = frame.index
        self.succ = frame.succ
        self.dsucc = self.succ if dsucc is None else dsucc
        self._rows: dict[int, list[tuple[int, set[int]]]] = {}

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
        if isinstance(phi, Atom):
            return val.get(phi.name, 0)
        if isinstance(phi, Top):
            return self.full
        if isinstance(phi, Bot):
            return 0
        if isinstance(phi, Neg):
            return self.full & ~self.extension(phi.sub, val)
        if isinstance(phi, And):
            return self.extension(phi.left, val) & self.extension(phi.right, val)
        if isinstance(phi, Or):
            return self.extension(phi.left, val) | self.extension(phi.right, val)
        if isinstance(phi, Implies):
            return (self.full & ~self.extension(phi.left, val)) | self.extension(
                phi.right, val
            )
        if isinstance(phi, Iff):
            a = self.extension(phi.left, val)
            b = self.extension(phi.right, val)
            return self.full & ~(a ^ b)
        if isinstance(phi, Box):
            return self.box(self.extension(phi.sub, val), self.succ)
        if isinstance(phi, BoxD):
            return self.box(self.extension(phi.sub, val), self.dsucc)
        if isinstance(phi, Dia):
            return self.dia(self.extension(phi.sub, val), self.succ)
        if isinstance(phi, DiaD):
            return self.dia(self.extension(phi.sub, val), self.dsucc)
        if isinstance(phi, Forall):
            return self.full if self.extension(phi.sub, val) == self.full else 0
        if isinstance(phi, Exists):
            return self.full if self.extension(phi.sub, val) else 0
        if isinstance(phi, Tangle):
            return self._tangle(phi.members, val, self.succ)
        if isinstance(phi, TangleD):
            return self._tangle(phi.members, val, self.dsucc)
        if isinstance(phi, Mu):
            return _fixpoint(self, phi, val, 0)
        if isinstance(phi, Nu):
            return _fixpoint(self, phi, val, self.full)
        raise TypeError(f"not a formula: {phi!r}")

    def _tangle(
        self, members: tuple[Formula, ...], val: Mapping[str, int], succ: tuple[int, ...]
    ) -> int:
        if not self.frame.transitive:
            raise NonTransitiveError(
                "tangle formulas require a transitive frame"
            )
        masks = [self.extension(m, val) for m in members]
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


def _fixpoint(ev, phi: Mu | Nu, val: Mapping[str, int], current: int) -> int:
    """Iterate the body of ``phi`` from ``current``: nothing for a least
    fixpoint, everything for a greatest one.  Positive bodies are monotone,
    so over n points the iteration settles within n+1 rounds."""
    for _ in range(ev.n + 2):
        step = ev.extension(phi.body, {**val, phi.var: current})
        if step == current:
            return current
        current = step
    raise RuntimeError("fixpoint iteration failed to stabilize")


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
    start = ev.index[world]

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
        reached = 0
        for i in _bits(frontier):
            reached |= frame.succ[i]
        frontier = reached & ~reach
        reach |= frontier
    keep = frame.unmask(reach)
    worlds = tuple(w for w in frame.worlds if w in keep)
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
        "rel": sorted([list(p) for p in model.frame.rel], key=lambda p: (order[p[0]], order[p[1]])),
        "val": {
            a: sorted(ws, key=order.get)
            for a, ws in sorted(model.val.items())
            if ws
        },
    }


def model_from_dict(data: Mapping) -> KripkeModel:
    try:
        worlds = tuple(str(w) for w in data["worlds"])
        rel = frozenset((str(u), str(v)) for (u, v) in data["rel"])
        val = {str(a): [str(w) for w in ws] for a, ws in data.get("val", {}).items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model data: {exc}") from exc
    return KripkeModel(Frame(worlds, rel), val)


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


def to_dot(model_or_frame: KripkeModel | Frame, name: str = "model") -> str:
    """Graphviz digraph; on transitive frames clusters become same-rank
    groups filled by rank."""
    if isinstance(model_or_frame, KripkeModel):
        frame = model_or_frame.frame
        val = model_or_frame.val
    else:
        frame = model_or_frame
        val = {}
    labels = {}
    for w in frame.worlds:
        atoms = sorted(a for a, ws in val.items() if w in ws)
        labels[w] = f"{w}\\n{', '.join(atoms)}" if atoms else w
    lines = [f"digraph {name} {{", "  node [shape=ellipse, style=filled];"]
    if frame.transitive:
        dec = cluster_decomposition(frame)
        for i, cluster in enumerate(dec.clusters):
            color = _RANK_COLORS[(dec.rank[i] - 1) % len(_RANK_COLORS)]
            members = sorted(cluster, key=frame.index.get)
            lines.append(f"  subgraph cluster_{i} {{")
            lines.append(f'    label="rank {dec.rank[i]}"; rank=same;')
            for w in members:
                lines.append(f'    "{w}" [label="{labels[w]}", fillcolor="{color}"];')
            lines.append("  }")
    else:
        for w in frame.worlds:
            lines.append(f'  "{w}" [label="{labels[w]}", fillcolor="#eeeeee"];')
    order = frame.index
    for (u, v) in sorted(frame.rel, key=lambda p: (order[p[0]], order[p[1]])):
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines)
