"""Finite topological spaces and the topological reading of the language.

A space is given by its full family of open sets.  The box is interior, the
plain diamond is closure, ``<d>`` is the derivative (set of limit points),
and ``[d]`` its dual: ``[d]phi`` holds at ``x`` when some open neighbourhood
of ``x`` satisfies ``phi`` everywhere except possibly at ``x`` itself.

Both tangle modalities denote greatest fixpoints: ``<t>{D}`` is the largest
``S`` with ``S`` contained in the closure of every ``member-and-S``
intersection, and ``<dt>{D}`` is the same with the derivative in place of
closure.  They are computed by downward iteration from the full point set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping

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
from .kripke import Frame, NonTransitiveError, _fixpoint


class SpaceError(ValueError):
    """The proposed open family is not a topology."""


@dataclass(frozen=True)
class FiniteSpace:
    points: tuple[str, ...]
    opens: frozenset[frozenset[str]]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(
            self, "opens", frozenset(frozenset(o) for o in self.opens)
        )
        if len(set(self.points)) != len(self.points):
            raise SpaceError("duplicate point ids")
        everything = frozenset(self.points)
        for o in self.opens:
            if not o <= everything:
                raise SpaceError(f"open set {sorted(o)} not within the point set")
        if frozenset() not in self.opens:
            raise SpaceError("the empty set must be open")
        if everything not in self.opens:
            raise SpaceError("the whole point set must be open")
        opens = sorted(self.opens, key=lambda o: (len(o), sorted(o)))
        for i, a in enumerate(opens):
            for b in opens[i + 1 :]:
                if a | b not in self.opens:
                    raise SpaceError(
                        f"opens not closed under union: {sorted(a)} | {sorted(b)} is missing"
                    )
                if a & b not in self.opens:
                    raise SpaceError(
                        f"opens not closed under intersection: {sorted(a)} & {sorted(b)} is missing"
                    )


class TopoModel:
    """A finite space plus a valuation; absent atoms are false everywhere."""

    __slots__ = ("space", "val")

    def __init__(self, space: FiniteSpace, val: Mapping[str, Iterable[str]]):
        scope = set(space.points)
        clean: dict[str, frozenset[str]] = {}
        for atom, pts in val.items():
            ps = frozenset(pts)
            if not ps <= scope:
                raise ValueError(f"valuation of '{atom}' mentions unknown points")
            clean[atom] = ps
        self.space = space
        self.val = clean

    def __eq__(self, other) -> bool:
        if not isinstance(other, TopoModel):
            return NotImplemented
        mine = {a: s for a, s in self.val.items() if s}
        theirs = {a: s for a, s in other.val.items() if s}
        return self.space == other.space and mine == theirs

    def __hash__(self):
        return hash((self.space, frozenset((a, s) for a, s in self.val.items() if s)))

    def __repr__(self):
        return f"TopoModel(points={len(self.space.points)}, atoms={sorted(self.val)})"


class TopoEvaluator:
    """Bitmask set operators and formula evaluation over one space."""

    def __init__(self, space: FiniteSpace):
        self.space = space
        self.points = space.points
        self.n = len(space.points)
        self.full = (1 << self.n) - 1
        self.index = {p: i for i, p in enumerate(space.points)}
        self.opens = sorted(self.mask(o) for o in space.opens)

    def mask(self, points: Iterable[str]) -> int:
        m = 0
        for p in points:
            m |= 1 << self.index[p]
        return m

    def unmask(self, mask: int) -> frozenset[str]:
        return frozenset(p for i, p in enumerate(self.points) if mask & (1 << i))

    def valuation_masks(self, val: Mapping[str, Iterable[str]]) -> dict[str, int]:
        return {atom: self.mask(ps) for atom, ps in val.items()}

    # -- set operators ------------------------------------------------------

    def interior(self, s: int) -> int:
        out = 0
        for o in self.opens:
            if o & ~s == 0:
                out |= o
        return out

    def closure(self, s: int) -> int:
        return self.full & ~self.interior(self.full & ~s)

    def derivative(self, s: int) -> int:
        out = 0
        for i in range(self.n):
            bit = 1 << i
            if all(o & s & ~bit for o in self.opens if o & bit):
                out |= bit
        return out

    # -- formulas ------------------------------------------------------------

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
            return self.interior(self.extension(phi.sub, val))
        if isinstance(phi, Dia):
            return self.closure(self.extension(phi.sub, val))
        if isinstance(phi, DiaD):
            return self.derivative(self.extension(phi.sub, val))
        if isinstance(phi, BoxD):
            return self.full & ~self.derivative(
                self.full & ~self.extension(phi.sub, val)
            )
        if isinstance(phi, Forall):
            return self.full if self.extension(phi.sub, val) == self.full else 0
        if isinstance(phi, Exists):
            return self.full if self.extension(phi.sub, val) else 0
        if isinstance(phi, Tangle):
            return self._tangle(phi.members, val, self.closure)
        if isinstance(phi, TangleD):
            return self._tangle(phi.members, val, self.derivative)
        if isinstance(phi, Mu):
            return _fixpoint(self, phi, val, 0)
        if isinstance(phi, Nu):
            return _fixpoint(self, phi, val, self.full)
        raise TypeError(f"not a formula: {phi!r}")

    def _tangle(self, members, val: Mapping[str, int], op) -> int:
        masks = [self.extension(m, val) for m in members]
        current = self.full
        # downward iteration reaches the greatest fixpoint of a monotone map
        for _ in range(self.n + 2):
            step = self.full
            for m in masks:
                step &= op(m & current)
            if step == current:
                return current
            current = step
        raise RuntimeError("fixpoint iteration failed to stabilize")


@dataclass(frozen=True)
class SetOperators:
    interior: frozenset[str]
    closure: frozenset[str]
    derivative: frozenset[str]


def operators(space: FiniteSpace, subset: Iterable[str]) -> SetOperators:
    """Interior, closure and derivative of one subset."""
    ev = TopoEvaluator(space)
    s = ev.mask(subset)
    return SetOperators(
        ev.unmask(ev.interior(s)),
        ev.unmask(ev.closure(s)),
        ev.unmask(ev.derivative(s)),
    )


@dataclass(frozen=True)
class SpacePredicates:
    is_TD: bool
    dense_in_itself: bool
    connected: bool


def space_predicates(space: FiniteSpace) -> SpacePredicates:
    ev = TopoEvaluator(space)
    is_td = True
    for i in range(ev.n):
        d = ev.derivative(1 << i)
        if ev.derivative(d) & ~d:
            is_td = False
            break
    dense = all(ev.interior(1 << i) == 0 for i in range(ev.n))
    connected = True
    for o in ev.opens:
        if o not in (0, ev.full) and (ev.full & ~o) in ev.opens:
            connected = False
            break
    return SpacePredicates(is_td, dense, connected)


def topo_model_check(model: TopoModel, phi: Formula) -> frozenset[str]:
    """Points of ``model`` satisfying ``phi``."""
    ev = TopoEvaluator(model.space)
    return ev.unmask(ev.extension(phi, ev.valuation_masks(model.val)))


def alexandrov(frame: Frame) -> FiniteSpace:
    """The space on the frame's worlds whose opens are the successor-closed
    sets.  Requires a transitive relation."""
    if not frame.transitive:
        raise NonTransitiveError("the up-set topology needs a transitive relation")
    n = len(frame.worlds)
    if n > 20:
        raise ValueError("explicit open families beyond 20 points are not supported")
    succ = frame.succ
    opens = []
    for mask in range(1 << n):
        if all(succ[i] & ~mask == 0 for i in range(n) if mask & (1 << i)):
            opens.append(frame.unmask(mask))
    return FiniteSpace(frame.worlds, frozenset(opens))


# ---------------------------------------------------------------------------
# Serialization


def space_to_dict(space: FiniteSpace, val: Mapping[str, Iterable[str]] | None = None) -> dict:
    order = {p: i for i, p in enumerate(space.points)}
    data = {
        "points": list(space.points),
        "opens": sorted(
            [sorted(o, key=order.get) for o in space.opens],
            key=lambda o: (len(o), [order[p] for p in o]),
        ),
    }
    if val:
        data["val"] = {
            a: sorted(frozenset(ps), key=order.get) for a, ps in sorted(val.items()) if ps
        }
    return data


def space_from_dict(data: Mapping) -> FiniteSpace:
    try:
        points = tuple(str(p) for p in data["points"])
        opens = frozenset(frozenset(str(p) for p in o) for o in data["opens"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed space data: {exc}") from exc
    return FiniteSpace(points, opens)


def topo_model_from_dict(data: Mapping) -> TopoModel:
    space = space_from_dict(data)
    try:
        val = {str(a): [str(p) for p in ps] for a, ps in data.get("val", {}).items()}
    except (AttributeError, TypeError) as exc:
        raise ValueError(f"malformed space data: {exc}") from exc
    return TopoModel(space, val)


def space_to_json(space: FiniteSpace, val: Mapping[str, Iterable[str]] | None = None) -> str:
    return json.dumps(space_to_dict(space, val), indent=2)


def topo_model_from_json(text: str) -> TopoModel:
    return topo_model_from_dict(json.loads(text))
