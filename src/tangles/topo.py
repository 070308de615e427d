"""Finite topological spaces and the topological reading of the language.

A space is given by its full family of open sets.  Every finite space is
Alexandrov: each point ``x`` has a least open neighbourhood ``U_x``, and
the space is evaluated as its specialization preorder (McKinsey and
Tarski), where ``x`` sees ``y`` iff ``y`` lies in ``U_x``.  The box is
interior and the plain diamond is closure, the box and diamond of that
preorder.  ``<d>`` is the derivative (set of limit points), the diamond
over the punctured neighbourhoods ``U_x`` minus ``x``, and ``[d]`` its
dual: ``[d]phi`` holds at ``x`` when some open neighbourhood of ``x``
satisfies ``phi`` everywhere except possibly at ``x`` itself.

Both tangle modalities denote greatest fixpoints: ``<t>{D}`` is the largest
``S`` with ``S`` contained in the closure of every ``member-and-S``
intersection, and ``<dt>{D}`` is the same with the derivative in place of
closure.  The Kripke evaluator compiles each into that greatest fixpoint
loop, over the preorder and over the punctured neighbourhoods
respectively.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import partial, reduce
from itertools import product, starmap
from operator import and_, or_

from .formula import Formula, _Record
from .kripke import (
    Evaluator,
    Frame,
    NonTransitiveError,
    _collection,
    _columns,
    _listed,
    _picked,
    _Valued,
    _valuation_data,
    path_components,
)


class SpaceError(ValueError):
    """The proposed open family is not a topology."""


class FiniteSpace(_Record):
    """Points plus the full family of open sets.

    ``frame`` is the specialization preorder as a :class:`Frame`: ``x``
    sees ``y`` iff ``y`` lies in every open set containing ``x``.  It is
    built from the open sets while they are validated.  It is no field, so
    it takes no part in construction, equality, hashing or ``repr``.
    """

    points: tuple[str, ...]
    opens: frozenset[frozenset[str]]

    def __post_init__(self):
        points = tuple(_collection(self.points, "points"))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "opens", frozenset(
            frozenset(_collection(o, "an open set")) for o in _collection(self.opens, "opens")
        ))
        if not points:
            raise SpaceError("a space needs at least one point")
        if len(set(points)) != len(points):
            raise SpaceError("duplicate point ids")
        bit = {p: 1 << i for i, p in enumerate(points)}
        try:
            opens = set(map(sum, map(partial(map, bit.__getitem__), self.opens)))
        except KeyError:
            stray = next(o for o in self.opens if not o <= bit.keys())
            raise SpaceError(f"open set {sorted(stray)} not within the point set") from None
        full = (1 << len(points)) - 1
        if 0 not in opens:
            raise SpaceError("the empty set must be open")
        if full not in opens:
            raise SpaceError("the whole point set must be open")
        # U_x is the intersection of the opens that hold x: column x of the
        # open masks selects them
        ordered = sorted(opens)
        nbhd = [reduce(and_, _picked(ordered, col)) for col in _columns(ordered, len(points))]
        object.__setattr__(self, "frame", Frame.from_rows(points, nbhd))
        # Each open set is the union of the U_x of its points, and so is the
        # intersection of two opens.  Adding the U_x one at a time, starting
        # from the empty set, shows the family closed under union and
        # intersection iff every O | U_x is open.  One pass in C checks that;
        # only a family that fails it is walked again, for the first union
        # missing by open set and then by point.
        if not opens.issuperset(starmap(or_, product(ordered, nbhd))):
            o, x, u = next(
                (o, x, u) for o in ordered for x, u in zip(points, nbhd) if o | u not in opens
            )
            raise SpaceError(
                "opens not closed under union and intersection: "
                f"{sorted(self.frame.unmask(o | u))}, the union of "
                f"{sorted(self.frame.unmask(o))} "
                f"and the least open set around {x!r}, is missing"
            )


class TopoModel(_Valued):
    """A finite space plus a valuation of its points."""

    __slots__ = ("space", "val")
    _NOUN = "points"
    _structure = property(lambda self: self.space)
    _elements = property(lambda self: self.space.points)

    def __init__(self, space: FiniteSpace, val: Mapping[str, Iterable[str]]):
        self.space = space
        self._set_val(val)


class SetOperators(_Record):
    interior: frozenset[str]
    closure: frozenset[str]
    derivative: frozenset[str]


def _evaluator(space: FiniteSpace) -> Evaluator:
    """The Kripke evaluator on the specialization preorder, with the
    d-modalities on the punctured neighbourhoods."""
    succ = space.frame.succ
    return Evaluator(space.frame, tuple(u & ~(1 << i) for i, u in enumerate(succ)))


def operators(space: FiniteSpace, subset: Iterable[str]) -> SetOperators:
    """Interior, closure and derivative of one subset."""
    ev, frame = _evaluator(space), space.frame
    s = frame.mask(subset)
    return SetOperators(
        frame.unmask(ev.box(s, ev.succ)),
        frame.unmask(ev.dia(s, ev.succ)),
        frame.unmask(ev.dia(s, ev.dsucc)),
    )


class SpacePredicates(_Record):
    is_TD: bool
    dense_in_itself: bool
    connected: bool


def space_predicates(space: FiniteSpace) -> SpacePredicates:
    ev = _evaluator(space)
    derived = [ev.dia(1 << i, ev.dsucc) for i in range(ev.n)]
    return SpacePredicates(
        is_TD=all(ev.dia(d, ev.dsucc) & ~d == 0 for d in derived),
        dense_in_itself=all(ev.box(1 << i, ev.succ) == 0 for i in range(ev.n)),
        connected=len(path_components(space.frame)) == 1,
    )


def topo_model_check(model: TopoModel, phi: Formula) -> frozenset[str]:
    """Points of ``model`` satisfying ``phi``."""
    ev = _evaluator(model.space)
    return ev.frame.unmask(ev.extension(phi, ev.valuation_masks(model.val)))


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
        points = tuple(str(p) for p in _listed(data["points"]))
        opens = frozenset(frozenset(map(str, o)) for o in _listed(data["opens"], nested=True))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed space data: {exc}") from exc
    return FiniteSpace(points, opens)


def topo_model_from_dict(data: Mapping) -> TopoModel:
    space = space_from_dict(data)
    try:
        val = _valuation_data(data)
    except (AttributeError, TypeError) as exc:
        raise ValueError(f"malformed space data: {exc}") from exc
    return TopoModel(space, val)
