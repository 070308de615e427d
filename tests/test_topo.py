"""Topological semantics: set operators, space predicates, the up-set
correspondence with relational models, serialization."""

import json
import random
import re

import pytest

from tangles import (
    Atom,
    Dia,
    DiaD,
    FiniteSpace,
    Frame,
    KripkeModel,
    NonTransitiveError,
    SpaceError,
    Tangle,
    TangleD,
    Top,
    TopoModel,
    alexandrov,
    closures,
    model_check,
    operators,
    space_from_dict,
    space_predicates,
    space_to_dict,
    topo_model_check,
    topo_model_from_dict,
)
from gen import close_family, random_formula, random_model, random_space, three_point_topologies

p, q = Atom("p"), Atom("q")


def sierpinski():
    return FiniteSpace(("x", "y"), frozenset({frozenset(), frozenset({"x"}), frozenset({"x", "y"})}))


def naive_ops(space):
    """Set-based operators straight from the definitions."""
    pts = frozenset(space.points)

    def interior(s):
        return frozenset().union(*(o for o in space.opens if o <= s)) if any(o <= s for o in space.opens) else frozenset()

    def closure(s):
        return pts - interior(pts - s)

    def derivative(s):
        return frozenset(
            x for x in pts
            if all((o & s) - {x} for o in space.opens if x in o)
        )

    return interior, closure, derivative


def naive_topo_extension(model, phi, env=None):
    env = env or {}
    interior, closure, derivative = naive_ops(model.space)
    pts = frozenset(model.space.points)

    def go(f, env):
        name = type(f).__name__
        if name == "Atom":
            return env[f.name] if f.name in env else model.val.get(f.name, frozenset())
        if name == "Top":
            return pts
        if name == "Bot":
            return frozenset()
        if name == "Neg":
            return pts - go(f.sub, env)
        if name == "And":
            return go(f.left, env) & go(f.right, env)
        if name == "Or":
            return go(f.left, env) | go(f.right, env)
        if name == "Implies":
            return (pts - go(f.left, env)) | go(f.right, env)
        if name == "Iff":
            a, b = go(f.left, env), go(f.right, env)
            return (a & b) | (pts - a - b)
        if name == "Box":
            return interior(go(f.sub, env))
        if name == "Dia":
            return closure(go(f.sub, env))
        if name == "DiaD":
            return derivative(go(f.sub, env))
        if name == "BoxD":
            return pts - derivative(pts - go(f.sub, env))
        if name == "Forall":
            return pts if go(f.sub, env) == pts else frozenset()
        if name == "Exists":
            return pts if go(f.sub, env) else frozenset()
        if name in ("Tangle", "TangleD"):
            op = closure if name == "Tangle" else derivative
            cur = pts
            while True:
                nxt = cur
                for m in f.members:
                    nxt = nxt & op(cur & go(m, env))
                if nxt == cur:
                    return cur
                cur = nxt
        if name == "Mu":
            cur = frozenset()
            while True:
                nxt = go(f.body, {**env, f.var: cur})
                if nxt == cur:
                    return cur
                cur = nxt
        if name == "Nu":
            cur = pts
            while True:
                nxt = go(f.body, {**env, f.var: cur})
                if nxt == cur:
                    return cur
                cur = nxt
        raise TypeError(name)

    return go(phi, env)


def test_three_point_topology_count():
    spaces = three_point_topologies()
    assert len(spaces) == 29
    assert len(set(spaces)) == 29


def test_space_validation():
    x = frozenset({"a"})
    full = frozenset({"a", "b"})
    with pytest.raises(SpaceError):
        FiniteSpace(("a", "b"), frozenset({x, full}))  # empty set missing
    with pytest.raises(SpaceError):
        FiniteSpace(("a", "b"), frozenset({frozenset(), x}))  # whole set missing
    with pytest.raises(SpaceError):
        FiniteSpace(("a", "a"), frozenset({frozenset(), x}))
    with pytest.raises(SpaceError):
        FiniteSpace(("a",), frozenset({frozenset(), x, frozenset({"z"})}))
    with pytest.raises(SpaceError):
        FiniteSpace((), frozenset({frozenset()}))
    with pytest.raises(SpaceError):
        # {a} | {b} missing
        FiniteSpace(
            ("a", "b", "c"),
            frozenset({frozenset(), frozenset({"a"}), frozenset({"b"}),
                       frozenset({"a", "b", "c"})}),
        )


def pairwise_topology(points, family):
    """The family is a topology on ``points``, checked pair by pair."""
    everything = frozenset(points)
    return (
        len(set(points)) == len(points)
        and all(o <= everything for o in family)
        and frozenset() in family
        and everything in family
        and all(a | b in family and a & b in family for a in family for b in family)
    )


def random_family(rng, kind):
    points = tuple(f"x{i}" for i in range(rng.randint(1, 5)))
    base = [
        frozenset(p for p in points if rng.random() < 0.5)
        for _ in range(rng.randint(0, 5))
    ]
    if kind == "unclosed":
        return points, frozenset({frozenset(), frozenset(points), *base})
    family = close_family(points, base)
    if kind == "dropped":
        family -= {sorted(family, key=sorted)[rng.randrange(len(family))]}
    return points, family


@pytest.mark.parametrize("kind", ["closed", "unclosed", "dropped"])
@pytest.mark.parametrize("seed", range(40))
def test_validation_matches_pairwise_oracle(seed, kind):
    rng = random.Random(4000 + seed)
    for _ in range(10):
        points, family = random_family(rng, kind)
        try:
            FiniteSpace(points, family)
            accepted = True
        except SpaceError:
            accepted = False
        assert accepted == pairwise_topology(points, family)


def first_missing_union(points, family):
    """The message that names the first ``O | U_x`` missing from a family
    with the empty and the whole set, by open set (ordered as a mask with
    point i at bit i) and then by point; None if the family is a topology."""
    rank = {p: 1 << i for i, p in enumerate(points)}
    least = [frozenset.intersection(*(o for o in family if x in o)) for x in points]
    for o in sorted(family, key=lambda o: sum(map(rank.get, o))):
        for x, u in zip(points, least):
            if o | u not in family:
                return ("opens not closed under union and intersection: "
                        f"{sorted(o | u)}, the union of {sorted(o)} "
                        f"and the least open set around {x!r}, is missing")
    return None


@pytest.mark.parametrize("kind", ["unclosed", "dropped"])
@pytest.mark.parametrize("seed", range(30))
def test_a_family_that_is_not_closed_names_its_first_missing_union(seed, kind):
    rng = random.Random(4100 + seed)
    for _ in range(10):
        points, family = random_family(rng, kind)
        if not {frozenset(), frozenset(points)} <= family:
            continue
        want = first_missing_union(points, family)
        if want is None:
            assert FiniteSpace(points, family).opens == family
        else:
            with pytest.raises(SpaceError) as caught:
                FiniteSpace(points, family)
            assert str(caught.value) == want
    # the messages of the other checks
    for points, family, message in [
        (("a",), [(), ("a",), ("z",)], "open set ['z'] not within the point set"),
        (("a", "b"), [("a",), ("a", "b")], "the empty set must be open"),
        (("a", "b"), [(), ("a",)], "the whole point set must be open"),
    ]:
        with pytest.raises(SpaceError, match=f"^{re.escape(message)}$"):
            FiniteSpace(points, frozenset(map(frozenset, family)))


def test_union_closed_family_missing_an_intersection():
    a, b, c = "abc"
    family = frozenset({frozenset(), frozenset({a, b}), frozenset({b, c}), frozenset({a, b, c})})
    assert all(x | y in family for x in family for y in family)
    assert not pairwise_topology((a, b, c), family)
    with pytest.raises(SpaceError):
        FiniteSpace((a, b, c), family)


def test_space_frame_is_the_specialization_preorder():
    space = sierpinski()
    before = repr(space)
    assert space.frame.rel == {("x", "x"), ("y", "x"), ("y", "y")}
    assert repr(space) == before
    assert space == sierpinski() and hash(space) == hash(sierpinski())


@pytest.mark.parametrize("seed", range(60))
def test_set_operator_laws(seed):
    rng = random.Random(seed)
    model = random_space(rng)
    space = model.space
    pts = frozenset(space.points)
    sub = frozenset(x for x in pts if rng.random() < 0.5)
    ops = operators(space, sub)
    interior, closure, derivative = naive_ops(space)
    assert ops.interior == interior(sub)
    assert ops.closure == closure(sub)
    assert ops.derivative == derivative(sub)
    # Kuratowski-style laws
    assert ops.interior <= sub <= ops.closure
    assert ops.interior in space.opens
    assert operators(space, ops.interior).interior == ops.interior
    assert operators(space, ops.closure).closure == ops.closure
    assert ops.closure == sub | ops.derivative
    other = frozenset(x for x in pts if rng.random() < 0.5)
    assert operators(space, sub & other).interior == (
        operators(space, sub).interior & operators(space, other).interior
    )
    assert operators(space, sub | other).closure == ops.closure | operators(space, other).closure


@pytest.mark.parametrize("seed", range(120))
def test_topo_evaluator_matches_oracle(seed):
    rng = random.Random(1000 + seed)
    model = random_space(rng)
    phi = random_formula(
        rng, rng.randint(0, 4), tangles=True, fixpoints=True,
        universal=True, derivative=True,
    )
    assert topo_model_check(model, phi) == naive_topo_extension(model, phi)


def test_space_predicates_against_definitions():
    for space in three_point_topologies():
        preds = space_predicates(space)
        interior, closure, derivative = naive_ops(space)
        pts = frozenset(space.points)
        # TD: the derivative of every singleton is closed
        assert preds.is_TD == all(
            closure(derivative(frozenset({x}))) == derivative(frozenset({x}))
            for x in pts
        )
        assert preds.dense_in_itself == (derivative(pts) == pts)
        clopen = {o for o in space.opens if pts - o in space.opens}
        assert preds.connected == (len(clopen) == 2)


def test_predicates_concrete():
    discrete = FiniteSpace(
        ("a", "b"),
        frozenset({frozenset(), frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})}),
    )
    preds = space_predicates(discrete)
    assert preds.is_TD and not preds.dense_in_itself and not preds.connected
    indiscrete = FiniteSpace(("a", "b"), frozenset({frozenset(), frozenset({"a", "b"})}))
    preds = space_predicates(indiscrete)
    assert not preds.is_TD and preds.dense_in_itself and preds.connected
    assert space_predicates(sierpinski()).is_TD


def test_tangle_vs_derivative_tangle():
    # closure keeps the isolated-in-itself point, the derivative drops it
    model = TopoModel(sierpinski(), {"p": {"x"}})
    assert topo_model_check(model, Tangle((p,))) == {"x", "y"}
    assert topo_model_check(model, TangleD((p,))) == frozenset()
    # on a dense-in-itself space the two agree on the whole-space tangle
    indiscrete = FiniteSpace(("a", "b"), frozenset({frozenset(), frozenset({"a", "b"})}))
    m = TopoModel(indiscrete, {"p": {"a", "b"}})
    assert topo_model_check(m, Tangle((p,))) == {"a", "b"}
    assert topo_model_check(m, TangleD((p,))) == {"a", "b"}
    assert topo_model_check(m, DiaD(p)) == {"a", "b"}
    # with p at one point only, the derivative tangle needs p at a second
    # point of the cluster, which the closure tangle does not
    m = TopoModel(indiscrete, {"p": {"a"}})
    assert topo_model_check(m, Tangle((p,))) == {"a", "b"}
    assert topo_model_check(m, TangleD((p,))) == frozenset()
    assert topo_model_check(TopoModel(sierpinski(), {}), DiaD(Top())) == {"y"}


def random_larger_space(rng):
    points = tuple(f"x{i}" for i in range(rng.randint(5, 6)))
    base = [
        frozenset(x for x in points if rng.random() < 0.5)
        for _ in range(rng.randint(0, 5))
    ]
    val = {a: frozenset(x for x in points if rng.random() < 0.5) for a in ("p", "q")}
    return TopoModel(FiniteSpace(points, close_family(points, base)), val)


@pytest.mark.parametrize("seed", range(40))
def test_larger_spaces_match_oracles(seed):
    rng = random.Random(5000 + seed)
    model = random_larger_space(rng)
    space = model.space
    pts = frozenset(space.points)
    interior, closure, derivative = naive_ops(space)
    for _ in range(3):
        phi = random_formula(
            rng, rng.randint(1, 4), tangles=True, fixpoints=True,
            universal=True, derivative=True,
        )
        assert topo_model_check(model, phi) == naive_topo_extension(model, phi)
    for atom in ("p", "q"):
        sub = model.val[atom]
        ops = operators(space, sub)
        assert (ops.interior, ops.closure, ops.derivative) == (
            interior(sub), closure(sub), derivative(sub)
        )
        for tangle in (Tangle, TangleD):
            phi = tangle((p, q)) if atom == "q" else tangle((p,))
            assert topo_model_check(model, phi) == naive_topo_extension(model, phi)
    preds = space_predicates(space)
    assert preds.is_TD == all(
        closure(derivative(frozenset({x}))) == derivative(frozenset({x})) for x in pts
    )
    assert preds.dense_in_itself == (derivative(pts) == pts)
    clopen = {o for o in space.opens if pts - o in space.opens}
    assert preds.connected == (len(clopen) == 2)


def test_alexandrov_opens_are_up_sets():
    frame = Frame(
        ("r", "x", "y"),
        frozenset({("r", "x"), ("r", "y"), ("x", "x"), ("y", "y"), ("r", "r")}),
    )
    space = alexandrov(frame)
    assert set(space.points) == set(frame.worlds)
    for o in space.opens:
        for w in o:
            assert frame.successors(w) <= o
    chain = Frame(("a", "b"), frozenset({("a", "a"), ("b", "b"), ("a", "b")}))
    assert alexandrov(chain).opens == frozenset(
        {frozenset(), frozenset({"b"}), frozenset({"a", "b"})}
    )


def test_alexandrov_rejects_non_transitive():
    with pytest.raises(NonTransitiveError):
        alexandrov(Frame(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")})))


def test_alexandrov_size_cap():
    worlds = tuple(f"w{i}" for i in range(21))
    frame = Frame(worlds, frozenset((w, w) for w in worlds))
    with pytest.raises(ValueError):
        alexandrov(frame)


def test_alexandrov_twelve_point_discrete_frame():
    worlds = tuple(f"w{i}" for i in range(12))
    space = alexandrov(Frame(worlds, frozenset((w, w) for w in worlds)))
    assert len(space.opens) == 4096
    preds = space_predicates(space)
    assert preds.is_TD and not preds.dense_in_itself and not preds.connected


@pytest.mark.parametrize("seed", range(80))
def test_alexandrov_correspondence(seed):
    # over reflexive transitive frames the up-set space interprets the
    # closure fragment exactly as the frame does
    rng = random.Random(2000 + seed)
    kmodel = random_model(rng, 5, ("p", "q"), kind="reflexive")
    space = alexandrov(kmodel.frame)
    tmodel = TopoModel(space, kmodel.val)
    phi = random_formula(
        rng, rng.randint(0, 4), ("p", "q"),
        tangles=True, fixpoints=True, universal=True, derivative=False,
    )
    assert topo_model_check(tmodel, phi) == model_check(kmodel, phi)


def test_derivative_diverges_from_closure_on_up_sets():
    # reflexive singleton: relationally <d>p holds, topologically it cannot
    frame = Frame(("a",), frozenset({("a", "a")}))
    kmodel = KripkeModel(frame, {"p": {"a"}})
    tmodel = TopoModel(alexandrov(frame), kmodel.val)
    assert model_check(kmodel, DiaD(p)) == {"a"}
    assert topo_model_check(tmodel, DiaD(p)) == frozenset()
    assert topo_model_check(tmodel, Dia(p)) == {"a"}


@pytest.mark.parametrize("seed", range(30))
def test_space_serialization_round_trip(seed):
    rng = random.Random(3000 + seed)
    model = random_space(rng)
    assert space_from_dict(space_to_dict(model.space)) == model.space
    again = topo_model_from_dict(json.loads(json.dumps(space_to_dict(model.space, model.val))))
    assert again == model


def test_space_from_dict_rejects_garbage():
    with pytest.raises(ValueError):
        space_from_dict({"points": ["a"]})
    with pytest.raises(SpaceError):
        space_from_dict({"points": ["a"], "opens": [["a"]]})
