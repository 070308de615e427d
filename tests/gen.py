"""Seeded random generators shared across the test modules.

Everything takes an explicit random.Random so that failures replay from the
test's seed.  Model generators go through the transitive closure rather than
rejection, so any size budget is met on the first try.
"""

from __future__ import annotations

import itertools
import random

from tangles import (
    And,
    Atom,
    Bot,
    Box,
    BoxD,
    Dia,
    DiaD,
    Exists,
    FiniteSpace,
    Forall,
    Formula,
    Frame,
    Iff,
    Implies,
    KripkeModel,
    Mu,
    Neg,
    Nu,
    Or,
    Tangle,
    TangleD,
    Top,
    TopoModel,
    closures,
    locally_n_connected,
)

ATOMS = ("p", "q", "r")


def random_model(
    rng: random.Random,
    max_worlds: int = 7,
    atoms: tuple[str, ...] = ATOMS,
    kind: str = "transitive",
) -> KripkeModel:
    """A random model whose frame is transitive, serial transitive,
    reflexive transitive, or unconstrained ("general")."""
    n = rng.randint(1, max_worlds)
    worlds = tuple(f"w{i}" for i in range(n))
    density = rng.uniform(0.15, 0.6)
    pairs = {(u, v) for u in worlds for v in worlds if rng.random() < density}
    if kind == "reflexive":
        pairs |= {(w, w) for w in worlds}
    frame = Frame(worlds, frozenset(pairs))
    if kind != "general":
        frame = closures(frame).transitive
        if kind == "serial":
            patched = set(frame.rel)
            for w in worlds:
                if not frame.successors(w):
                    patched.add((w, rng.choice(worlds)))
            frame = closures(Frame(worlds, frozenset(patched))).transitive
    val = {a: frozenset(w for w in worlds if rng.random() < 0.4) for a in atoms}
    return KripkeModel(frame, val)


def random_cluster_model(
    rng: random.Random,
    n: int,
    atoms: tuple[str, ...] = ("p", "q"),
    *,
    reflexive: bool = False,
) -> KripkeModel:
    """A transitive model on ``n`` worlds built as a random DAG of clusters
    of 1-6 worlds.  Clusters of two or more worlds are reflexive; a
    singleton is reflexive with probability 1/2, or always when
    ``reflexive``."""
    worlds = tuple(f"w{i}" for i in range(n))
    order = list(worlds)
    rng.shuffle(order)
    clusters = []
    while order:
        size = rng.choice((1, 1, 1, 2, 3, 4, 5, 6))
        clusters.append(order[:size])
        del order[:size]
    density = rng.uniform(0.03, 0.25)
    pairs = set()
    for k, members in enumerate(clusters):
        if len(members) > 1 or reflexive or rng.random() < 0.5:
            pairs.update((u, v) for u in members for v in members)
        for later in clusters[k + 1:]:
            if rng.random() < density:
                pairs.add((members[0], later[0]))
    frame = closures(Frame(worlds, frozenset(pairs))).transitive
    val = {a: frozenset(w for w in worlds if rng.random() < 0.4) for a in atoms}
    return KripkeModel(frame, val)


def random_locally_connected_model(
    rng: random.Random,
    max_worlds: int = 6,
    atoms: tuple[str, ...] = ("p", "q"),
    tries: int = 200,
) -> KripkeModel:
    """A serial transitive model whose frame is locally 1-connected.

    Rejection sampling over the serial generator, with a chain of reflexive
    clusters as the fallback; a chain's successor sets are single clusters
    stacked on each other, hence connected."""
    for _ in range(tries):
        m = random_model(rng, max_worlds, atoms, kind="serial")
        if locally_n_connected(m.frame, 1):
            return m
    worlds: list[str] = []
    rel: set[tuple[str, str]] = set()
    for size in (rng.randint(1, 2) for _ in range(rng.randint(1, 3))):
        members = [f"w{len(worlds) + i}" for i in range(size)]
        rel.update((u, v) for u in worlds + members for v in members)
        worlds += members
    val = {a: frozenset(w for w in worlds if rng.random() < 0.4) for a in atoms}
    return KripkeModel(Frame(tuple(worlds), frozenset(rel)), val)


def random_formula(
    rng: random.Random,
    depth: int,
    atoms: tuple[str, ...] = ("p", "q"),
    *,
    tangles: bool = True,
    fixpoints: bool = True,
    universal: bool = False,
    derivative: bool = False,
) -> Formula:
    """A random formula of the requested depth and vocabulary.

    Fixpoint variables are only placed where they sit under an even number
    of negations, so every binder is well formed by construction.  Both
    sides of an equivalence are mixed-polarity positions and get no bound
    variables at all.
    """
    counter = itertools.count()

    def leaf(pos: frozenset[str]) -> Formula:
        pool: list[Formula] = [Atom(a) for a in atoms] + [Top(), Bot()]
        pool += [Atom(v) for v in sorted(pos)]
        return pool[rng.randrange(len(pool))]

    def go(d: int, pos: frozenset[str], neg: frozenset[str]) -> Formula:
        if d <= 0:
            return leaf(pos)
        ops = ["leaf", "neg", "and", "or", "implies", "iff", "box", "dia", "box", "dia"]
        if tangles:
            ops += ["tangle", "tangle"]
        if derivative:
            ops += ["boxd", "diad"] + (["tangled"] if tangles else [])
        if fixpoints:
            ops += ["mu", "nu"]
        if universal:
            ops += ["forall", "exists"]
        op = rng.choice(ops)
        if op == "leaf":
            return leaf(pos)
        if op == "neg":
            return Neg(go(d - 1, neg, pos))
        if op == "and":
            return And(go(d - 1, pos, neg), go(d - 1, pos, neg))
        if op == "or":
            return Or(go(d - 1, pos, neg), go(d - 1, pos, neg))
        if op == "implies":
            return Implies(go(d - 1, neg, pos), go(d - 1, pos, neg))
        if op == "iff":
            none = frozenset()
            return Iff(go(d - 1, none, none), go(d - 1, none, none))
        if op == "box":
            return Box(go(d - 1, pos, neg))
        if op == "dia":
            return Dia(go(d - 1, pos, neg))
        if op == "boxd":
            return BoxD(go(d - 1, pos, neg))
        if op == "diad":
            return DiaD(go(d - 1, pos, neg))
        if op == "forall":
            return Forall(go(d - 1, pos, neg))
        if op == "exists":
            return Exists(go(d - 1, pos, neg))
        if op in ("tangle", "tangled"):
            members = tuple(go(d - 1, pos, neg) for _ in range(rng.randint(1, 3)))
            return Tangle(members) if op == "tangle" else TangleD(members)
        if op == "mu":
            v = f"v{next(counter)}"
            return Mu(v, go(d - 1, pos | {v}, neg))
        v = f"v{next(counter)}"
        return Nu(v, go(d - 1, pos | {v}, neg))

    return go(depth, frozenset(), frozenset())


def random_shared_formula(
    rng: random.Random,
    depth: int,
    atoms: tuple[str, ...] = ("p", "q"),
    names: tuple[str, ...] = ("x", "y"),
    *,
    tangles: bool = True,
) -> Formula:
    """A random formula that reuses its own subformulas.

    Every binder binds one of ``names``, which also occur free, so binders
    nest, alternate and shadow each other, and interning makes one node of
    a subformula that sits both under a binder of a name and where the name
    is free or bound by another binder.  Each built subformula is kept and
    handed out again a third of the time where the same names are bound
    with the same parities, which keeps every binder positive.  A leaf where
    some name is bound with even parity is mostly such a name, so that most
    binders bind a name their body uses.  Negations, derived forms,
    d-modalities, ``A``/``E`` and (unless ``tangles`` is false) both
    tangles occur.
    """
    made: dict[tuple, list[Formula]] = {}

    def go(d: int, pos: frozenset[str], neg: frozenset[str], bound: frozenset[str]) -> Formula:
        # bound names may occur only in pos, where their parity is even
        pool = made.setdefault((pos, neg, bound), [])
        if pool and rng.random() < 0.33:
            return rng.choice(pool)
        ops = ["neg", "and", "or", "implies", "iff", "box", "dia", "boxd",
               "diad", "forall", "exists", "mu", "nu"]
        ops += ["tangle", "tangled"] if tangles else []
        op = "leaf" if d <= 0 else rng.choice(ops)
        if op == "leaf":
            live = sorted(bound & pos)
            if live and rng.random() < 0.75:
                out = Atom(rng.choice(live))
            else:
                usable = atoms + tuple(v for v in names if v in pos or v not in bound)
                out = rng.choice([Atom(a) for a in usable] + [Top(), Bot()])
        elif op == "neg":
            out = Neg(go(d - 1, neg, pos, bound))
        elif op in ("and", "or"):
            kind = And if op == "and" else Or
            out = kind(go(d - 1, pos, neg, bound), go(d - 1, pos, neg, bound))
        elif op == "implies":
            out = Implies(go(d - 1, neg, pos, bound), go(d - 1, pos, neg, bound))
        elif op == "iff":
            none = frozenset()
            out = Iff(go(d - 1, none, none, bound), go(d - 1, none, none, bound))
        elif op in ("mu", "nu"):
            v = rng.choice(names)
            body = go(d - 1, pos | {v}, neg - {v}, bound | {v})
            out = (Mu if op == "mu" else Nu)(v, body)
        elif op in ("tangle", "tangled"):
            members = tuple(go(d - 1, pos, neg, bound) for _ in range(rng.randint(1, 3)))
            out = (Tangle if op == "tangle" else TangleD)(members)
        else:
            kind = {"box": Box, "dia": Dia, "boxd": BoxD, "diad": DiaD,
                    "forall": Forall, "exists": Exists}[op]
            out = kind(go(d - 1, pos, neg, bound))
        pool.append(out)
        return out

    none = frozenset()
    return go(depth, none, none, none)


def random_member_set(
    rng: random.Random,
    max_members: int = 2,
    depth: int = 2,
    atoms: tuple[str, ...] = ATOMS,
) -> tuple[Formula, ...]:
    """Members for a tangle: plain modal formulas, no fixpoints."""
    return tuple(
        random_formula(
            rng, rng.randint(0, depth), atoms, tangles=False, fixpoints=False
        )
        for _ in range(rng.randint(1, max_members))
    )


def random_tangle_formula(
    rng: random.Random, atoms: tuple[str, ...] = ("p", "q")
) -> Formula:
    """A formula with a tangle at or near the root."""
    core = Tangle(random_member_set(rng, 2, 2, atoms))
    roll = rng.random()
    if roll < 0.3:
        return Dia(core)
    if roll < 0.5:
        return And(core, Atom(rng.choice(atoms)))
    if roll < 0.6:
        return Neg(core)
    return core


# ---------------------------------------------------------------------------
# Spaces


def close_family(points, family) -> frozenset[frozenset[str]]:
    """Close a family of sets under union and intersection, with the empty
    set and the whole space added."""
    opens = {frozenset(), frozenset(points)} | {frozenset(s) for s in family}
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(opens), 2):
            for c in (a | b, a & b):
                if c not in opens:
                    opens.add(c)
                    changed = True
    return frozenset(opens)


def random_space(
    rng: random.Random,
    max_points: int = 4,
    atoms: tuple[str, ...] = ("p", "q"),
) -> TopoModel:
    n = rng.randint(1, max_points)
    points = tuple(f"x{i}" for i in range(n))
    base = [
        frozenset(p for p in points if rng.random() < 0.5)
        for _ in range(rng.randint(0, 4))
    ]
    space = FiniteSpace(points, close_family(points, base))
    val = {a: frozenset(p for p in points if rng.random() < 0.4) for a in atoms}
    return TopoModel(space, val)


def three_point_topologies() -> list[FiniteSpace]:
    """Every topology on three fixed points."""
    points = ("x0", "x1", "x2")
    proper = [
        frozenset(s)
        for r in (1, 2)
        for s in itertools.combinations(points, r)
    ]
    spaces = []
    for r in range(len(proper) + 1):
        for chosen in itertools.combinations(proper, r):
            fam = {frozenset(), frozenset(points), *chosen}
            if all(a | b in fam and a & b in fam for a in fam for b in fam):
                spaces.append(FiniteSpace(points, frozenset(fam)))
    return spaces
