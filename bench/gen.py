"""Seeded inputs for the benchmark workloads.

Every job is drawn from a fixed pool.  A pool entry is named by its id,
``<workload>/<slot>/<variant...>``, and is rebuilt from that id alone, so
the stdout digest recorded for it (``expected/<workload>.json``) stays valid
for every seed that picks it.  The seed picks one variant per slot (and, in
``check``, one variant per model) and the order in which the jobs run.

Slots fix the input properties that set a job's cost (worlds, pairs, opens,
formula size, atoms, search bounds), so that two seeds give job lists of
the same shape; the variants differ in everything else (relation shape,
valuations, formulas, frames).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from tangles import (
    And,
    Atom,
    Bot,
    Box,
    BoxD,
    Dia,
    DiaD,
    Exists,
    Forall,
    Implies,
    Mu,
    Neg,
    Nu,
    Or,
    Tangle,
    Top,
    enumerate_frames,
    free_atoms,
    immediate_subformulas,
    instantiate,
    locally_n_connected,
    model_check,
    model_from_dict,
    model_to_dict,
    parse_profile,
    path_components,
    pretty,
    relation_properties,
    subformula_closure,
    to_d,
    to_mu,
    KripkeModel,
)

WORKLOADS = ("reduce", "check")
#: Variants per slot; the recorded digests cover all of them.
VARIANTS = 6
#: Model variants per model slot of the check workload.
MODEL_VARIANTS = 3
ATOMS = ("p", "q", "r")

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


@dataclass
class Job:
    id: str
    kind: str
    argv: list
    check: dict = field(default_factory=dict)
    props: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Formulas


def _literal(rng, atoms):
    a = Atom(rng.choice(atoms))
    return Neg(a) if rng.random() < 0.3 else a


def modal(rng, depth, atoms, boxes=(Box, Dia)):
    """Tangle- and fixpoint-free formula of at most ``depth``."""
    if depth <= 0 or rng.random() < 0.15:
        return _literal(rng, atoms) if rng.random() < 0.9 else rng.choice((Top(), Bot()))
    op = rng.choice(("neg", "and", "or", "implies", "box", "dia", "box", "dia"))
    if op == "neg":
        return Neg(modal(rng, depth - 1, atoms, boxes))
    if op in ("box", "dia"):
        cls = boxes[0] if op == "box" else boxes[1]
        return cls(modal(rng, depth - 1, atoms, boxes))
    cls = {"and": And, "or": Or, "implies": Implies}[op]
    return cls(modal(rng, depth - 1, atoms, boxes), modal(rng, depth - 1, atoms, boxes))


def formula(rng, depth, atoms, *, tangles, fixpoints, universal, boxes=(Box, Dia)):
    """A skeleton of booleans, modalities and quantifiers of the given depth.

    Tangles and fixpoints end the skeleton: tangle members and binder bodies
    are small modal formulas, so fixpoints never nest, even after ``to_mu``.
    """
    names = (f"x{i}" for i in itertools.count())

    def go(d):
        if d <= 0:
            return _literal(rng, atoms)
        ops = ["neg", "and", "or", "implies", "box", "dia", "and", "or"]
        if tangles:
            ops += ["tangle"]
        if fixpoints:
            ops += ["mu", "nu"]
        if universal:
            ops += ["forall", "exists"]
        op = rng.choice(ops)
        if op == "neg":
            return Neg(go(d - 1))
        if op in ("and", "or", "implies"):
            cls = {"and": And, "or": Or, "implies": Implies}[op]
            return cls(go(d - 1), go(d - 1))
        if op in ("box", "dia"):
            return (boxes[0] if op == "box" else boxes[1])(go(d - 1))
        if op in ("forall", "exists"):
            return (Forall if op == "forall" else Exists)(go(d - 1))
        if op == "tangle":
            return Tangle(tuple(modal(rng, rng.randint(0, 2), atoms)
                                for _ in range(rng.randint(1, 3))))
        v = next(names)
        a, b = modal(rng, 1, atoms), modal(rng, 1, atoms)
        if op == "mu":
            return Mu(v, Or(a, Dia(And(b, Atom(v)))))
        return Nu(v, And(a, Box(Or(b, Atom(v)))))

    return go(depth)


def nodes(phi) -> int:
    return 1 + sum(nodes(f) for f in immediate_subformulas(phi))


def features(phi) -> tuple[int, int]:
    """Numbers of tangle and fixpoint nodes."""
    own = (int(isinstance(phi, Tangle)), int(isinstance(phi, (Mu, Nu))))
    for f in immediate_subformulas(phi):
        sub = features(f)
        own = (own[0] + sub[0], own[1] + sub[1])
    return own


def sized(rng, make, size, feats, tries=200):
    """Of up to ``tries`` formulas from ``make(rng)`` with exactly the given
    tangle and fixpoint counts, the first whose node count is within 10% of
    ``size``, else the closest; this keeps one slot's cost alike across
    variants."""
    best = None
    for _ in range(tries):
        phi = make(rng)
        if features(phi) != feats:
            continue
        gap = abs(nodes(phi) - size)
        if gap <= size // 10:
            return phi
        if best is None or gap < best[0]:
            best = (gap, phi)
    if best is None:
        raise RuntimeError("no formula with the requested features")
    return best[1]


def tangle_root(rng, atoms):
    """A closure root with a tangle at or near the top."""
    t = Tangle(tuple(modal(rng, rng.randint(0, 2), atoms) for _ in range(rng.randint(1, 3))))
    roll = rng.random()
    if roll < 0.3:
        return Dia(And(_literal(rng, atoms), t))
    if roll < 0.5:
        return Neg(t)
    return t


_FRESH = re.compile(r"(?<![A-Za-z0-9_])_g(\d+)")


def parseable(text: str) -> str:
    """``text`` with the translations' fresh variables ``_gN`` renamed to
    ``gN``: ``pretty`` prints them, but ``parse`` rejects identifiers that
    start with an underscore.  No generated formula uses ``gN`` itself."""
    return _FRESH.sub(r"g\1", text)


# ---------------------------------------------------------------------------
# Models

_SIZE_PATTERN = (1, 1, 1, 2, 3, 4, 5, 6)


def cluster_sizes(rng, n):
    sizes = []
    while sum(sizes) < n:
        block = list(_SIZE_PATTERN)
        rng.shuffle(block)
        for s in block:
            if sum(sizes) < n:
                sizes.append(min(s, n - sum(sizes)))
    rng.shuffle(sizes)
    return sizes


def cluster_dag(rng, n, target_pairs, *, all_reflexive=False, atoms=ATOMS):
    """A transitive model built as a DAG of clusters, with about
    ``target_pairs`` relation pairs.

    Cluster sizes follow a fixed pattern (so the cluster count depends on
    ``n`` only); multi-world clusters are reflexive, singletons are
    reflexive with probability 1/2 unless ``all_reflexive``.  DAG edges are
    added at random, transitively closed, while the pair count stays within
    2% of the target.  Returns the model dict and its cluster list.
    """
    sizes = cluster_sizes(rng, n)
    ids = list(range(n))
    rng.shuffle(ids)
    members, at = [], 0
    for s in sizes:
        members.append(sorted(ids[at:at + s]))
        at += s
    refl = [s > 1 or all_reflexive or rng.random() < 0.5 for s in sizes]
    cmask = [sum(1 << w for w in m) for m in members]
    c = len(sizes)
    topo = list(range(c))
    rng.shuffle(topo)
    reach = [0] * c  # world mask of the strict successors of cluster i
    base = sum(s * s for s, r in zip(sizes, refl) if r)

    def pairs(reach):
        return base + sum(s * r.bit_count() for s, r in zip(sizes, reach))

    current = pairs(reach)
    for _ in range(40 * c * c):
        if current >= 0.98 * target_pairs:
            break
        i, j = sorted(rng.sample(range(c), 2))
        a, b = topo[i], topo[j]
        if reach[a] & cmask[b]:
            continue
        add = cmask[b] | reach[b]
        new = [r | add if (k == a or r & cmask[a]) else r for k, r in enumerate(reach)]
        count = pairs(new)
        if count <= 1.02 * target_pairs:
            reach, current = new, count
    worlds = [f"w{i}" for i in range(n)]
    rel = []
    for k in range(c):
        succ = reach[k] | (cmask[k] if refl[k] else 0)
        targets = [v for v in range(n) if succ >> v & 1]
        rel += [(u, v) for u in members[k] for v in targets]
    rel.sort()
    model = {
        "worlds": worlds,
        "rel": [[worlds[u], worlds[v]] for u, v in rel],
        "val": {a: [w for w in worlds if rng.random() < 0.4] for a in atoms},
    }
    clusters = [[worlds[w] for w in m] for m in members]
    return model, {"clusters": clusters, "reflexive": refl}


def random_graph(rng, n, degree, atoms=ATOMS):
    """A model on an unconstrained relation with about ``degree``
    successors per world."""
    worlds = [f"w{i}" for i in range(n)]
    rel = sorted({(u, v) for u in range(n) for v in rng.sample(range(n), degree)})
    return {
        "worlds": worlds,
        "rel": [[worlds[u], worlds[v]] for u, v in rel],
        "val": {a: [w for w in worlds if rng.random() < 0.4] for a in atoms},
    }


# Finite preorders as disjoint unions of small components; each component
# is (points, relation pairs over 0..points-1, number of up-sets).  The
# up-set count of a union is the product, so every rung of the space ladder
# hits its open count exactly.
_COMPONENTS = (
    (1, (), 2),                              # point
    (2, ((0, 1), (1, 0)), 2),                # two-point cluster
    (2, ((0, 1),), 3),                       # chain
    (3, ((0, 1), (1, 2), (0, 2)), 4),        # three-chain
    (3, ((0, 1), (0, 2)), 5),                # fork
    (3, ((0, 2), (1, 2)), 5),                # join
    (3, ((0, 1), (0, 2), (1, 2), (2, 1)), 3),  # point below a cluster
)


def _decompositions(points, opens):
    out = []

    def go(start, points, opens, chosen):
        if points == 0:
            if opens == 1:
                out.append(tuple(chosen))
            return
        for k in range(start, len(_COMPONENTS)):
            size, _, count = _COMPONENTS[k]
            if size <= points and opens % count == 0:
                go(k, points - size, opens // count, chosen + [k])

    go(0, points, opens, [])
    return out


def alexandrov_space(rng, points, opens, atoms=("p", "q")):
    """A reflexive preorder on ``points`` points with exactly ``opens``
    up-sets; returns the space dict (up-sets as opens) and the frame dict."""
    parts = list(rng.choice(_decompositions(points, opens)))
    rng.shuffle(parts)
    labels = list(range(points))
    rng.shuffle(labels)
    rel, at = set(), 0
    for k in parts:
        size, pairs, _ = _COMPONENTS[k]
        ids = labels[at:at + size]
        rel |= {(ids[i], ids[i]) for i in range(size)}
        rel |= {(ids[i], ids[j]) for i, j in pairs}
        at += size
    succ = [sum(1 << v for (u, v) in rel if u == x) for x in range(points)]
    ups = [m for m in range(1 << points)
           if all(succ[i] & ~m == 0 for i in range(points) if m >> i & 1)]
    assert len(ups) == opens
    names = [f"x{i}" for i in range(points)]
    val = {a: [x for x in names if rng.random() < 0.5] for a in atoms}
    space = {
        "points": names,
        "opens": sorted(([names[i] for i in range(points) if m >> i & 1] for m in ups),
                        key=lambda o: (len(o), [names.index(p) for p in o])),
        "val": val,
    }
    frame = {"worlds": names, "rel": [[names[u], names[v]] for u, v in sorted(rel)], "val": val}
    return space, frame


def _model_props(model):
    return {"worlds": len(model["worlds"]), "pairs": len(model["rel"])}


def _formula_props(phi, worlds=None):
    props = {
        "formula_chars": len(pretty(phi)),
        "closure_size": len(subformula_closure([phi]).formulas),
    }
    if worlds is not None:
        props["atoms_x_worlds"] = len(free_atoms(phi)) * worlds
    return props


# ---------------------------------------------------------------------------
# reduce: analyze and untangle on cluster-DAG models


#: (worlds, target pairs, all clusters reflexive)
REDUCE_RUNGS = (
    (60, 300, False), (60, 700, True), (60, 1200, False), (70, 1800, False),
    (80, 900, False), (90, 2000, True), (90, 3000, False), (100, 1500, False),
    # the middle of the ladder is dense, so the median job has close
    # neighbours on both sides and its rank does not jump between runs
    (100, 2200, False), (100, 2800, True), (110, 2500, False), (110, 3000, False),
    (120, 2000, True), (120, 2600, False), (120, 3500, False), (130, 2200, False),
    (130, 3000, True), (140, 3000, False),
    (150, 2500, True), (160, 3500, False), (180, 3000, False), (200, 3000, True),
    (210, 4000, False), (240, 5000, False),
)


def _reduce_jobs(rung, v):
    n, target, all_refl = REDUCE_RUNGS[rung]
    slot = f"reduce/r{rung:02d}/v{v}"
    rng = random.Random(slot)
    model, shape = cluster_dag(rng, n, target, all_reflexive=all_refl)
    path = f"r{rung:02d}v{v}.json"
    roots = [tangle_root(rng, ATOMS)]
    roots += [tangle_root(rng, ATOMS) if rng.random() < 0.5 else Dia(modal(rng, 2, ATOMS))
              for _ in range(rng.randint(1, 2))]
    if v % 2:
        roots.append(Dia(Top()))
    texts = [pretty(f) for f in roots]
    mode = "refined" if rung % 2 else "standard"
    props = _model_props(model) | {
        "closure_size": len(subformula_closure(roots).formulas),
        "formula_chars": sum(map(len, texts)),
        "atoms_x_worlds": len(ATOMS) * n,
    }
    analyze = Job(f"{slot}/analyze", "analyze", ["analyze", "--format", "structured", path],
                  {"shape": shape}, _model_props(model))
    argv = ["untangle", "--format", "structured", "--mode", mode]
    argv += ["--reflexive"] if all_refl else []
    untangle = Job(f"{slot}/untangle", "untangle", argv + [path] + texts, {}, props)
    return [analyze, untangle], {path: model}


def reduce_pool(variants):
    """Jobs and files for the given variant of every rung, in rung order."""
    jobs, files = [], {}
    for rung, v in enumerate(variants):
        js, fs = _reduce_jobs(rung, v)
        jobs += js
        files |= fs
    return jobs, files


# ---------------------------------------------------------------------------
# check: model checking, translations and topological checking

#: name -> (worlds, target pairs, all reflexive); the unconstrained model
#: "nt" has (worlds, successors per world, None)
CHECK_MODELS = {
    "m0": (60, 900, False),
    "m1": (120, 3000, False),
    "m2": (200, 6000, False),
    "m3": (100, 2000, True),
    "nt": (80, 4, None),
}

#: (slot, kind, model, parameter): the parameter is the formula depth, the
#: number of boxes k, (points, opens) or the translation mode
CHECK_SLOTS = (
    [(f"mc{i:02d}", "mc", ("m0", "m1", "m2")[i % 3], 4 + i % 5) for i in range(12)]
    + [(f"nt{i}", "mc_nt", "nt", 4 + 2 * i) for i in range(3)]
    + [(f"mu{i}", "mc_mu", ("m0", "m1", "m2")[i % 3], 4 + i % 4) for i in range(8)]
    + [(f"d{k:02d}", "mc_d", "m3", k) for k in range(6, 13)]
    + [(f"tmc{i}", "tmc", None, rung) for i, rung in enumerate(
        ((6, 48), (7, 50), (8, 96), (9, 200), (10, 384), (11, 1536)))]
    + [(f"tr{i}", "translate", None, ("mu", "d", "star")[i % 3]) for i in range(6)]
)


def _check_model(name, mv):
    n, size, refl = CHECK_MODELS[name]
    rng = random.Random(f"check/model/{name}/{mv}")
    if refl is None:
        return random_graph(rng, n, size)
    return cluster_dag(rng, n, size, all_reflexive=refl)[0]


def _check_job(slot_index, v, mv):
    slot, kind, model_name, param = CHECK_SLOTS[slot_index]
    jid = f"check/{slot}/v{v}/m{mv}"
    rng = random.Random(jid)
    files = {}
    if model_name:
        path = f"{model_name}v{mv}.json"
        model = _check_model(model_name, mv)
        files[path] = model
        n = len(model["worlds"])
    if kind in ("mc", "mc_nt"):
        tangles = kind == "mc"

        def make(r):
            return formula(r, param, ATOMS, tangles=tangles, fixpoints=True, universal=True)

        phi = sized(rng, make, 10 * (param - 2), (int(tangles), 1))
        text = pretty(phi)
        job = Job(jid, "mc", ["mc", "--format", "structured", path, text],
                  {"type": "mc_mu", "model": path, "formula": text},
                  _model_props(model) | _formula_props(phi, n))
    elif kind == "mc_mu":
        phi = sized(rng, lambda r: formula(r, param, ATOMS, tangles=True, fixpoints=True,
                                           universal=True), 10 * (param - 2), (1, 1))
        mu = to_mu(phi)
        ffile = f"mu-{slot}v{v}m{mv}.txt"
        files[ffile] = parseable(pretty(mu))
        job = Job(jid, "mc", ["mc", path, "--formula-file", ffile],
                  {"type": "mc_same", "model": path, "formula": pretty(phi)},
                  _model_props(model) | _formula_props(mu, n))
    elif kind == "mc_d":
        # one shape for every variant, so the expansion's length depends on k only
        a, b, c = (Atom(rng.choice(ATOMS)) for _ in range(3))
        phi = Or(a, Box(And(b, Dia(c))))
        for _ in range(param):
            phi = Box(phi)
        dtext = to_d(phi)
        ffile = f"d-{slot}v{v}.txt"
        files[ffile] = pretty(dtext)
        job = Job(jid, "mc", ["mc", path, "--formula-file", ffile],
                  {"type": "mc_same", "model": path, "formula": pretty(phi)},
                  _model_props(model) | _formula_props(dtext, n))
    elif kind == "tmc":
        points, opens = param
        space, frame = alexandrov_space(rng, points, opens)
        spath, fpath = f"space-{slot}v{v}.json", f"frame-{slot}v{v}.json"
        files[spath], files[fpath] = space, frame
        derivative = slot_index % 3 == 0
        boxes = (BoxD, DiaD) if derivative else (Box, Dia)
        phi = sized(rng, lambda r: formula(r, 4, ("p", "q"), tangles=not derivative,
                                           fixpoints=False, universal=False, boxes=boxes),
                    20, (0 if derivative else 1, 0))
        text = pretty(phi)
        job = Job(jid, "tmc", ["tmc", "--format", "structured", spath, text],
                  {"type": "tmc", "frame": fpath, "formula": text, "derivative": derivative},
                  {"worlds": points, "opens": opens} | _formula_props(phi, points))
    else:
        mode = param
        tangles, fixpoints = mode != "star", mode != "d"
        phi = sized(rng, lambda r: formula(r, 6, ATOMS, tangles=tangles, fixpoints=fixpoints,
                                           universal=False), 40, (int(tangles), int(fixpoints)))
        fmt = ["--format", "structured"] if v % 2 else []
        # mu keeps meaning on transitive models, d and star on reflexive ones
        ref = "m0" if mode == "mu" else "m3"
        path = f"{ref}v{mv}.json"
        files[path] = _check_model(ref, mv)
        job = Job(jid, "translate", ["translate", "--mode", mode, *fmt, pretty(phi)],
                  {"type": "translate", "model": path, "formula": pretty(phi),
                   "structured": bool(fmt)},
                  _formula_props(phi))
    return job, files


def check_pool(variants, model_variants):
    jobs, files = [], {}
    models = sorted(CHECK_MODELS)
    for i, v in enumerate(variants):
        slot_model = CHECK_SLOTS[i][2] or ("m0" if CHECK_SLOTS[i][3] == "mu" else "m3")
        mv = model_variants[models.index(slot_model)] if CHECK_SLOTS[i][1] != "tmc" else 0
        job, fs = _check_job(i, v, mv)
        jobs.append(job)
        files |= fs
    return jobs, files


# ---------------------------------------------------------------------------
# search: frame validity and bounded satisfiability

@functools.cache
def frames(n):
    """All transitive frames on n worlds up to isomorphism, as model dicts."""
    return [model_to_dict(KripkeModel(f, {})) for f in enumerate_frames(n)]


def _frame_props(data):
    frame = model_from_dict(data).frame
    props = relation_properties(frame)
    return {
        "T": props.reflexive,
        "D": props.serial,
        "C": len(path_components(frame)) == 1,
        "G1": locally_n_connected(frame, 1),
        "G2": locally_n_connected(frame, 2),
    }


p, q, r = Atom("p"), Atom("q"), Atom("r")
#: argument group -> (schema, argument lists); one group's lists differ only in atom names
SCHEMA_ARGS = {
    "G1": ("G1", [()]), "G2": ("G2", [()]), "D": ("D", [()]),
    "T": ("T", [(p,), (q,), (r,)]), "C": ("C", [(p,), (q,), (r,)]),
    "4": ("4", [(p,), (q,), (r,)]),
    "U": ("U", [(Dia(p),), (Dia(q),), (Dia(r),)]),
    "Fix1": ("Fix", [((p,),), ((q,),), ((r,),)]),
    "Fix2": ("Fix", [((p, Dia(q)),), ((q, Dia(r)),), ((r, Dia(p)),)]),
    "4t1": ("4t", [((p,),), ((q,),), ((r,),)]),
    "4t2": ("4t", [((p, Neg(q)),), ((q, Neg(r)),), ((r, Neg(p)),)]),
    "Ind": ("Ind", [((p,), Dia(q)), ((q,), Dia(r)), ((r,), Dia(p))]),
}

#: (slot, argument group, frame worlds, wanted validity: True, False or None for always valid)
VALIDATE_SLOTS = (
    [("G1v", "G1", 4, True), ("G1w", "G1", 3, True), ("G1f", "G1", 4, False), ("G1g", "G1", 4, False)]
    + [("G2v", "G2", 4, True), ("G2w", "G2", 4, True), ("G2x", "G2", 3, True), ("G2f", "G2", 4, False)]
    + [(f"{s}{t}", s, n, want) for s in ("T", "D", "C")
       for t, n, want in (("v", 4, True), ("w", 3, True), ("f", 4, False), ("g", 3, False))]
    + [(f"{s}{i}", s, 4 - i % 2, None) for s in ("4", "U", "Fix1", "Fix2", "4t1", "4t2")
       for i in range(3)]
    + [(f"Ind{i}", "Ind", 4 - i % 2, None) for i in range(3)]
)

#: (slot, profile, --max, answer, atoms, --budget).  ``check``'s tail rank
#: is its 11th slowest job; these costs keep every job whose cost swings
#: between variants away from that rank.
SAT_SLOTS = (
    ("sK4", "K4", 3, "sat", 2, None), ("sK4t", "K4t", 4, "sat", 2, None),
    ("sS4", "S4", 5, "sat", 2, None), ("sKD4", "KD4", 4, "sat", 2, None),
    ("sS4G1t", "S4G1t", 3, "sat", 2, None), ("sKD4tUC", "KD4t.UC", 5, "sat", 2, None),
    ("sK4b", "K4", 5, "sat", 1, None), ("sK4tb", "K4t", 3, "sat", 1, None),
    ("uK4", "K4", 4, "unsat", 1, None), ("uS4", "S4", 4, "unsat", 1, None),
    ("uKD4", "KD4", 3, "unsat", 2, None), ("uK4t", "K4t", 3, "unsat", 1, None),
    ("uS4G1t", "S4G1t", 4, "unsat", 1, None), ("bK4", "K4", 4, "budget", 1, 300),
)


def _validate_job(slot_index, v):
    slot, group, n, want = VALIDATE_SLOTS[slot_index]
    jid = f"search/{slot}/v{v}"
    rng = random.Random(jid)
    schema, arg_lists = SCHEMA_ARGS[group]
    pool = frames(n)
    if want is not None:
        pool = [f for f in pool if _frame_props(f)[schema] == want]
    frame = rng.choice(pool)
    phi = instantiate(schema, *rng.choice(arg_lists))
    path = f"frame-{slot}v{v}.json"
    text = pretty(phi)
    return (Job(jid, "validate", ["validate", "--format", "structured", "--frame", path, text],
                {"schema": schema}, {"worlds": n, "pairs": len(frame["rel"])}
                | _formula_props(phi, n)),
            {path: frame})


def _sat_formula(rng, profile_name, answer, atoms):
    names = ATOMS[:atoms]
    prof = parse_profile(profile_name)
    tangles = "tangle" in prof.fragment
    universal = "universal" in prof.fragment
    if answer == "sat":
        # true at the first world of a random model of the profile's class
        # with at most three worlds, so the search stops by then
        size = rng.randint(2, 3)
        frame = rng.choice(list(enumerate_frames(
            size, serial=prof.serial, reflexive=prof.reflexive, connected=prof.connected,
            local_connectedness=prof.local_connectedness)))
        val = {a: [w for w in frame.worlds if rng.random() < 0.5] for a in names}
        phi = formula(rng, 3, names, tangles=tangles, fixpoints=False, universal=universal)
        holds = "w0" in model_check(KripkeModel(frame, val), phi)
        return phi if holds else Neg(phi)
    psi = modal(rng, 2, names)
    while not free_atoms(psi) >= set(names):
        psi = And(psi, _literal(rng, names))
    # unsatisfiable on every frame of the class by the K rules and the
    # class's frame condition
    if prof.reflexive:
        return And(Box(psi), Neg(psi))
    if prof.serial:
        return And(Box(psi), Box(Neg(psi)))
    if tangles:
        return And(Tangle((psi, _literal(rng, names))), Box(Neg(psi)))
    return And(Dia(psi), Box(Neg(psi)))


def _sat_job(slot_index, v):
    slot, profile, max_worlds, answer, atoms, budget = SAT_SLOTS[slot_index]
    jid = f"search/{slot}/v{v}"
    rng = random.Random(jid)
    phi = _sat_formula(rng, profile, answer, atoms)
    argv = ["sat", "--format", "structured", "--profile", profile, "--max", str(max_worlds)]
    argv += ["--budget", str(budget)] if budget else []
    return Job(jid, "sat", argv + [pretty(phi)],
               {"profile": profile, "answer": answer, "max": max_worlds, "budget": budget},
               _formula_props(phi, max_worlds))


def search_pool(validate_variants, sat_variants):
    jobs, files = [], {}
    for i, v in enumerate(validate_variants):
        job, fs = _validate_job(i, v)
        jobs.append(job)
        files |= fs
    for i, v in enumerate(sat_variants):
        jobs.append(_sat_job(i, v))
    return jobs, files


# ---------------------------------------------------------------------------
# Seeds, files and histograms


def slot_counts(workload):
    """Slot count of each variant group: the models of ``reduce``; the
    queries, their models, validity checks and searches of ``check``."""
    if workload == "reduce":
        return (len(REDUCE_RUNGS),)
    return (len(CHECK_SLOTS), len(CHECK_MODELS), len(VALIDATE_SLOTS), len(SAT_SLOTS))


def build(workload, variants):
    """Jobs and files for explicit variant choices (one list per slot group)."""
    if workload == "reduce":
        return reduce_pool(*variants)
    jobs, files = check_pool(*variants[:2])
    more_jobs, more_files = search_pool(*variants[2:])
    return jobs + more_jobs, files | more_files


def choose(workload, seed):
    """The seed's variant choices, and the generator that orders the jobs."""
    rng = random.Random(f"bench/{workload}/{seed}")
    counts = slot_counts(workload)
    variants = tuple([rng.randrange(MODEL_VARIANTS if group == 1 and workload == "check"
                                    else VARIANTS) for _ in range(c)]
                     for group, c in enumerate(counts))
    return variants, rng


def jobs_for_seed(workload, seed):
    variants, rng = choose(workload, seed)
    jobs, files = build(workload, variants)
    if workload == "reduce":
        # analyze and untangle alternate; the models come in seeded order
        pairs = [jobs[i:i + 2] for i in range(0, len(jobs), 2)]
        rng.shuffle(pairs)
        jobs = [job for pair in pairs for job in pair]
    else:
        rng.shuffle(jobs)
    return jobs, files


def pool_variants(workload):
    """build() arguments that together cover every pool entry."""
    counts = slot_counts(workload)
    if workload == "reduce":
        return [([v] * counts[0],) for v in range(VARIANTS)]
    return [([v] * counts[0], [mv] * counts[1], [v] * counts[2], [v] * counts[3])
            for v in range(VARIANTS) for mv in range(MODEL_VARIANTS)]


def histogram(jobs):
    """Per input property, the job count in each power-of-two bucket
    (bucket b holds values in [2^b, 2^(b+1)))."""
    out = {}
    for job in jobs:
        for key, value in job.props.items():
            bucket = str(int(math.log2(value))) if value >= 1 else "-inf"
            out.setdefault(key, {}).setdefault(bucket, 0)
            out[key][bucket] += 1
    return {k: dict(sorted(b.items(), key=lambda kv: float(kv[0]))) for k, b in sorted(out.items())}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def load_expected(workload):
    path = EXPECTED_DIR / f"{workload}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def write(workdir: Path, workload, jobs, files, expected) -> None:
    """Write the input files, ``jobs.json`` and ``inputs.json`` (the input
    property histogram) into ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (workdir / name).write_text(text, encoding="utf-8")
    records = []
    for job in jobs:
        exit_code, dig = expected.get(job.id, (None, None))
        records.append({"id": job.id, "kind": job.kind, "argv": job.argv, "check": job.check,
                        "expect": {"exit": exit_code, "digest": dig}})
    (workdir / "jobs.json").write_text(json.dumps({"workload": workload, "jobs": records}))
    (workdir / "inputs.json").write_text(json.dumps(
        {"workload": workload, "jobs": len(jobs), "histogram": histogram(jobs)}, indent=1))
