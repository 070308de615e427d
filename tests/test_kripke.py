"""Relational semantics: evaluator against a naive oracle, frame analyses,
serialization."""

import copy
import dataclasses
import itertools
import pickle
import random
import re
import threading

import pytest

from tangles import (
    Atom,
    free_atoms,
    Bot,
    Box,
    BoxD,
    ClusterDecomposition,
    Dia,
    DiaD,
    Evaluator,
    Exists,
    FiniteSpace,
    Forall,
    Frame,
    Iff,
    Implies,
    KripkeModel,
    Mu,
    Neg,
    NonTransitiveError,
    Nu,
    Or,
    And,
    RelationProperties,
    Tangle,
    TangleD,
    Top,
    TopoModel,
    closures,
    cluster_decomposition,
    enumerate_frames,
    generated_submodel,
    locally_n_connected,
    min_local_connectedness,
    model_check,
    model_from_dict,
    model_from_json,
    model_to_dict,
    model_to_json,
    parse,
    path_components,
    pretty,
    subformula_closure,
    relation_properties,
    tangle_oracle,
    to_dot,
)
import tangles.kripke as kmod
from tangles.cli import _model_lines
from tangles.kripke import compile_formulas
from tangles.topo import _evaluator as _space_evaluator
from gen import random_formula, random_model, random_shared_formula, random_space
from oracles import valuation_masks, tree_extension

p, q = Atom("p"), Atom("q")


# ---------------------------------------------------------------------------
# Oracle: plain set-based recursion, no masks, fixpoints by iteration


def naive_extension(model, phi, env=None):
    env = env or {}
    worlds = frozenset(model.frame.worlds)
    rel = model.frame.rel

    def pre(target):
        return frozenset(w for w in worlds if any((w, v) in rel for v in target))

    def go(f, env):
        name = type(f).__name__
        if name == "Atom":
            return env[f.name] if f.name in env else model.val.get(f.name, frozenset())
        if name == "Top":
            return worlds
        if name == "Bot":
            return frozenset()
        if name == "Neg":
            return worlds - go(f.sub, env)
        if name == "And":
            return go(f.left, env) & go(f.right, env)
        if name == "Or":
            return go(f.left, env) | go(f.right, env)
        if name == "Implies":
            return (worlds - go(f.left, env)) | go(f.right, env)
        if name == "Iff":
            a, b = go(f.left, env), go(f.right, env)
            return (a & b) | (worlds - a - b)
        if name in ("Box", "BoxD"):
            s = go(f.sub, env)
            return frozenset(
                w for w in worlds if all(v in s for v in model.frame.successors(w))
            )
        if name in ("Dia", "DiaD"):
            return pre(go(f.sub, env))
        if name == "Forall":
            return worlds if go(f.sub, env) == worlds else frozenset()
        if name == "Exists":
            return worlds if go(f.sub, env) else frozenset()
        if name in ("Tangle", "TangleD"):
            cur = worlds
            while True:
                nxt = cur
                for m in f.members:
                    nxt = nxt & pre(cur & go(m, env))
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
            cur = worlds
            while True:
                nxt = go(f.body, {**env, f.var: cur})
                if nxt == cur:
                    return cur
                cur = nxt
        raise TypeError(name)

    return go(phi, env)


@pytest.mark.parametrize("seed", range(200))
def test_evaluator_matches_oracle(seed):
    rng = random.Random(seed)
    if seed % 2:
        model = random_model(rng, 6, kind="transitive")
        phi = random_formula(rng, rng.randint(0, 4), tangles=True, fixpoints=True,
                             universal=True, derivative=True)
    else:
        model = random_model(rng, 6, kind="general")
        phi = random_formula(rng, rng.randint(0, 4), tangles=False, fixpoints=True,
                             universal=True, derivative=True)
    assert model_check(model, phi) == naive_extension(model, phi)


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame((), frozenset())
    with pytest.raises(ValueError):
        Frame(("w", "w"), frozenset())
    with pytest.raises(ValueError):
        Frame(("w",), frozenset({("w", "x")}))
    with pytest.raises(ValueError):
        KripkeModel(Frame(("w",), frozenset()), {"p": {"ghost"}})


def test_model_equality_ignores_empty_valuations():
    f = Frame(("a",), frozenset({("a", "a")}))
    assert KripkeModel(f, {"p": {"a"}, "q": set()}) == KripkeModel(f, {"p": {"a"}})
    assert KripkeModel(f, {"p": {"a"}}) != KripkeModel(f, {})


def test_models_hash_by_value_and_repr_their_size():
    frame = Frame(("a", "b"), frozenset({("a", "b")}))
    m = KripkeModel(frame, {"q": (), "p": ["a"]})
    same = KripkeModel(Frame(("a", "b"), frozenset({("a", "b")})), {"p": {"a"}})
    assert hash(m) == hash(same) and len({m, same, KripkeModel(frame, {})}) == 2
    assert repr(m) == "KripkeModel(worlds=2, atoms=['p', 'q'])"
    space = FiniteSpace(("x", "y"), [set(), {"y"}, {"x", "y"}])
    assert repr(TopoModel(space, {"p": {"y"}})) == "TopoModel(points=2, atoms=['p'])"


def test_relation_properties():
    f = Frame(("a", "b"), frozenset({("a", "b"), ("a", "a"), ("b", "b")}))
    props = relation_properties(f)
    assert props.reflexive and props.transitive and props.serial
    g = Frame(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")}))
    props = relation_properties(g)
    assert not props.reflexive and not props.transitive and not props.serial


@pytest.mark.parametrize("seed", range(40))
def test_closures(seed):
    rng = random.Random(2000 + seed)
    frame = random_model(rng, 6, kind="general").frame
    closed = closures(frame)
    assert relation_properties(closed.transitive).transitive
    rt = relation_properties(closed.reflexive_transitive)
    assert rt.transitive and rt.reflexive
    assert frame.rel <= closed.transitive.rel <= closed.reflexive_transitive.rel
    # idempotent
    assert closures(closed.transitive).transitive == closed.transitive
    # minimality: dropping any added pair breaks transitivity
    for pair in closed.transitive.rel - frame.rel:
        weaker = Frame(frame.worlds, closed.transitive.rel - {pair})
        assert not relation_properties(weaker).transitive


@pytest.mark.parametrize("seed", range(60))
def test_cluster_decomposition(seed):
    rng = random.Random(3000 + seed)
    frame = random_model(rng, 7, kind="transitive").frame
    dec = cluster_decomposition(frame)
    seen = set()
    for i, cluster in enumerate(dec.clusters):
        for w in cluster:
            assert w not in seen
            seen.add(w)
            assert dec.cluster_of(w) == i
            # mutual reachability defines the cluster
            mates = {
                v
                for v in frame.worlds
                if v != w and (w, v) in frame.rel and (v, w) in frame.rel
            } | {w}
            assert mates == set(cluster)
        assert dec.degenerate[i] == (
            len(cluster) == 1 and (min(cluster), min(cluster)) not in frame.rel
        )
    assert seen == set(frame.worlds)
    for (i, j) in dec.order:
        assert i != j
        assert dec.rank[i] > dec.rank[j]
    # maximal clusters have rank 1
    for i in range(len(dec.clusters)):
        succs = [j for (a, j) in dec.order if a == i]
        assert (dec.rank[i] == 1) == (not succs)


def test_cluster_of_refuses_unknown_worlds():
    dec = cluster_decomposition(Frame(("a", "b"), frozenset({("a", "b")})))
    assert dec.cluster_of("b") == 1
    with pytest.raises(KeyError):
        dec.cluster_of("c")


def test_cluster_decomposition_needs_transitive():
    chain = Frame(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")}))
    with pytest.raises(NonTransitiveError):
        cluster_decomposition(chain)


def test_path_components():
    f = Frame(
        ("a", "b", "c", "d"),
        frozenset({("a", "b"), ("c", "d")}),
    )
    assert path_components(f) == (frozenset({"a", "b"}), frozenset({"c", "d"}))
    # direction is ignored
    g = Frame(("a", "b", "c"), frozenset({("b", "a"), ("b", "c")}))
    assert path_components(g) == (frozenset({"a", "b", "c"}),)


def fork_frame():
    # irreflexive root seeing two reflexive points
    return Frame(
        ("r", "x", "y"),
        frozenset({("r", "x"), ("r", "y"), ("x", "x"), ("y", "y")}),
    )


def test_local_connectedness():
    fork = fork_frame()
    assert not locally_n_connected(fork, 1)
    assert locally_n_connected(fork, 2)
    assert min_local_connectedness(fork) == 2
    refl = Frame(("a",), frozenset({("a", "a")}))
    assert locally_n_connected(refl, 1)
    assert min_local_connectedness(refl) == 1
    # empty successor sets never violate the bound
    point = Frame(("a",), frozenset())
    assert locally_n_connected(point, 1)
    # the components must connect inside the successor set: b <- a -> c with
    # b -> d <- c is still 2 at a when d is not a successor of a
    detour = Frame(
        ("a", "b", "c", "d"),
        frozenset({("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "d")}),
    )
    assert not locally_n_connected(detour, 1)


def test_tangle_needs_transitivity():
    chain = Frame(("a", "b", "c"), frozenset({("a", "b"), ("b", "c"), ("c", "c")}))
    model = KripkeModel(chain, {"p": {"c"}})
    with pytest.raises(NonTransitiveError):
        model_check(model, Tangle((p,)))
    with pytest.raises(NonTransitiveError):
        model_check(model, TangleD((p,)))


def test_tangle_concrete():
    # two-world cluster alternating p and q
    f = Frame(("a", "b"), frozenset({("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")}))
    m = KripkeModel(f, {"p": {"a"}, "q": {"b"}})
    assert model_check(m, Tangle((p, q))) == {"a", "b"}
    # a degenerate point reaching that cluster also tangles
    g = Frame(
        ("s", "a", "b"),
        frozenset(
            {("s", "a"), ("s", "b"), ("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")}
        ),
    )
    gm = KripkeModel(g, {"p": {"a"}, "q": {"b"}})
    assert model_check(gm, Tangle((p, q))) == {"s", "a", "b"}
    # but not when one member never holds inside the cluster
    gm2 = KripkeModel(g, {"p": {"a"}, "q": {"s"}})
    assert model_check(gm2, Tangle((p, q))) == frozenset()


@pytest.mark.parametrize("seed", range(80))
def test_tangle_matches_lasso_oracle(seed):
    rng = random.Random(4000 + seed)
    model = random_model(rng, 6, kind="transitive")
    members = tuple(
        random_formula(rng, rng.randint(0, 2), tangles=False, fixpoints=False)
        for _ in range(rng.randint(1, 2))
    )
    got = model_check(model, Tangle(members))
    for w in model.frame.worlds:
        assert (w in got) == tangle_oracle(model, w, members)


def test_tangle_oracle_agrees_on_every_small_transitive_frame():
    # one- and two-member tangles of literals over p and q, at every world
    # of every transitive frame of 1-3 worlds up to isomorphism, under every
    # valuation: the evaluator's cluster criterion against the lasso search
    literals = [p, Neg(p), q, Neg(q)]
    members = [(m,) for m in literals] + list(itertools.combinations(literals, 2))
    program = compile_formulas([Tangle(ms) for ms in members])
    counts = []
    for n in range(1, 4):
        frames = list(enumerate_frames(n))
        counts.append(len(frames))
        full = (1 << n) - 1
        for frame in frames:
            roots = Evaluator(frame).run_block(program, ("p", "q"), 0, 1 << 2 * n)
            for v in range(1 << 2 * n):
                val = {"p": frame.unmask(v >> n), "q": frame.unmask(v & full)}
                model = KripkeModel(frame, val)
                for ms, root in zip(members, roots):
                    for w, bits in zip(frame.worlds, root):
                        want = bool(bits >> v & 1)
                        assert tangle_oracle(model, w, ms) == want, (frame.succ, v, w, ms)
    assert counts == [2, 8, 39]


@pytest.mark.parametrize("seed", range(60))
def test_generated_submodel_preserves_local_truth(seed):
    rng = random.Random(5000 + seed)
    model = random_model(rng, 6, kind="transitive")
    root = rng.choice(model.frame.worlds)
    sub = generated_submodel(model, root)
    assert root in sub.frame.worlds
    for w in sub.frame.worlds:
        assert sub.frame.successors(w) == model.frame.successors(w)
    phi = random_formula(rng, rng.randint(0, 4), tangles=True, fixpoints=True)
    inside = model_check(sub, phi)
    whole = model_check(model, phi)
    for w in sub.frame.worlds:
        assert (w in inside) == (w in whole)


def test_generated_submodel_requires_known_root():
    m = random_model(random.Random(0), 4)
    with pytest.raises(KeyError):
        generated_submodel(m, "nowhere")


@pytest.mark.parametrize("seed", range(30))
def test_json_round_trip(seed):
    model = random_model(random.Random(6000 + seed), 6, kind="general")
    assert model_from_json(model_to_json(model)) == model
    data = model_to_dict(model)
    assert model_from_dict(data) == model


def test_model_dict_val_optional():
    m = model_from_dict({"worlds": ["a"], "rel": [["a", "a"]]})
    assert m == KripkeModel(Frame(("a",), frozenset({("a", "a")})), {})


def test_to_dot_smoke():
    m = random_model(random.Random(1), 4, kind="transitive")
    text = to_dot(m)
    assert text.startswith("digraph")
    for w in m.frame.worlds:
        assert w in text
    assert "->" in text or len(m.frame.rel) == 0
    # frames work too
    assert to_dot(m.frame).startswith("digraph")


_DOT_SYMBOL = re.compile(r"->|[\w#]+|.")


def _dot_tokens(text):
    """The tokens of DOT ``text``, a quoted string as ``("string", text)``
    read under DOT's rules: ``\\"`` stands for a quote, a backslash before
    a newline is dropped, and any other character stands for itself."""
    tokens, i = [], 0
    while i < len(text):
        if text[i].isspace():
            i += 1
        elif text[i] == '"':
            chars, i = [], i + 1
            while text[i] != '"':
                if text[i] == "\\" and text[i + 1] in '"\n':
                    chars.append(text[i + 1].strip("\n"))
                    i += 2
                else:
                    chars.append(text[i])
                    i += 1
            tokens.append(("string", "".join(chars)))
            i += 1
        else:
            symbol = _DOT_SYMBOL.match(text, i)
            tokens.append(symbol[0])
            i = symbol.end()
    return tokens


def _graphviz_label(label):
    """The text of a graphviz label: ``\\\\`` is a backslash and ``\\n``
    a line break; the writer uses no other escape."""
    assert all(m[1] in "\\n" for m in re.finditer(r"\\(.)", label, re.S))
    return re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], label, flags=re.S)


@pytest.mark.parametrize("transitive", [False, True])
def test_to_dot_quotes_names_that_read_back(transitive):
    names = ('a"b', "c\\d", "e\\", '\\"', "f\\\ng", "h")
    pairs = {(names[0], names[1]), (names[1], names[2]), (names[3], names[4])}
    if transitive:
        pairs.add((names[0], names[2]))
    val = {"p": {"e\\", "h"}, "q\\": {"e\\"}}
    tokens = _dot_tokens(to_dot(KripkeModel(Frame(names, frozenset(pairs)), val)))
    labels, edges = {}, set()
    for k in range(len(tokens) - 4):
        first, mark = tokens[k], tokens[k + 1]
        if mark == "[" and tokens[k + 2] == "label":
            labels[first[1]] = _graphviz_label(tokens[k + 4][1])
        elif mark == "->":
            edges.add((first[1], tokens[k + 2][1]))
    for w in names:
        atoms = ", ".join(sorted(a for a, ws in val.items() if w in ws))
        assert labels.pop(w) == (f"{w}\n{atoms}" if atoms else w)
    assert not labels
    assert edges == pairs


# ---------------------------------------------------------------------------
# Pair-set oracles: the structure analyses run on the frame's bitmask index,
# and each is checked here against its plain definition over ``frame.rel``


def oracle_successors(frame, w):
    return frozenset(v for (u, v) in frame.rel if u == w)


def oracle_properties(frame):
    rel = frame.rel
    succ = {w: oracle_successors(frame, w) for w in frame.worlds}
    return RelationProperties(
        reflexive=all((w, w) in rel for w in frame.worlds),
        transitive=all(succ[v] <= succ[u] for (u, v) in rel),
        serial=all(succ[w] for w in frame.worlds),
    )


def oracle_transitive_closure(frame):
    """Pairs (u, x) with a path of length at least one from u to x."""
    succ = {w: oracle_successors(frame, w) for w in frame.worlds}
    pairs = set()
    for u in frame.worlds:
        stack = list(succ[u])
        reached = set(stack)
        while stack:
            for x in succ[stack.pop()]:
                if x not in reached:
                    reached.add(x)
                    stack.append(x)
        pairs |= {(u, x) for x in reached}
    return frozenset(pairs)


def oracle_cluster_decomposition(frame):
    """Clusters by mutual reachability, rank as the longest chain."""
    rel = frame.rel
    assigned = {}
    clusters = []
    for w in frame.worlds:
        if w in assigned:
            continue
        mates = {w} | {v for v in frame.worlds if (w, v) in rel and (v, w) in rel}
        for v in mates:
            assigned[v] = len(clusters)
        clusters.append(frozenset(mates))
    degenerate = tuple(
        len(c) == 1 and (min(c), min(c)) not in rel for c in clusters
    )
    order = frozenset(
        (assigned[u], assigned[v]) for (u, v) in rel if assigned[u] != assigned[v]
    )
    rank = {}

    def chain(i):
        if i not in rank:
            rank[i] = 1 + max((chain(j) for (a, j) in order if a == i), default=0)
        return rank[i]

    ranks = tuple(chain(i) for i in range(len(clusters)))
    return ClusterDecomposition(tuple(clusters), degenerate, order, ranks)


def oracle_components(worlds, pairs):
    """Components of the symmetrised pairs over an adjacency dict, ordered
    by first world."""
    adj = {w: set() for w in worlds}
    for (u, v) in pairs:
        if u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    seen = set()
    out = []
    for w in worlds:
        if w in seen:
            continue
        comp = {w}
        stack = [w]
        while stack:
            for v in adj[stack.pop()]:
                if v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        out.append(frozenset(comp))
    return tuple(out)


def oracle_local_counts(frame):
    """Per world with successors, the components of its successor set
    using only the pairs inside it."""
    counts = []
    for w in frame.worlds:
        succ = oracle_successors(frame, w)
        if succ:
            inner = [(u, v) for (u, v) in frame.rel if u in succ and v in succ]
            inside = [v for v in frame.worlds if v in succ]
            counts.append(len(oracle_components(inside, inner)))
    return counts


def check_against_oracles(frame):
    worlds = frame.worlds
    assert frame.index == {w: i for i, w in enumerate(worlds)}
    for i, w in enumerate(worlds):
        succ = oracle_successors(frame, w)
        assert frame.successors(w) == succ
        assert frame.succ[i] == sum(1 << j for j, v in enumerate(worlds) if v in succ)
        assert frame.pred[i] == sum(
            1 << j for j, v in enumerate(worlds) if (v, w) in frame.rel
        )
    props = oracle_properties(frame)
    assert relation_properties(frame) == props
    assert frame.transitive == props.transitive
    closed = closures(frame)
    assert closed.transitive.rel == oracle_transitive_closure(frame)
    assert closed.reflexive_transitive.rel == closed.transitive.rel | {
        (w, w) for w in worlds
    }
    assert path_components(frame) == oracle_components(worlds, frame.rel)
    counts = oracle_local_counts(frame)
    for n in range(4):
        assert locally_n_connected(frame, n) == all(c <= n for c in counts)
    assert min_local_connectedness(frame) == max(counts, default=1)
    if props.transitive:
        assert cluster_decomposition(frame) == oracle_cluster_decomposition(frame)
    else:
        with pytest.raises(NonTransitiveError):
            cluster_decomposition(frame)


def layered_frame(rng, n):
    """A binary tree with some child-to-parent edges and a few extra
    forward edges, so that its transitive closure has small clusters, long
    chains and successor sets that split into several components."""
    worlds = tuple(f"w{i}" for i in range(n))
    pairs = set()
    for i in range(1, n):
        parent = worlds[(i - 1) // 2]
        pairs.add((parent, worlds[i]))
        if rng.random() < 0.3:
            pairs.add((worlds[i], parent))
    for i in range(n):
        if rng.random() < 0.8:
            pairs.add((worlds[i], worlds[i]))
        if rng.random() < 0.2:
            j = rng.randrange(n)
            pairs.add((worlds[min(i, j)], worlds[max(i, j)]))
    return Frame(worlds, frozenset(pairs))


@pytest.mark.parametrize("seed", range(120))
def test_structure_matches_pair_oracles(seed):
    rng = random.Random(7000 + seed)
    kind = ("general", "transitive", "serial", "reflexive")[seed % 4]
    model = random_model(rng, 8, kind=kind)
    check_against_oracles(model.frame)
    root = rng.choice(model.frame.worlds)
    keep = {root} | {v for (u, v) in oracle_transitive_closure(model.frame) if u == root}
    sub = generated_submodel(model, root)
    assert sub.frame == Frame(
        tuple(w for w in model.frame.worlds if w in keep),
        frozenset((u, v) for (u, v) in model.frame.rel if u in keep and v in keep),
    )


@pytest.mark.parametrize("seed", range(4))
def test_structure_matches_pair_oracles_on_large_frames(seed):
    rng = random.Random(7500 + seed)
    base = layered_frame(rng, rng.randint(60, 120))
    check_against_oracles(base)
    frame = closures(base).transitive
    check_against_oracles(frame)
    dec = cluster_decomposition(frame)
    # the frames must exercise clusters and long chains
    assert 1 < len(dec.clusters) < len(frame.worlds) and max(dec.rank) > 2


def test_frame_index_is_lazy_and_not_part_of_the_value():
    f = Frame(("a", "b"), frozenset({("a", "b")}))
    assert "succ" not in vars(f)
    assert f.succ == (0b10, 0)
    g = Frame(("a", "b"), frozenset({("a", "b")}))
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert "succ" in vars(f) and "succ" not in vars(g)


@pytest.mark.parametrize("seed", range(40))
def test_row_built_frames_match_pair_built_ones(seed):
    rng = random.Random(7700 + seed)
    if seed % 8 == 7:
        frame = closures(layered_frame(rng, rng.randint(60, 120))).transitive
    else:
        kind = ("general", "transitive", "serial", "reflexive")[seed % 4]
        frame = random_model(rng, 9, kind=kind).frame
    built = Frame.from_rows(frame.worlds, frame.succ)
    assert "rel" not in vars(built) and vars(built)["succ"] == frame.succ
    for copied in (copy.copy(built), pickle.loads(pickle.dumps(built)),
                   dataclasses.replace(built)):
        assert copied == frame and copied.succ == frame.succ
    check_against_oracles(built)
    assert built == frame and hash(built) == hash(frame)
    # the loader builds both rows in its one pass over the pairs, in any
    # order and with repeats
    pairs = [list(p) for p in sorted(frame.rel)]
    rng.shuffle(pairs)
    loaded = model_from_dict({"worlds": list(frame.worlds), "rel": pairs + pairs[:3]}).frame
    assert vars(loaded)["succ"] == frame.succ and vars(loaded)["pred"] == frame.pred
    check_against_oracles(loaded)
    assert loaded == frame


@pytest.mark.parametrize("seed", range(20))
def test_writers_list_pairs_in_world_order(seed):
    # world names whose string order differs from the frame's order
    rng = random.Random(7900 + seed)
    base = random_model(rng, 9, kind="general")
    names = {w: f"{rng.choice('xyz')}{rng.randrange(100)}_{i}" for i, w in enumerate(base.frame.worlds)}
    frame = Frame(tuple(names[w] for w in base.frame.worlds),
                  frozenset((names[u], names[v]) for u, v in base.frame.rel))
    model = KripkeModel(frame, {a: {names[w] for w in ws} for a, ws in base.val.items()})
    order = frame.index
    want = sorted(frame.rel, key=lambda p: (order[p[0]], order[p[1]]))
    assert [tuple(p) for p in model_to_dict(model)["rel"]] == want
    edges = [line for line in to_dot(model).splitlines() if "->" in line]
    assert edges == [f'  "{u}" -> "{v}";' for u, v in want]
    assert _model_lines(model)[1] == "rel: " + " ".join(f"{u}->{v}" for u, v in want)


def test_row_built_frame_validation():
    with pytest.raises(ValueError):
        Frame.from_rows((), ())
    with pytest.raises(ValueError):
        Frame.from_rows(("w", "w"), (0, 0))
    with pytest.raises(ValueError):
        Frame.from_rows(("w",), (0b10,))
    with pytest.raises(ValueError):
        Frame.from_rows(("w",), (0, 0))
    with pytest.raises(ValueError):
        Frame.from_rows(("w",), (-1,))
    with pytest.raises(AttributeError):
        Frame.from_rows(("w",), (1,)).missing


def test_stray_pairs_are_named_in_the_given_order():
    pairs = [("a", "x1"), ("a", "x2"), ("y3", "a")]
    with pytest.raises(ValueError, match=r"\('a', 'x1'\)"):
        Frame(("a",), pairs)
    with pytest.raises(ValueError, match=r"\('y3', 'a'\)"):
        model_from_dict({"worlds": ["a"], "rel": [["a", "a"], ["y3", "a"], ["a", "x1"]]})
    # malformed data and world errors come first, as before
    with pytest.raises(ValueError, match="malformed"):
        model_from_dict({"worlds": ["a"], "rel": [["a", "x"], ["a"]]})
    with pytest.raises(ValueError, match="duplicate"):
        model_from_dict({"worlds": ["a", "a"], "rel": [["a", "x"]]})


# ---------------------------------------------------------------------------
# Compiled programs against the tree evaluator


def _evaluators_agree(ev, phis, val):
    """Each formula's extension, or the exception it raises, from the
    compiled program and from the tree evaluator."""
    for phi in phis:
        try:
            want = tree_extension(ev, phi, val)
        except NonTransitiveError:
            with pytest.raises(NonTransitiveError):
                ev.extension(phi, val)
            continue
        assert ev.extension(phi, val) == want, pretty(phi)
    if ev.frame.transitive:
        # one program for all of them computes the same extensions
        assert ev.extensions(phis, val) == [tree_extension(ev, f, val) for f in phis]


@pytest.mark.parametrize("seed", range(150))
def test_compiled_evaluator_matches_tree_oracle(seed):
    rng = random.Random(8100 + seed)
    kind = ("transitive", "reflexive", "general")[seed % 3]
    model = random_model(rng, 7, atoms=("p", "q", "x", "y"), kind=kind)
    ev = Evaluator(model.frame)
    roots = [random_shared_formula(rng, rng.randint(1, 6)) for _ in range(4)]
    phis = roots + [f for f in subformula_closure(roots).sorted() if f not in roots]
    for val in (ev.valuation_masks(model.val), {"p": 0b101, "x": ev.full}):
        _evaluators_agree(ev, phis, val)


@pytest.mark.parametrize("seed", range(60))
def test_compiled_evaluator_matches_tree_oracle_on_spaces(seed):
    rng = random.Random(8400 + seed)
    model = random_space(rng, 5, atoms=("p", "q", "x"))
    ev = _space_evaluator(model.space)
    phis = [random_shared_formula(rng, rng.randint(1, 6)) for _ in range(4)]
    _evaluators_agree(ev, phis, ev.valuation_masks(model.val))


@pytest.mark.parametrize(
    "text",
    [
        "x & (mu x. x | <>x)",  # x free outside the binder, bound inside
        "(mu x. <>x | p) & (nu x. <>x & q) & <>x",  # one <>x, three meanings
        "nu y. mu x. <>x | p & []y",  # alternation
        "mu x. nu y. [](y & <>x) | <t>{x, y & q}",  # a tangle under two binders
        "nu x. <t>{<>x, mu y. p | <>(y & x)}",  # a binder inside a tangle member
        "mu x. p | <>(nu x. <>x & q) | <>x",  # shadowing
    ],
)
def test_compiled_evaluator_keeps_binding_contexts_apart(text):
    # every subformula on its own, with its free names read from the
    # valuation, and all of them in one program
    members = subformula_closure([parse(text)]).sorted()
    rng = random.Random(text)
    for _ in range(20):
        ev = Evaluator(random_model(rng, 6, atoms=()).frame)
        val = {a: rng.randrange(ev.full + 1) for a in ("p", "q", "x", "y")}
        _evaluators_agree(ev, members, val)


def test_fixpoint_loop_repeats_only_what_mentions_its_variable():
    # []<>p and q are computed once; only <>x and the disjunction iterate
    phi = parse("mu x. []<>p & q | <>x")
    code = compile_formulas([phi]).code
    ops = [ins[0] for ins in code]
    start = ops.index(kmod._FIX) + 1
    end = ops.index(kmod._LOOP)
    assert len(code[:start - 1]) == 5  # p, <>p, []<>p, q, []<>p & q
    assert [ins[0] for ins in code[start:end]] == [kmod._DIA, kmod._OR]
    assert code[end][3][1] == start  # the loop jumps back to just after _FIX
    # a subformula of both binders repeats in the inner loop; p stays outside
    code = compile_formulas([parse("nu y. mu x. <>(x & y) | p")]).code
    ops = [ins[0] for ins in code]
    assert ops == [kmod._ATOM, kmod._FIX, kmod._FIX, kmod._AND, kmod._DIA, kmod._OR,
                   kmod._LOOP, kmod._LOOP]


def test_a_fixpoint_compiled_inside_a_loop_is_shared_at_top_level():
    # nu x. <>x mentions no name the outer binder binds, so it runs once
    # before the outer loop, and the second root reads that loop's slot
    # instead of compiling it again into two dead slots
    outer, inner = parse("mu y. (nu x. <>x) | <>y"), parse("nu x. <>x")
    alone = compile_formulas([outer])
    program = compile_formulas([outer, inner])
    assert (program.size, program.code) == (7, alone.code)
    assert program.roots == (alone.roots[0], program.code[0][1])
    assert program.code[0][:3] == (kmod._FIX, program.code[0][1], True)


def test_fixpoint_iteration_is_capped():
    # a loop whose body negates its variable never settles; n + 2 rounds end it
    ev = Evaluator(Frame(("a",), frozenset()))
    program = kmod.Program(
        code=((kmod._FIX, 0, False, 1), (kmod._NOT, 2, 0, 0), (kmod._LOOP, 0, 2, (1, 1))),
        size=3, roots=(0,), tangles=False,
    )
    with pytest.raises(RuntimeError, match="failed to stabilize"):
        ev.run(program, {})


def _block_outcome(ev, program, atoms, start, size):
    """The bitsliced run's roots as one world mask per valuation and root,
    or the type of the error it raised."""
    try:
        slots = ev.run_block(program, atoms, start, size)
    except NonTransitiveError as exc:
        return type(exc)
    return [
        [sum((slot[w] >> v & 1) << w for w in range(ev.n)) for slot in slots]
        for v in range(size)
    ]


def _scalar_outcome(ev, program, valuations):
    try:
        return [ev.run(program, val) for val in valuations]
    except NonTransitiveError as exc:
        return type(exc)


@pytest.mark.parametrize("seed", range(60))
def test_run_block_matches_run_bit_by_bit(seed):
    # a block of random size at a random place in the valuation space, on
    # transitive, reflexive and general frames, with the d-relation the
    # frame's own or punctured; tangles raise on a general frame in both
    rng = random.Random(8700 + seed)
    kind = ("transitive", "reflexive", "general")[seed % 3]
    frame = random_model(rng, 4, atoms=(), kind=kind).frame
    punctured = tuple(row & ~(1 << i) for i, row in enumerate(frame.succ))
    ev = Evaluator(frame, rng.choice([None, punctured]))
    roots = [random_shared_formula(rng, rng.randint(1, 6)) for _ in range(3)]
    program = compile_formulas(roots)
    atoms = sorted(set().union(*map(free_atoms, roots)))
    n = len(frame.worlds)
    width = rng.randint(0, min(8, len(atoms) * n))
    start = rng.randrange(1 << (len(atoms) * n - width)) << width
    valuations = list(valuation_masks(atoms, n))[start:start + (1 << width)]
    assert _block_outcome(ev, program, atoms, start, 1 << width) == _scalar_outcome(
        ev, program, valuations
    )


def test_run_block_iteration_is_capped():
    # the loop of test_fixpoint_iteration_is_capped, on a block of two
    # valuations; the run happens on a thread, so a missing cap fails here
    # instead of looping forever
    ev = Evaluator(Frame(("a", "b"), frozenset()))
    program = kmod.Program(
        code=((kmod._FIX, 0, False, 1), (kmod._NOT, 2, 0, 0), (kmod._LOOP, 0, 2, (1, 1))),
        size=3, roots=(0,), tangles=False,
    )
    raised = []

    def run():
        try:
            ev.run_block(program, (), 0, 2)
        except RuntimeError as exc:
            raised.append(str(exc))

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(10)
    assert raised == ["fixpoint iteration failed to stabilize"]


def test_model_check_takes_a_5000_deep_chain():
    phi = Atom("p")
    for _ in range(5000):
        phi = Neg(phi)
    model = KripkeModel(Frame(("a", "b"), frozenset()), {"p": {"a"}})
    assert model_check(model, phi) == {"a"}
    assert model_check(model, Dia(phi)) == set()


def _bits_picked(items, mask):
    return [items[i] for i in kmod._bits(mask) if i < len(items)]


def _bits_columns(rows, n):
    columns = [0] * n
    for i, row in enumerate(rows):
        for j in kmod._bits(row):
            columns[j] |= 1 << i
    return tuple(columns)


@pytest.mark.parametrize("seed", range(20))
def test_mask_decoding_helpers_match_bit_walks(seed):
    # every mask is decoded by kripke._picked or kripke._columns; this pins
    # what they return, whatever technique they use, on dense masks, sparse
    # ones and the shape of the figure3 fixture at m=4000: 8,003 worlds,
    # with a successor set of 3 of them
    rng = random.Random(9100 + seed)
    dense = rng.getrandbits(rng.randint(1, 400))
    sparse = sum(1 << rng.randrange(3000) for _ in range(rng.randint(1, 6)))
    wide = 1 << 8002 | 1 << rng.randrange(1, 8002) | 1
    for mask in (0, 1, dense, sparse, wide):
        for length in {0, mask.bit_length(), mask.bit_length() // 2, 8003}:
            items = [f"w{i}" for i in range(length)]
            assert list(kmod._picked(items, mask)) == _bits_picked(items, mask)
    for n, rows in [
        (1, []),
        (5, []),
        (40, [rng.getrandbits(40) for _ in range(rng.randint(1, 60))]),
        (3000, [sum(1 << rng.randrange(3000) for _ in range(3)) for _ in range(50)]),
        (8003, [wide, 0, 1 << 4000, wide]),
    ]:
        assert kmod._columns(rows, n) == _bits_columns(rows, n)
