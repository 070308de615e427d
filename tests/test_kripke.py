"""Relational semantics: evaluator against a naive oracle, frame analyses,
serialization."""

import copy
import hashlib
import itertools
import json
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
    figure3_model,
    frame_validates,
    generated_submodel,
    locally_n_connected,
    min_local_connectedness,
    model_check,
    model_from_dict,
    model_to_dict,
    parse,
    path_components,
    pretty,
    subformula_closure,
    relation_properties,
    to_dot,
    to_mu,
)
import tangles.kripke as kmod
from tangles.cli import _model_lines
from tangles.kripke import compile_formulas
from tangles.topo import _evaluator as _space_evaluator
from gen import random_formula, random_model, random_shared_formula, random_space
from oracles import tangle_oracle, tree_extension, valuation_masks

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
    # a copy built from rows finds the same clusters from its rows alone
    built = Frame.from_rows(frame.worlds, frame.succ)
    assert built.cluster_masks == frame.cluster_masks and "pred" not in vars(built)
    for (i, j) in dec.order:
        assert i != j
        assert dec.rank[i] > dec.rank[j]
    # maximal clusters have rank 1
    for i in range(len(dec.clusters)):
        succs = [j for (a, j) in dec.order if a == i]
        assert (dec.rank[i] == 1) == (not succs)


def test_cluster_decomposition_needs_transitive():
    chain = Frame(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")}))
    with pytest.raises(NonTransitiveError):
        cluster_decomposition(chain)


def test_cluster_masks_read_only_the_successor_rows():
    # two worlds of a transitive frame share a cluster iff they see the same
    # worlds counting themselves: two irreflexive worlds that see the same
    # worlds are two clusters
    twins = Frame.from_rows(("a", "b", "c"), (0b100, 0b100, 0b100))
    assert twins.cluster_masks == (0b001, 0b010, 0b100)
    stacked = Frame.from_rows(("a", "b", "c", "d"), (0b1110, 0b1110, 0b1110, 0b1000))
    assert stacked.cluster_masks == (0b0001, 0b0110, 0b1000)
    assert "pred" not in vars(twins) and "pred" not in vars(stacked)


@pytest.mark.parametrize("seed", range(40))
def test_local_counts_skip_only_sets_that_hold_an_owner(seed):
    # a successor set that holds a world whose set it is is one component
    # without a search; every set's components, in first-world order of the
    # distinct nonempty rows, are the ones the search gives
    rng = random.Random(7650 + seed)
    kind = ("general", "transitive", "serial", "reflexive")[seed % 4]
    frame = random_model(rng, rng.randint(1, 10), kind=kind).frame
    want = [(row, kmod._components(frame, row)) for row in dict.fromkeys(frame.succ) if row]
    assert list(kmod._local_components(frame)) == want


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


def test_tangle_guard_message_on_both_evaluation_paths():
    # model_check runs the program once (Evaluator.run), frame_validates runs
    # it bitsliced (Evaluator.run_block); both name the same guard, also for
    # a tangle under a diamond and a fixpoint
    chain = Frame(("a", "b", "c"), frozenset({("a", "b"), ("b", "c"), ("c", "c")}))
    model = KripkeModel(chain, {"p": {"c"}})
    message = "^tangle formulas require a transitive frame$"
    for phi in (Tangle((p,)), TangleD((p,)), parse("mu x. p | <><dt>{x, p}")):
        with pytest.raises(NonTransitiveError, match=message):
            model_check(model, phi)
        with pytest.raises(NonTransitiveError, match=message):
            frame_validates(chain, phi)
    # the guard is about tangles: the plain diamond still answers
    assert model_check(model, Dia(p)) == {"b", "c"}
    assert not frame_validates(chain, Dia(p)).valid


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


@pytest.mark.parametrize("top", ["strict", "reflexive"])
def test_tangle_loops_settle_on_a_deep_cluster_order(top):
    # a strict transitive chain of 400 worlds has 400 levels of clusters,
    # and a tangle's loop drops about one level a round: both runners must
    # settle within the n + 2 rounds a fixpoint loop is allowed.  With both
    # members everywhere the loops take n rounds to empty the strict chain;
    # every world tangles once the last world sees itself
    n = 400
    rows = [((1 << n) - 1) & ~((2 << i) - 1) for i in range(n)]
    if top == "reflexive":
        rows[-1] = 1 << n - 1
    ev = Evaluator(Frame.from_rows([f"w{i}" for i in range(n)], rows))
    val = {"p": ev.full, "q": ev.full}
    want = 0 if top == "strict" else ev.full
    phis = [Tangle((p,)), Tangle((p, q))]
    program = compile_formulas(phis)
    assert ev.run(program, val) == [tree_extension(ev, phi, val) for phi in phis] == [want] * 2
    block = ev.run_block(program, ("p", "q"), val["p"] << n | val["q"], 1)
    assert block == [[want >> w & 1 for w in range(n)]] * 2


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
    # valuation: the evaluator's greatest fixpoint against the lasso search
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
    assert model_from_dict(json.loads(json.dumps(model_to_dict(model)))) == model
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
    assert f.succ == (0b10, 0)
    g = Frame(("a", "b"), frozenset({("a", "b")}))
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    # a row-built frame spells its pairs out only when they are read
    h = Frame.from_rows(("a", "b"), (0b10, 0))
    assert h == f and hash(h) == hash(f) and "rel" not in vars(h)
    assert repr(h) == repr(f) and vars(h)["rel"] == f.rel
    # frames compare and hash through the record base, on their rows
    assert "__eq__" not in vars(Frame) and "__hash__" not in vars(Frame)


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
                   Frame(built.worlds, built.rel)):
        assert copied == frame and copied.succ == frame.succ
    check_against_oracles(built)
    assert built == frame and hash(built) == hash(frame)
    # a frame built from pairs, as a set or as a list, keeps only its rows
    # and spells the pairs from them when they are read
    for given in (frame.rel, sorted(frame.rel)):
        paired = Frame(frame.worlds, given)
        assert "rel" not in vars(paired) and paired.succ == frame.succ
        assert paired == built and hash(paired) == hash(built)
        assert paired.rel == frozenset(given) and "rel" in vars(paired)
    # the loader builds the successor rows in its one pass over the pairs,
    # in any order and with repeats; the predecessor rows wait for a reader
    pairs = [list(p) for p in sorted(frame.rel)]
    rng.shuffle(pairs)
    loaded = model_from_dict({"worlds": list(frame.worlds), "rel": pairs + pairs[:3]}).frame
    assert vars(loaded)["succ"] == frame.succ and "pred" not in vars(loaded)
    assert loaded.pred == frame.pred
    check_against_oracles(loaded)
    assert loaded == frame


@pytest.mark.parametrize("seed", range(40))
def test_frames_are_valued_by_their_rows(seed):
    rng = random.Random(7800 + seed)
    kind = ("general", "transitive", "serial", "reflexive")[seed % 4]
    frame = random_model(rng, rng.randint(1, 9), kind=kind).frame
    built = Frame.from_rows(frame.worlds, frame.succ)
    loaded = model_from_dict({"worlds": list(frame.worlds), "rel": sorted(map(list, frame.rel))}).frame
    for twin in (built, loaded):
        assert twin == frame and frame == twin and hash(twin) == hash(frame)
        assert len({twin, frame}) == 1
    # comparing and hashing read the rows, never the pairs
    assert "rel" not in vars(built) and "rel" not in vars(loaded)
    # one pair more or less, or the same rows over other worlds, is another frame
    i, j = rng.randrange(len(frame.worlds)), rng.randrange(len(frame.worlds))
    rows = list(frame.succ)
    rows[i] ^= 1 << j
    other = Frame.from_rows(frame.worlds, rows)
    assert other != frame and other.rel == frame.rel ^ {(frame.worlds[i], frame.worlds[j])}
    renamed = Frame.from_rows([w + "'" for w in frame.worlds], frame.succ)
    assert renamed != built and frame != (frame.worlds, frame.rel)


def test_list_entries_are_named_as_non_pairs():
    with pytest.raises(ValueError, match=re.escape("relation entry ['a', 'b'] is not a pair")):
        Frame(("a", "b"), [["a", "b"]])
    with pytest.raises(ValueError, match=re.escape("relation entry ['b', 'a'] is not a pair")):
        Frame(("a", "b"), [("a", "b"), ["b", "a"], ("a", "x")])
    # the loader reads JSON lists as pairs
    assert model_from_dict({"worlds": ["a", "b"], "rel": [["a", "b"]]}).frame == Frame(
        ("a", "b"), [("a", "b")]
    )


STRING_COLLECTIONS = {
    "worlds": (lambda: Frame("ab", set()), "worlds must be a collection, not the string 'ab'"),
    "row-built worlds": (
        lambda: Frame.from_rows("ab", (0, 0)), "worlds must be a collection, not the string 'ab'"
    ),
    "valuation": (
        lambda: KripkeModel(Frame(("a", "b"), set()), {"p": "ab"}),
        "valuation of 'p' must be a collection, not the string 'ab'",
    ),
    "points": (
        lambda: FiniteSpace("ab", ["", "b", "ab"]),
        "points must be a collection, not the string 'ab'",
    ),
    "opens": (
        lambda: FiniteSpace(("a", "b"), "ab"), "opens must be a collection, not the string 'ab'"
    ),
    "open set": (
        lambda: FiniteSpace(("a", "b"), [(), "b", ("a", "b")]),
        "an open set must be a collection, not the string 'b'",
    ),
    "space valuation": (
        lambda: TopoModel(FiniteSpace(("a", "b"), [(), ("b",), ("a", "b")]), {"p": "b"}),
        "valuation of 'p' must be a collection, not the string 'b'",
    ),
}


@pytest.mark.parametrize("position", sorted(STRING_COLLECTIONS))
def test_strings_are_refused_as_collections_of_names(position):
    # iterating "ab" would read it as the worlds or points a and b
    build, message = STRING_COLLECTIONS[position]
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


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


def test_the_world_limit_admits_itself_and_refuses_one_more(monkeypatch):
    # the limit patched small: each way in builds a frame or space of 5,
    # and refuses 6 before it reads a row or the relation
    monkeypatch.setattr(kmod, "_WORLD_LIMIT", 5)
    names = [f"w{i}" for i in range(6)]

    def unread():
        raise AssertionError("a row was read")
        yield

    over = re.escape("a frame of 6 worlds is over the limit of 5")
    assert len(Frame.from_rows(names[:5], [0] * 5).worlds) == 5
    with pytest.raises(kmod.BudgetExceededError, match=f"^{over}$"):
        Frame.from_rows(names, unread())
    assert Frame(names[:5], {("w0", "w4")}).succ[0] == 0b10000
    with pytest.raises(kmod.BudgetExceededError, match=f"^{over}$"):
        Frame(names, {("w0", "w5")})
    assert len(model_from_dict({"worlds": names[:5], "rel": []}).frame.worlds) == 5
    with pytest.raises(kmod.BudgetExceededError, match=f"^{over}$"):
        model_from_dict({"worlds": names, "rel": [["w0", "w5"]]})
    assert FiniteSpace(names[:5], [set(), set(names[:5])]).frame.succ[0] == 0b11111
    with pytest.raises(kmod.BudgetExceededError, match="^a space of 6 points is over the limit of 5$"):
        FiniteSpace(names, [set(), set(names)])
    # the fence has 2m+3 worlds
    assert len(figure3_model(1).frame.worlds) == 5
    with pytest.raises(kmod.BudgetExceededError, match="^a frame of 7 worlds is over the limit of 5$"):
        figure3_model(2)
    # an empty or repeated world set is named as before
    with pytest.raises(ValueError, match="^a frame needs at least one world$"):
        Frame.from_rows((), ())
    with pytest.raises(ValueError, match="^duplicate world ids$"):
        Frame.from_rows(names + names, unread())


@pytest.mark.parametrize("seed", range(24))
def test_pred_is_the_transpose_of_the_successor_rows(seed):
    # pred is built on first read, from each distinct row once, on frames
    # built from pairs, from rows and by the loader alike
    rng = random.Random(7800 + seed)
    kind = ("general", "transitive", "serial", "reflexive")[seed % 4]
    frame = random_model(rng, rng.randint(1, 12), kind=kind).frame
    if seed % 8 == 7:
        frame = closures(layered_frame(rng, rng.randint(60, 120))).transitive
    data = {"worlds": list(frame.worlds), "rel": [list(p) for p in frame.rel]}
    copies = (Frame(frame.worlds, frame.rel), Frame.from_rows(frame.worlds, frame.succ),
              model_from_dict(data).frame)
    for built in copies:
        assert "pred" not in vars(built)
        assert built.pred == kmod._columns(frame.succ, len(frame.worlds))


def test_pred_of_the_sparse_figure3_fixture_is_its_transpose():
    # 8,003 worlds and 16,005 pairs: checking a model reads no pred, and
    # pred, once read, is the transpose that the n-by-n grid gives
    model = figure3_model(4000)
    worlds, rel = model.frame.worlds, model.frame.rel
    loaded = model_from_dict({"worlds": list(worlds), "rel": [list(p) for p in sorted(rel)],
                              "val": {a: sorted(ws) for a, ws in model.val.items()}})
    assert model_check(loaded, parse("<t>{p0, p1}")) == frozenset()
    assert "pred" not in vars(loaded.frame)
    want = kmod._columns(model.frame.succ, len(worlds))
    for frame in (loaded.frame, Frame(worlds, rel), Frame.from_rows(worlds, model.frame.succ)):
        assert frame.pred == want


@pytest.mark.parametrize("seed", range(16))
def test_the_name_keyed_pass_matches_the_str_pass(seed):
    # worlds named by the digits of their positions, so that a file may
    # give them as ints: a pair with an int member leaves the name-keyed
    # pass for the one that reads each member through str
    rng = random.Random(7850 + seed)
    kind = ("general", "transitive", "serial", "reflexive")[seed % 4]
    frame = random_model(rng, 9, kind=kind).frame
    position = {w: i for i, w in enumerate(frame.worlds)}
    ints = [[position[u], position[v]] for u, v in frame.rel]
    rng.shuffle(ints)
    ints += ints[:4]
    names = [list(map(str, pair)) for pair in ints]
    worlds = [str(i) for i in range(len(frame.worlds))]
    # all names, all ints, and names with one int pair last, after the
    # name-keyed pass has filled rows
    for pairs in (names, ints, names[:-1] + ints[-1:]):
        assert kmod._relation_rows(tuple(worlds), pairs, str)[1:] == (frame.succ, None)
        for ids in (worlds, list(range(len(worlds)))):
            loaded = model_from_dict({"worlds": ids, "rel": pairs}).frame
            assert loaded.worlds == tuple(worlds) and loaded.succ == frame.succ


@pytest.mark.parametrize("rel, message", [
    # the first stray pair in the given order, after an int member
    ([[1, 2], ["1", "x"], [2, "y"]], "relation pair ('1', 'x') outside the world set"),
    ([["1", "2"], ["1", "x"], ["y", "2"]], "relation pair ('1', 'x') outside the world set"),
    ([["1", "2"], ["1", 1.5]], "relation pair ('1', '1.5') outside the world set"),
    ([["1", "2"], [["1"], "2"]], """relation pair ("['1']", '2') outside the world set"""),
    ([["1", {"k": 1}]], """relation pair ('1', "{'k': 1}") outside the world set"""),
    ([["1", "2"], ["1", "2", "1"]], "malformed model data: too many values to unpack (expected 2)"),
    ([["1", "x"], ["1", "2", "1"]], "malformed model data: too many values to unpack (expected 2)"),
    ([["1", "2"], ["1"]], "malformed model data: not enough values to unpack (expected 2, got 1)"),
    ([["1", "2"], 7], "malformed model data: cannot unpack non-iterable int object"),
    ([["1", "2"], None], "malformed model data: cannot unpack non-iterable NoneType object"),
])
def test_malformed_models_keep_their_messages(rel, message):
    with pytest.raises(ValueError) as caught:
        model_from_dict({"worlds": [1, "2"], "rel": rel})
    assert str(caught.value) == message


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


def test_relation_entries_must_be_pairs():
    for entry in [("a",), ("a", "a", "a"), "ab"]:
        with pytest.raises(ValueError, match=re.escape(f"relation entry {entry!r} is not a pair")):
            Frame(("a", "b"), [entry])
    # the loaders refuse the same entries
    for entry in [["a"], ["a", "a", "a"], "ab"]:
        with pytest.raises(ValueError, match="malformed"):
            model_from_dict({"worlds": ["a", "b"], "rel": [entry]})
    # the first bad entry in the given order is named
    with pytest.raises(ValueError, match="'ab' is not a pair"):
        Frame(("a", "b"), ["ab", ("a", "x")])
    with pytest.raises(ValueError, match=r"\('a', 'x'\) outside"):
        Frame(("a", "b"), [("a", "x"), "ab"])


def test_a_set_of_pairs_names_its_least_bad_entry():
    # a set has no order: of its stray pairs, or else of its entries that
    # are not pairs, the one with the least repr is named, whatever the
    # hash seed
    strays = {("a", f"x{i}") for i in range(100)}
    for pairs in (strays, frozenset(strays), strays | {("a", "a")}, strays | {"ab", ("a",)}):
        with pytest.raises(ValueError, match=r"^relation pair \('a', 'x0'\) outside the world set$"):
            Frame(("a",), pairs)
    others = {f"e{i}" for i in range(100)} | {("a",) * k for k in (1, 3)}
    with pytest.raises(ValueError, match=r"^relation entry 'e0' is not a pair$"):
        Frame(("a",), others | {("a", "a")})


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


_BINDING_CONTEXTS = [
    "x & (mu x. x | <>x)",  # x free outside the binder, bound inside
    "(mu x. <>x | p) & (nu x. <>x & q) & <>x",  # one <>x, three meanings
    "nu y. mu x. <>x | p & []y",  # alternation
    "mu x. nu y. [](y & <>x) | <t>{x, y & q}",  # a tangle under two binders
    "nu x. <t>{<>x, mu y. p | <>(y & x)}",  # a binder inside a tangle member
    "mu x. p | <>(nu x. <>x & q) | <>x",  # shadowing
]


@pytest.mark.parametrize("text", _BINDING_CONTEXTS)
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


def test_a_tangle_compiles_to_one_greatest_fixpoint_loop():
    # <dt>{p, q} is nu z. <d>(p & z) & <d>(q & z): the members run before
    # the loop, which starts at everything and reads the d-relation
    program = compile_formulas([parse("<dt>{p, q}")])
    code = program.code
    assert [ins[0] for ins in code] == [kmod._ATOM, kmod._ATOM, kmod._FIX, kmod._AND,
                                        kmod._DIA, kmod._AND, kmod._DIA, kmod._AND, kmod._LOOP]
    assert code[2][2] is True and [ins[3] for ins in code if ins[0] == kmod._DIA] == [1, 1]
    assert (program.size, program.roots, program.tangled) == (9, (code[2][1],), True)
    assert not compile_formulas([parse("nu x. <>x & p")]).tangled
    # a repeat under the same binders shares the loop, and a tangle that
    # does not mention a binder's variable runs once, before its loop
    code = compile_formulas([parse("<t>{p} & <><t>{p}")]).code
    assert [ins[0] for ins in code].count(kmod._FIX) == 1
    code = compile_formulas([parse("mu x. <t>{p} | <>x")]).code
    assert [ins[0] for ins in code] == [kmod._ATOM, kmod._FIX, kmod._AND, kmod._DIA,
                                        kmod._LOOP, kmod._FIX, kmod._DIA, kmod._OR, kmod._LOOP]
    assert (code[1][2], code[5][2]) == (True, False)


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


def test_compiled_programs_match_their_recorded_digest():
    # Every program of a seeded corpus, instruction for instruction: random
    # formulas, their sorted closures and their to_mu encodings, and the
    # closures of the binding-context texts above.  A change that moves a
    # slot or reorders an instruction changes the digest, and so does a
    # program that follows set iteration order, which CI checks by running
    # this test under two hash seeds.  A deliberate change of layout
    # records the new digest here.
    programs = []
    for seed in range(300):
        rng = random.Random(seed)
        for depth in (3, 5, 7):
            phi = random_formula(rng, depth, ("p", "q", "x", "y"))
            for roots in ([phi], subformula_closure([phi]).sorted(), [to_mu(phi)]):
                programs.append(repr(compile_formulas(roots)))
    for text in _BINDING_CONTEXTS:
        programs.append(repr(compile_formulas(subformula_closure([parse(text)]).sorted())))
    assert len(programs) == 2706
    digest = hashlib.sha256("\n".join(programs).encode()).hexdigest()
    assert digest == "3173bcd33c53a677be4187aeef627fc1074844a9121fce86e25f529bc4a00660"


def _binder_chain(depth, binder, body):
    """``binder(x0, ... binder(x<depth-1>, body(k, inner)) ...)``, built from
    the innermost binder out, where ``inner`` is the next binder's node
    (``p`` under the innermost) and ``x<k>`` the k-th variable."""
    inner = p
    for k in reversed(range(depth)):
        inner = binder(k)(f"x{k}", body(k, inner))
    return inner


def test_deeply_nested_programs_match_their_recorded_digest():
    # The random corpus above nests at most a few loops.  Here each body
    # mentions an outer variable, so each loop nests inside an outer one,
    # hundreds deep, with tangle loops inside fixpoint loops.  The digest
    # was recorded before the compiler emitted each loop whole as its
    # binder closes, so the two layouts agree instruction for instruction.
    def x(k):
        return Atom(f"x{k}")

    def alternate(k, inner):
        join, modal = (Or, Dia) if k % 2 == 0 else (And, Box)
        return join(x(k // 3), modal(join(x(k), inner)))

    def tangle(k, inner):
        return (Tangle, TangleD)[k % 2]((And(x(k), x(k // 2)), Dia(inner)))

    nu_chain = _binder_chain(990, lambda k: Nu, lambda k, f: Dia(And(x(k), And(x(k - 1), f))))
    mu_chain = _binder_chain(400, lambda k: Mu, lambda k, f: Or(x(k), Box(Or(x(k - 2), f))))
    alternating = _binder_chain(120, lambda k: (Mu, Nu)[k % 2], alternate)
    tangles = _binder_chain(60, lambda k: Nu, tangle)
    nested = p  # tangles nested in tangle members, with no binder
    for k in range(60):
        nested = (Tangle, TangleD)[k % 2]((Or(nested, q), Dia(Atom(f"a{k}"))))
    roots = [[phi] for phi in (nu_chain, mu_chain, alternating, tangles, nested, to_mu(nested))]
    roots += [[mu_chain, nu_chain, alternating]]
    # closures of shallower chains, whose members each open loops of their own
    shallow = (
        _binder_chain(40, lambda k: (Mu, Nu)[k % 2], alternate),
        _binder_chain(30, lambda k: Nu, tangle),
    )
    roots += [subformula_closure([phi]).sorted() for phi in shallow]
    programs = [repr(compile_formulas(rs)) for rs in roots]
    assert len(programs) == 9
    digest = hashlib.sha256("\n".join(programs).encode()).hexdigest()
    assert digest == "d454f313667299269523437422eb6681fed6118a02c275f84c204411f7c5f370"


def test_fixpoint_iteration_is_capped():
    # a loop whose body negates its variable never settles; n + 2 rounds end it
    ev = Evaluator(Frame(("a",), frozenset()))
    program = kmod.Program(
        code=((kmod._FIX, 0, False, 1), (kmod._NOT, 2, 0, 0), (kmod._LOOP, 0, 2, (1, 1))),
        size=3, roots=(0,),
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
        size=3, roots=(0,),
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
