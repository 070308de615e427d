"""Translations: fixpoint unfolding of tangles, derivative rewriting,
reflexive-transitive star."""

import itertools
import random
import time

import pytest

from tangles import (
    And,
    Atom,
    Box,
    BoxD,
    Dia,
    DiaD,
    Evaluator,
    FiniteSpace,
    Forall,
    Frame,
    KripkeModel,
    Mu,
    Neg,
    Nu,
    Or,
    Tangle,
    TangleD,
    TopoModel,
    TranslationError,
    closures,
    enumerate_frames,
    free_atoms,
    model_check,
    parse,
    pretty,
    star,
    to_d,
    to_mu,
    topo_model_check,
)
from tangles.formula import post_order
from tangles.kripke import compile_formulas
from tangles.logics import _canonical
from gen import (
    random_formula,
    random_model,
    random_shared_formula,
    random_space,
    random_tangle_formula,
)
from oracles import tree_extension, tree_star, tree_to_mu

p, q = Atom("p"), Atom("q")
g0, g1 = Atom("_g0"), Atom("_g1")


# ---------------------------------------------------------------------------
# to_mu


def test_to_mu_structure():
    assert to_mu(Tangle((p, q))) == Nu(
        "_g0", And(Dia(And(p, g0)), Dia(And(q, g0)))
    )
    assert to_mu(TangleD((p,))) == Nu("_g0", DiaD(And(p, g0)))
    # tangle-free input comes back unchanged
    phi = Box(Or(p, Neg(q)))
    assert to_mu(phi) == phi


def test_to_mu_freshness():
    # _g0 already occurs, so the binder moves to _g1
    phi = And(Tangle((p,)), g0)
    assert to_mu(phi) == And(Nu("_g1", Dia(And(p, g1))), g0)


def test_to_mu_names_tangles_in_pre_order():
    # the outer tangle takes its name before the one nested inside it
    inner = Nu("_g1", Dia(And(q, g1)))
    assert to_mu(Tangle((Dia(Tangle((q,))), p))) == Nu(
        "_g0", And(Dia(And(Dia(inner), g0)), Dia(And(p, g0)))
    )


@pytest.mark.parametrize("seed", range(100))
def test_to_mu_agrees_on_transitive_models(seed):
    rng = random.Random(seed)
    model = random_model(rng, 6, kind="transitive")
    phi = (
        random_tangle_formula(rng)
        if seed % 2
        else random_formula(rng, rng.randint(1, 4), tangles=True, fixpoints=True)
    )
    assert model_check(model, phi) == model_check(model, to_mu(phi))


@pytest.mark.parametrize("seed", range(60))
def test_to_mu_agrees_on_spaces(seed):
    rng = random.Random(1000 + seed)
    model = random_space(rng)
    phi = random_formula(
        rng, rng.randint(1, 4), tangles=True, fixpoints=True, derivative=True
    )
    assert topo_model_check(model, phi) == topo_model_check(model, to_mu(phi))


def _formulas_up_to(size, derivative=False):
    """Every formula over p and q of at most ``size`` symbols, built from
    ~, <>, [], &, | and one- and two-member tangles, each once; with
    ``derivative``, also from <d>, [d] and one- and two-member <dt>."""
    unary = [Neg, Dia, Box, lambda f: Tangle((f,))]
    binary = [And, Or, lambda a, b: Tangle((a, b))]
    if derivative:
        unary += [DiaD, BoxD, lambda f: TangleD((f,))]
        binary.append(lambda a, b: TangleD((a, b)))
    by_size = {1: [p, q]}
    for s in range(2, size + 1):
        out = [op(f) for op in unary for f in by_size[s - 1]]
        for k in range(1, s - 1):
            for a, b in itertools.product(by_size[k], by_size[s - 1 - k]):
                out += [op(a, b) for op in binary]
        by_size[s] = out
    return list(dict.fromkeys(f for fs in by_size.values() for f in fs))


def test_to_mu_agrees_on_every_small_transitive_frame():
    # each formula and its translation in one program, on every transitive
    # frame of 1-4 worlds up to isomorphism (OEIS A091073), under every
    # valuation of p and q at once
    phis = _formulas_up_to(4)
    program = compile_formulas(phis + [to_mu(phi) for phi in phis])
    assert (len(phis), program.size) == (295, 1001)
    counts = []
    for n in range(1, 5):
        frames = list(enumerate_frames(n))
        counts.append(len(frames))
        for frame in frames:
            roots = Evaluator(frame).run_block(program, ("p", "q"), 0, 1 << 2 * n)
            for phi, got, want in zip(phis, roots, roots[len(phis):]):
                assert got == want, (pretty(phi), frame.succ)
    assert counts == [2, 8, 39, 242]


def test_to_mu_agrees_on_every_five_world_transitive_frame(monkeypatch):
    # the one-atom formulas among the above and their translations in one
    # program, on each of the 1,895 transitive frames of 5 worlds up to
    # isomorphism, under all 32 valuations of p; the isomorphism test is
    # raised to 5 worlds as in test_canonical_classes_of_five_worlds
    monkeypatch.setattr("tangles.logics._CANONICAL_LIMIT", 5)
    phis = [phi for phi in _formulas_up_to(4) if free_atoms(phi) == {"p"}]
    program = compile_formulas(phis + [to_mu(phi) for phi in phis])
    assert (len(phis), program.size) == (115, 383)
    frames = 0
    for frame in enumerate_frames(5):
        frames += 1
        roots = Evaluator(frame).run_block(program, ("p",), 0, 1 << 5)
        for phi, got, want in zip(phis, roots, roots[len(phis):]):
            assert got == want, (pretty(phi), frame.succ)
    assert frames == 1895


def test_tangle_loops_match_the_cluster_criterion_on_every_five_world_transitive_frame(
    monkeypatch,
):
    # the compiled greatest-fixpoint loops of <t>{p} and <t>{p, ~p} against
    # the cluster criterion of tree_extension, on each of the 1,895
    # transitive frames of 5 worlds up to isomorphism, under all 32
    # valuations of p; <t>{~p} under a valuation is <t>{p} under its
    # complement, so it adds nothing
    monkeypatch.setattr("tangles.logics._CANONICAL_LIMIT", 5)
    phis = [Tangle((p,)), Tangle((p, Neg(p)))]
    program = compile_formulas(phis)
    frames = 0
    for frame in enumerate_frames(5):
        frames += 1
        ev = Evaluator(frame)
        roots = ev.run_block(program, ("p",), 0, 1 << 5)
        for v in range(1 << 5):
            for phi, root in zip(phis, roots):
                got = sum((bits >> v & 1) << w for w, bits in enumerate(root))
                assert got == tree_extension(ev, phi, {"p": v}), (pretty(phi), frame.succ, v)
    assert frames == 1895


def _small_spaces():
    """Every finite space of 1-4 points up to homeomorphism, as an
    evaluator over its specialization preorder with the punctured
    neighbourhoods for the d-modalities, and whether the preorder is a
    partial order."""
    for n in range(1, 5):
        for frame in enumerate_frames(n, reflexive=True):
            succ = frame.succ
            punctured = tuple(row & ~(1 << i) for i, row in enumerate(succ))
            # a partial order: no two points see each other
            partial = not any(punctured[i] >> j & succ[j] >> i & 1 for i in range(n) for j in range(n))
            yield n, Evaluator(frame, punctured), partial


def test_tangles_match_the_cluster_criterion_on_every_small_space():
    # the compiled greatest-fixpoint loops of <t> over the preorder and <dt>
    # over the punctured neighbourhoods, against the cluster criterion of
    # tree_extension, for one- and two-member tangles of literals, on all
    # 46 spaces of 1-4 points under every valuation of p and q
    literals = [p, q, Neg(p), Neg(q)]
    sets = [(a,) for a in literals] + list(itertools.combinations(literals, 2))
    phis = [kind(members) for kind in (Tangle, TangleD) for members in sets]
    program = compile_formulas(phis)
    for n, ev, _ in _small_spaces():
        roots = ev.run_block(program, ("p", "q"), 0, 1 << 2 * n)
        for v in range(1 << 2 * n):
            val = {"p": v >> n, "q": v & ev.full}
            for phi, root in zip(phis, roots):
                got = sum((bits >> v & 1) << w for w, bits in enumerate(root))
                assert got == tree_extension(ev, phi, val), (pretty(phi), ev.succ, v)


def _disagreements(translate):
    """Per small space: its size, whether it is a partial order, and the
    formulas of size at most 4 whose translation by ``translate`` differs
    from them there under some valuation of p and q."""
    phis = _formulas_up_to(4, derivative=True)
    assert len(phis) == 1048
    program = compile_formulas(phis + [translate(phi) for phi in phis])
    for n, ev, partial in _small_spaces():
        roots = ev.run_block(program, ("p", "q"), 0, 1 << 2 * n)
        yield n, partial, [phi for phi, got, want in zip(phis, roots, roots[len(phis):]) if got != want]


def test_to_mu_agrees_on_every_small_space():
    # the paper's equivalence of the tangle language and the mu-calculus,
    # on all 46 finite spaces of 1-4 points up to homeomorphism
    counts = [0] * 4
    for n, _, wrong in _disagreements(to_mu):
        counts[n - 1] += 1
        assert wrong == [], (n, [pretty(phi) for phi in wrong[:5]])
    assert counts == [1, 3, 9, 33]


# ---------------------------------------------------------------------------
# to_d


def test_to_d_structure():
    assert to_d(Box(p)) == And(p, BoxD(p))
    assert to_d(Dia(p)) == Or(p, DiaD(p))
    inner = And(p, BoxD(p))
    assert to_d(Box(Box(p))) == And(inner, BoxD(inner))
    body = And(p, q)
    assert to_d(Tangle((p, q))) == Or(Or(body, DiaD(body)), TangleD((p, q)))
    # derivative operators pass through
    assert to_d(DiaD(Box(p))) == DiaD(And(p, BoxD(p)))


@pytest.mark.parametrize("seed", range(80))
def test_to_d_agrees_on_reflexive_models(seed):
    rng = random.Random(2000 + seed)
    model = random_model(rng, 6, kind="reflexive")
    phi = random_formula(
        rng, rng.randint(1, 4), tangles=True, fixpoints=True, universal=True
    )
    assert model_check(model, phi) == model_check(model, to_d(phi))


def test_to_d_on_spaces():
    # Sierpinski has closed point derivatives, so the rewriting is faithful
    sierp = FiniteSpace(
        ("x", "y"),
        frozenset({frozenset(), frozenset({"x"}), frozenset({"x", "y"})}),
    )
    model = TopoModel(sierp, {"p": {"x"}})
    for phi in (Box(p), Dia(p), Tangle((p,)), Tangle((p, Dia(p)))):
        assert topo_model_check(model, phi) == topo_model_check(model, to_d(phi))
    # the indiscrete doubleton is not that kind of space, and the tangle
    # of {p, <d>p} with p a singleton tells the two readings apart
    indiscrete = FiniteSpace(
        ("a", "b"), frozenset({frozenset(), frozenset({"a", "b"})})
    )
    m = TopoModel(indiscrete, {"p": {"a"}})
    phi = Tangle((p, DiaD(p)))
    assert "a" in topo_model_check(m, phi)
    assert "a" not in topo_model_check(m, to_d(phi))


def test_to_d_agrees_exactly_on_small_td_spaces():
    # the finite TD spaces are those whose specialization preorder is a
    # partial order: there to_d is faithful, and on every other small
    # space some formula of size at most 4 tells the two apart
    faithful = unfaithful = 0
    for n, partial, wrong in _disagreements(to_d):
        if partial:
            faithful += 1
            assert wrong == [], (n, [pretty(phi) for phi in wrong[:5]])
        else:
            unfaithful += 1
            assert wrong, n
    assert (faithful, unfaithful) == (24, 22)


# ---------------------------------------------------------------------------
# star


def test_star_structure():
    assert star(Box(p)) == Nu("_g0", And(p, Box(g0)))
    assert star(Dia(p)) == Neg(Nu("_g0", And(Neg(p), Box(g0))))
    assert star(And(p, q)) == And(p, q)


def test_star_names_boxes_in_pre_order():
    assert star(Box(Dia(p))) == Nu(
        "_g0", And(Neg(Nu("_g1", And(Neg(p), Box(g1)))), Box(g0))
    )
    assert star(Dia(Box(p))) == Neg(
        Nu("_g0", And(Neg(Nu("_g1", And(p, Box(g1)))), Box(g0)))
    )


@pytest.mark.parametrize(
    "phi",
    [Forall(p), Tangle((p,)), BoxD(p), DiaD(q), TangleD((p,))],
)
def test_star_fragment(phi):
    with pytest.raises(TranslationError):
        star(phi)
    with pytest.raises(TranslationError):
        star(And(p, Box(phi)))


@pytest.mark.parametrize("seed", range(80))
def test_star_is_closure_semantics(seed):
    rng = random.Random(3000 + seed)
    model = random_model(rng, 6, kind="general")
    starred = KripkeModel(
        closures(model.frame).reflexive_transitive, model.val
    )
    phi = random_formula(
        rng, rng.randint(1, 4), tangles=False, fixpoints=True
    )
    assert model_check(model, star(phi)) == model_check(starred, phi)


def _all_frames(n):
    """Every relation on n worlds up to isomorphism, as frames."""
    worlds = tuple(f"w{i}" for i in range(n))
    for rows in itertools.product(range(1 << n), repeat=n):
        if _canonical(rows, n):
            yield Frame.from_rows(worlds, rows)


def test_star_agrees_on_every_small_frame():
    # star(phi) on a frame against phi on its reflexive-transitive closure,
    # on every frame of 1-4 worlds up to isomorphism, under every valuation
    # of p and q at once.  On 1-3 worlds: the formulas of size at most 4 in
    # star's fragment, and fixpoints around those of size at most 2.  On 4
    # worlds, to keep to about 2 s: the formulas of size at most 3, and the
    # fixpoints around those of size at most 2 over p alone (swapping p and
    # q maps the sweep onto itself, so those over q check nothing new).
    x = Atom("x")
    phis = [f for f in _formulas_up_to(4) if not any(type(g) is Tangle for g in post_order(f))]
    small = [f for f in phis if len(post_order(f)) <= 2]
    fixpoints = [Mu("x", Or(f, Dia(x))) for f in small] + [Nu("x", And(f, Box(x))) for f in small]
    short = set(_formulas_up_to(3))
    four = [f for f in phis if f in short] + [
        fix for fix, f in zip(fixpoints, small * 2) if free_atoms(f) == {"p"}
    ]
    phis += fixpoints
    assert (len(phis), len(four)) == (160 + 2 * 12, 34 + 2 * 6)
    counts = []
    for n in range(1, 5):
        frames = list(_all_frames(n))
        counts.append(len(frames))
        checked = phis if n < 4 else four
        starred = compile_formulas([star(phi) for phi in checked])
        plain = compile_formulas(checked)
        for frame in frames:
            closed = closures(frame).reflexive_transitive
            got = Evaluator(frame).run_block(starred, ("p", "q"), 0, 1 << 2 * n)
            want = Evaluator(closed).run_block(plain, ("p", "q"), 0, 1 << 2 * n)
            for phi, g, w in zip(checked, got, want):
                assert g == w, (pretty(phi), frame.succ)
    assert counts == [2, 10, 104, 3044]


@pytest.mark.parametrize(
    "translate,text",
    [(star, "<>" * 999 + "p"), (to_mu, "<t>{q, " * 999 + "p" + "}" * 999)],
    ids=["star", "mu"],
)
def test_nested_fresh_binders_build_in_linear_time(translate, text):
    # a new binder checks positivity only where its variable is free, and
    # nodes keep their free names, so none of the 999 nested binders walks
    # its whole body
    phi = parse(text)
    start = time.perf_counter()
    out = translate(phi)
    assert time.perf_counter() - start < 1
    assert free_atoms(out) == free_atoms(phi)


@pytest.mark.parametrize("seed", range(40))
def test_translations_match_the_tree_walks(seed):
    # the same node as the recursive walks build, or the same error; star
    # mostly meets a foreign operator in shared formulas, so it also gets
    # formulas of its own fragment
    rng = random.Random(4500 + seed)
    fragment = random_formula(rng, rng.randint(1, 5), tangles=False, fixpoints=True)
    for phi in [random_shared_formula(rng, rng.randint(1, 6)) for _ in range(5)] + [fragment]:
        for fast, tree in ((to_mu, tree_to_mu), (star, tree_star)):
            try:
                want = tree(phi)
            except TranslationError as exc:
                with pytest.raises(TranslationError) as got:
                    fast(phi)
                assert str(got.value) == str(exc)
                continue
            assert fast(phi) is want, pretty(phi)


@pytest.mark.parametrize("seed", range(30))
def test_translations_compose(seed):
    # untangling after derivative rewriting still matches on reflexive models
    rng = random.Random(4000 + seed)
    model = random_model(rng, 5, kind="reflexive")
    phi = random_tangle_formula(rng)
    assert model_check(model, phi) == model_check(model, to_mu(to_d(phi)))


@pytest.mark.parametrize("seed", range(60))
def test_translations_read_back(seed):
    # fresh variables print as _gN, and the parser must take them back
    rng = random.Random(5000 + seed)
    phi = random_formula(
        rng, rng.randint(0, 4), tangles=True, fixpoints=True,
        universal=True, derivative=True,
    )
    modal = random_formula(rng, rng.randint(0, 4), tangles=False, fixpoints=True)
    for out in (to_mu(Tangle((phi, p))), to_d(phi), star(Box(modal))):
        assert parse(pretty(out)) == out
