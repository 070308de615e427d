"""Filtration and untangling: quotient bookkeeping, the reduction check,
characteristic formulas, structure preservation."""

import random
from itertools import product

import pytest

from tangles import (
    Atom,
    CriticalPointError,
    Dia,
    Frame,
    KripkeModel,
    NonTransitiveError,
    Tangle,
    Top,
    characteristic_formulas,
    cluster_decomposition,
    defining_formula,
    enumerate_frames,
    filtrate,
    locally_n_connected,
    model_check,
    model_to_dict,
    parse,
    path_components,
    preservation_report,
    reduction_conditions,
    relation_properties,
    subformula_closure,
    untangle,
    verify_reduction,
)
from tangles import logics
from tangles.kripke import _columns
from gen import random_cluster_model, random_formula, random_model
from oracles import (
    remade,
    tree_characteristic_formulas,
    tree_filtrate,
    tree_reduction_conditions,
    tree_untangle,
    tree_verify_reduction,
)

p, q = Atom("p"), Atom("q")


def closure_of(*roots):
    return subformula_closure(roots)


def strict_chain(val_p):
    frame = Frame(
        ("w0", "w1", "w2"),
        frozenset({("w0", "w1"), ("w1", "w2"), ("w0", "w2")}),
    )
    return KripkeModel(frame, {"p": val_p})


def random_closure(rng, *, tangles=True):
    roots = [
        random_formula(rng, rng.randint(1, 3), ("p", "q"),
                       tangles=tangles, fixpoints=False)
        for _ in range(rng.randint(1, 2))
    ]
    return closure_of(*roots, Dia(Top()))


# ---------------------------------------------------------------------------
# Filtration


def test_filtrate_keeps_distinguishable_worlds_apart():
    m = strict_chain({"w0", "w1"})
    fr = filtrate(m, closure_of(Dia(p)))
    # profiles (p, <>p): TT / TF / FF are pairwise distinct
    assert len(fr.quotient_worlds) == 3
    assert all(len(cls) == 1 for cls in fr.classes)
    assert fr.filtered_model() == KripkeModel(
        Frame(fr.quotient_worlds, fr.r_phi), fr.quotient_val
    )
    # the quotient of an injective filtration mirrors the source relation
    names = {w: fr.quotient_map[w] for w in m.frame.worlds}
    assert fr.r_phi == frozenset(
        (names[u], names[v]) for (u, v) in m.frame.rel
    )


def test_filtrate_collapses_agreeing_worlds():
    m = strict_chain(frozenset())
    fr = filtrate(m, closure_of(Dia(p)))
    assert len(fr.quotient_worlds) == 1
    # the surviving world inherits the chain edge as a self loop
    w = fr.quotient_worlds[0]
    assert fr.r_phi == frozenset({(w, w)})


def test_filtrate_input_checks():
    chain = Frame(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")}))
    with pytest.raises(NonTransitiveError):
        filtrate(KripkeModel(chain, {}), closure_of(p))
    with pytest.raises(ValueError):
        filtrate(strict_chain(frozenset()), closure_of(p), mode="fancy")


def test_untangle_rejects_foreign_inputs():
    m = strict_chain({"w0"})
    other = KripkeModel(Frame(("a",), frozenset({("a", "a")})), {})
    closure = closure_of(Tangle((p,)))
    fr = filtrate(m, closure)
    with pytest.raises(ValueError):
        untangle(fr, other, closure)
    with pytest.raises(ValueError):
        untangle(fr, m, closure_of(Dia(p)))


# each construction and its tree oracle, over (filtration, untangling,
# model, closure)
_CONSTRUCTIONS = {
    "untangle": lambda fr, ut, m, c: untangle(fr, m, c),
    "verify_reduction": verify_reduction,
    "reduction_conditions": lambda fr, ut, m, c: reduction_conditions(fr, m, c),
    "tree_untangle": lambda fr, ut, m, c: tree_untangle(fr, m, c),
    "tree_verify_reduction": tree_verify_reduction,
    "tree_reduction_conditions": lambda fr, ut, m, c: tree_reduction_conditions(fr, m, c),
}


@pytest.mark.parametrize("name", _CONSTRUCTIONS)
def test_constructions_name_the_foreign_input(name):
    # a filtration is read only with the model and the closure it was
    # built from
    build = _CONSTRUCTIONS[name]
    m = strict_chain({"w0"})
    closure = closure_of(Tangle((p,)), Dia(Top()))
    fr = filtrate(m, closure)
    ut = untangle(fr, m, closure)
    other_model = KripkeModel(Frame(("a",), frozenset({("a", "a")})), {"p": ("a",)})
    with pytest.raises(ValueError, match="^filtration was built from a different model$"):
        build(fr, ut, other_model, closure)
    with pytest.raises(ValueError, match="^filtration was built from a different closure set$"):
        build(fr, ut, m, closure_of(Dia(p)))
    build(fr, ut, m, closure)
    # a model on the same worlds is foreign too, whether its valuation or
    # its relation differs.  On the chain whose last world sees itself,
    # <t>{p} & <>true holds everywhere with p at w2 and nowhere with p at w0.
    looped = Frame(m.frame.worlds, m.frame.rel | {("w2", "w2")})
    m = KripkeModel(looped, {"p": {"w2"}})
    closure = closure_of(parse("<t>{p} & <>true"))
    fr = filtrate(m, closure)
    ut = untangle(fr, m, closure)
    for other_model in (KripkeModel(looped, {"p": {"w0"}}), strict_chain({"w2"})):
        with pytest.raises(ValueError, match="^filtration was built from a different model$"):
            build(fr, ut, other_model, closure)
    build(fr, ut, KripkeModel(looped, {"p": ("w2",)}), closure)  # an equal copy


# each construction that reads an untangling, and the tree oracle's
_UNTANGLING_READERS = {
    "verify_reduction": verify_reduction,
    "tree_verify_reduction": tree_verify_reduction,
    "preservation_report": lambda fr, ut, m, c: preservation_report(fr, ut, m),
    "untangled_model": lambda fr, ut, m, c: ut.untangled_model(fr),
}


def looped_chain(val_p):
    # the strict chain whose last world sees itself
    frame = strict_chain(()).frame
    return KripkeModel(Frame(frame.worlds, frame.rel | {("w2", "w2")}), {"p": val_p})


@pytest.mark.parametrize("name", _UNTANGLING_READERS)
def test_an_untangling_is_read_only_with_its_filtration(name):
    read = _UNTANGLING_READERS[name]
    foreign = "^untangling was built from a different filtration$"
    # a fork whose two reflexive ends carry p and q: its untangling has
    # three quotient worlds, the filtration of a -> b only two
    fork = KripkeModel(
        Frame(("r", "x", "y"), frozenset({("r", "x"), ("r", "y"), ("x", "x"), ("y", "y")})),
        {"p": {"x"}, "q": {"y"}},
    )
    fork_closure = closure_of(parse("<t>{p} | <t>{q}"), Dia(Top()))
    fork_ut = untangle(filtrate(fork, fork_closure), fork, fork_closure)
    assert len(fork_ut.quotient_worlds) == 3
    line = Frame(("a", "b"), frozenset({("a", "b"), ("b", "b")}))
    m2 = KripkeModel(line, {"p": {"b"}})
    closure = closure_of(parse("<t>{p} & <>true"))
    f2 = filtrate(m2, closure)
    assert len(f2.quotient_worlds) == 2
    with pytest.raises(ValueError, match=foreign):
        read(f2, fork_ut, m2, closure)
    # an untangling built under the same closure is foreign too: with p at
    # w2 of the looped chain, <t>{p} holds everywhere; with p at a, nowhere
    looped = looped_chain({"w2"})
    chain_ut = untangle(filtrate(looped, closure), looped, closure)
    m2 = KripkeModel(line, {"p": {"a"}})
    f2 = filtrate(m2, closure)
    with pytest.raises(ValueError, match=foreign):
        read(f2, chain_ut, m2, closure)
    # its own untangling is read, with an equal copy of the filtration and
    # with a copy of the untangling remade from its fields
    ut = untangle(f2, m2, closure)
    read(f2, ut, m2, closure)
    copy = remade(ut, nuclei=ut.nuclei)
    assert copy == ut and hash(copy) == hash(ut)
    read(filtrate(m2, closure), copy, m2, closure)


def test_preservation_report_refuses_a_foreign_model():
    m = looped_chain({"w2"})
    closure = closure_of(parse("<t>{p} & <>true"))
    fr = filtrate(m, closure)
    ut = untangle(fr, m, closure)
    assert preservation_report(fr, ut, m).source.serial
    with pytest.raises(ValueError, match="^filtration was built from a different model$"):
        preservation_report(fr, ut, KripkeModel(Frame(("a",), frozenset()), {}))


@pytest.mark.parametrize("mode", ["standard", "refined"])
def test_the_constructions_build_no_predecessor_rows_of_the_quotients(mode):
    # the quotients' clusters come from their successor rows alone
    rng = random.Random(8400)
    m = random_cluster_model(rng, 60)
    closure = random_closure(rng)
    fr = filtrate(m, closure, mode=mode)
    ut = untangle(fr, m, closure)
    assert reduction_conditions(fr, m, closure) == []
    assert verify_reduction(fr, ut, m, closure).ok
    assert "pred" not in vars(fr.filtered_frame())
    assert "pred" not in vars(ut.untangled_frame())


@pytest.mark.parametrize("seed", range(80))
def test_filtration_property_tangle_free(seed):
    # for closures without tangles, the filtered model satisfies each
    # member exactly at the images of the satisfying source worlds
    rng = random.Random(seed)
    m = random_model(rng, 7, ("p", "q"), kind="transitive")
    closure = random_closure(rng, tangles=False)
    fr = filtrate(m, closure, mode="refined" if seed % 2 else "standard")
    filtered = fr.filtered_model()
    for f in closure:
        ext = model_check(filtered, f)
        for x in m.frame.worlds:
            assert (x in fr.source_truth[f]) == (fr.quotient_map[x] in ext)
    assert reduction_conditions(fr, m, closure) == []
    assert len(fr.quotient_worlds) <= 2 ** len(closure)


@pytest.mark.parametrize("seed", range(60))
def test_filtration_preserves_tangles_forward(seed):
    # with tangles in the closure only the forward direction is owed by
    # the plain quotient; the untangled model restores the equivalence
    rng = random.Random(1000 + seed)
    m = random_model(rng, 7, ("p", "q"), kind="transitive")
    closure = random_closure(rng, tangles=True)
    fr = filtrate(m, closure)
    filtered = fr.filtered_model()
    for f in closure.tangle_members:
        ext = model_check(filtered, f)
        for x in fr.source_truth[f]:
            assert fr.quotient_map[x] in ext


def test_classes_align_with_map_and_valuation():
    rng = random.Random(5)
    m = random_model(rng, 7, kind="transitive")
    closure = random_closure(rng)
    fr = filtrate(m, closure)
    for i, w in enumerate(fr.quotient_worlds):
        assert all(fr.quotient_map[x] == w for x in fr.classes[i])
    for a in closure.atoms:
        held = frozenset(fr.quotient_val.get(a, ()))
        for x in m.frame.worlds:
            assert (x in m.val.get(a, frozenset())) == (fr.quotient_map[x] in held)
    with pytest.raises(KeyError):
        fr.realized(Atom("unrelated"))


def test_refined_mode_separates_views_of_maximal_clusters():
    # two worlds with equal profiles but different maximal clusters in view
    frame = Frame(
        ("a", "b", "c", "d"),
        frozenset({("a", "c"), ("b", "d"), ("c", "c"), ("d", "d")}),
    )
    m = KripkeModel(frame, {"p": {"c", "d"}})
    closure = closure_of(Dia(p))
    standard = filtrate(m, closure)
    refined = filtrate(m, closure, mode="refined")
    # standard: a and b agree on {p, <>p}; c and d agree
    assert len(standard.quotient_worlds) == 2
    # refined: a sees only the cluster {c}, b only {d}
    assert len(refined.quotient_worlds) == 4
    assert len(refined.maximal_clusters) == 2


# ---------------------------------------------------------------------------
# Untangling and the reduction check


@pytest.mark.parametrize("seed", range(150))
def test_untangled_quotient_passes_reduction(seed):
    rng = random.Random(2000 + seed)
    kind = ("transitive", "serial", "reflexive")[seed % 3]
    m = random_model(rng, 7, ("p", "q"), kind=kind)
    closure = random_closure(rng)
    fr = filtrate(m, closure, mode="refined" if seed % 2 else "standard")
    reflexive_mode = kind == "reflexive"
    ut = untangle(fr, m, closure, reflexive_mode=reflexive_mode)
    report = verify_reduction(fr, ut, m, closure)
    assert report.ok, report.failure
    assert report.failure is None
    assert report.checked == len(closure) * len(m.frame.worlds)
    # structural facts about the refined relation
    assert ut.r_t <= fr.r_phi
    assert relation_properties(ut.untangled_frame()).transitive
    dec = cluster_decomposition(fr.filtered_frame())
    assert ut.clusters == dec.clusters
    for cluster, crit, nucleus in zip(ut.clusters, ut.critical_points, ut.nuclei):
        assert nucleus <= cluster
        assert fr.quotient_map[crit] in cluster
    if reflexive_mode:
        assert relation_properties(ut.untangled_frame()).reflexive


def test_reduction_lemma_on_every_small_model():
    # every transitive frame of 1-3 worlds up to isomorphism under every
    # valuation of p and q, 2,632 models, with one closure per mode: the
    # untangled filtration keeps the truth of each closure member
    closures = {
        "standard": closure_of(parse("<t>{p, q}"), Dia(Top())),
        "refined": closure_of(parse("<t>{p, ~p} | []q"), Dia(Top())),
    }
    models = 0
    for n in (1, 2, 3):
        for frame in enumerate_frames(n):
            for ps, qs in product(range(1 << n), repeat=2):
                m = KripkeModel(frame, {"p": frame.unmask(ps), "q": frame.unmask(qs)})
                models += 1
                for mode, closure in closures.items():
                    fr = filtrate(m, closure, mode)
                    report = verify_reduction(fr, untangle(fr, m, closure), m, closure)
                    assert report.ok, (mode, model_to_dict(m), report.failure)
                    assert reduction_conditions(fr, m, closure) == [], (mode, model_to_dict(m))
    assert models == 2632


def _reduction_lemma_on_every_model(n):
    """Check the reduction on every transitive frame of ``n`` worlds up to
    isomorphism, under every valuation of p, with one closure per mode, and
    return the number of frames."""
    closures = {
        "standard": closure_of(parse("<t>{p, ~p}"), Dia(Top())),
        "refined": closure_of(parse("<t>{p, ~p} | []p"), Dia(Top())),
    }
    frames = list(enumerate_frames(n))
    for frame in frames:
        for ps in range(1 << n):
            m = KripkeModel(frame, {"p": frame.unmask(ps)})
            for mode, closure in closures.items():
                fr = filtrate(m, closure, mode)
                report = verify_reduction(fr, untangle(fr, m, closure), m, closure)
                assert report.ok, (mode, model_to_dict(m), report.failure)
                assert reduction_conditions(fr, m, closure) == [], (mode, model_to_dict(m))
    return len(frames)


def test_reduction_lemma_on_every_four_world_model():
    assert _reduction_lemma_on_every_model(4) == 242


@pytest.mark.sweep
def test_reduction_lemma_on_every_five_world_model(monkeypatch):
    # 1,895 frames, 60,640 models: about half a minute, so it runs in its
    # own CI step rather than in the default run
    monkeypatch.setattr(logics, "_CANONICAL_LIMIT", 5)
    assert _reduction_lemma_on_every_model(5) == 1895


# closures of the local connectedness sweeps, each with <>true, p and q
_SWEEP_CLOSURES = {
    root: closure_of(parse(root), Dia(Top()), p, q)
    for root in ("<t>{p, q}", "<t>{p, ~p} | []q", "[]<t>{p, ~q}")
}


def _connectedness_lost(frames, degree, every_closure=True):
    """The runs and their failures: each model on ``frames`` under every
    valuation of p and q is filtered in refined mode by each sweep closure,
    or by one in turn without ``every_closure``, and fails where its
    filtered or untangled frame is not locally ``degree``-connected."""
    runs, lost = 0, []
    for frame in frames:
        for ps, qs in product(range(1 << len(frame.worlds)), repeat=2):
            m = KripkeModel(frame, {"p": frame.unmask(ps), "q": frame.unmask(qs)})
            picked = list(_SWEEP_CLOSURES.items())
            for root, closure in picked if every_closure else [picked[runs % 3]]:
                runs += 1
                fr = filtrate(m, closure, "refined")
                quotients = {
                    "filtered": fr.filtered_frame(),
                    "untangled": untangle(fr, m, closure).untangled_frame(),
                }
                lost += [
                    (which, model_to_dict(m), root)
                    for which, quotient in quotients.items()
                    if not locally_n_connected(quotient, degree)
                ]
    return runs, lost


def test_refined_filtration_keeps_local_1_connectedness_on_every_small_frame():
    # every locally 1-connected transitive frame of 1-3 worlds up to
    # isomorphism (2, 8 and 36 of them): 2,440 models, three closures each
    frames = [f for n in (1, 2, 3) for f in enumerate_frames(n) if locally_n_connected(f, 1)]
    assert len(frames) == 46
    assert _connectedness_lost(frames, 1) == (7320, [])


def test_refined_filtration_keeps_local_2_connectedness_on_small_frames():
    # the frames locally 2- but not 1-connected: none of 1-2 worlds, 3 of 3
    # worlds with every closure, and 36 of 4 worlds with one closure per
    # model in turn
    frames = {
        n: [f for f in enumerate_frames(n) if locally_n_connected(f, 2) and not locally_n_connected(f, 1)]
        for n in (1, 2, 3, 4)
    }
    assert [len(fs) for fs in frames.values()] == [0, 0, 3, 36]
    assert _connectedness_lost(frames[3], 2) == (576, [])
    assert _connectedness_lost(frames[4], 2, every_closure=False) == (9216, [])


def test_standard_filtration_can_lose_local_connectedness():
    # w2 and w3 agree on the closure but see w1 and w0, which q tells apart:
    # standard mode merges them into one world whose successors split in
    # two, where refined mode keeps them apart.  No model of 1-3 worlds
    # shows this, so the sweeps above pass in either mode.
    frame = Frame(("w0", "w1", "w2", "w3"), {("w2", "w1"), ("w3", "w0")})
    m = KripkeModel(frame, {"q": ("w0",)})
    assert locally_n_connected(frame, 1)
    closure = _SWEEP_CLOSURES["<t>{p, q}"]
    for mode, kept in (("standard", False), ("refined", True)):
        fr = filtrate(m, closure, mode)
        assert locally_n_connected(fr.filtered_frame(), 1) is kept
        assert locally_n_connected(untangle(fr, m, closure).untangled_frame(), 1) is kept


def test_degenerate_clusters_get_empty_nuclei():
    m = strict_chain({"w0", "w1"})
    closure = closure_of(Tangle((p,)))
    fr = filtrate(m, closure)
    ut = untangle(fr, m, closure)
    assert all(n == frozenset() for n in ut.nuclei)


def test_reflexive_mode_is_wrong_for_strict_sources():
    # a strict chain filtered through a tangle closure: keeping self loops
    # manufactures a cluster satisfying the tangle nowhere true in the source
    m = strict_chain({"w0", "w1"})
    closure = closure_of(Tangle((p,)), Dia(Top()))
    fr = filtrate(m, closure)
    plain = verify_reduction(fr, untangle(fr, m, closure), m, closure)
    assert plain.ok
    loops = verify_reduction(
        fr, untangle(fr, m, closure, reflexive_mode=True), m, closure
    )
    assert not loops.ok
    phi, world, expected, actual = loops.failure
    assert phi == Tangle((p,))
    assert expected is False and actual is True


def test_reduction_conditions_flag_forged_quotients():
    m = strict_chain({"w0", "w1"})
    closure = closure_of(Dia(p))
    fr = filtrate(m, closure)
    assert reduction_conditions(fr, m, closure) == []
    forged = remade(fr, quotient_val={"p": ()})
    assert any("valuation of p" in msg for msg in reduction_conditions(forged, m, closure))
    gutted = remade(fr, r_phi=frozenset())
    assert any("lost in the quotient" in msg for msg in reduction_conditions(gutted, m, closure))
    # a copy remade from its fields reads them, never the original's
    # quotient frame or masks
    ut = untangle(fr, m, closure)
    assert verify_reduction(fr, ut, m, closure).ok
    assert not verify_reduction(fr, remade(ut, r_t=frozenset()), m, closure).ok
    assert preservation_report(fr, ut, m).filtered.connected
    assert untangle(gutted, m, closure).r_t == frozenset()
    gutted_report = preservation_report(gutted, untangle(gutted, m, closure), m)
    assert gutted_report.filtered.path_component_count == len(fr.quotient_worlds) == 3


def test_reduction_conditions_name_each_forged_condition():
    # a sees nothing; b sees itself and carries p, so <t>{p} and <>p hold at b only
    m = KripkeModel(Frame(("a", "b"), frozenset({("b", "b")})), {"p": {"b"}})
    closure = closure_of(Tangle((p,)), Dia(p))
    fr = filtrate(m, closure)
    assert reduction_conditions(fr, m, closure) == []
    qa, qb = fr.quotient_map["a"], fr.quotient_map["b"]
    bound = 2 ** len(closure)
    seen_across = remade(fr, r_phi=fr.r_phi | {(qa, qb)})
    cases = {
        "class of a mixes worlds with different profiles":
            remade(fr, classes=(("a", "b"),)),
        "<t>{p} holds at b but not at a across the quotient": seen_across,
        "<>p fails at a despite its body holding from b": seen_across,
        f"{2 + bound} quotient worlds exceed the bound {bound}": remade(
            fr, quotient_worlds=fr.quotient_worlds + tuple(f"x{k}" for k in range(bound))
        ),
        f"cluster of {min(qa, qb)} mixes worlds realising different tangle or diamond members":
            remade(fr, r_phi=fr.r_phi | {(qa, qa), (qa, qb), (qb, qa)}),
    }
    for message, forged in cases.items():
        found = reduction_conditions(forged, m, closure)
        assert message in found
        assert found == tree_reduction_conditions(forged, m, closure)


def test_untangle_refuses_a_cluster_without_critical_point():
    # a and b form a cluster and p holds at b; a result that claims <t>{p}
    # false everywhere leaves no world of the cluster to pick
    m = KripkeModel(Frame(("a", "b"), frozenset(product("ab", repeat=2))), {"p": {"b"}})
    closure = closure_of(Tangle((p,)))
    fr = filtrate(m, closure)
    forged = remade(
        fr, source_truth={**fr.source_truth, Tangle((p,)): frozenset()}
    )
    with pytest.raises(CriticalPointError, match="no critical point for cluster"):
        untangle(forged, m, closure)
    assert _outcome(untangle, forged, m, closure) == _outcome(tree_untangle, forged, m, closure)


@pytest.mark.parametrize("seed", range(10))
def test_realized_is_the_image_of_the_source_truth(seed):
    rng = random.Random(8500 + seed)
    m = random_model(rng, 7, ("p", "q"), kind="transitive")
    closure = random_closure(rng)
    fr = filtrate(m, closure, mode="refined" if seed % 2 else "standard")
    for f in closure:
        assert fr.realized(f) == {fr.quotient_map[x] for x in fr.source_truth[f]}


@pytest.mark.parametrize("seed", range(20))
def test_preimages_are_the_columns_of_the_image(seed):
    # filtrate keeps each class mask it built; a copy remade from its fields
    # computes the same masks from them
    rng = random.Random(8600 + seed)
    m = random_model(rng, rng.randint(1, 9), ("p", "q"), kind="transitive")
    closure = random_closure(rng)
    for mode in ("standard", "refined"):
        fr = filtrate(m, closure, mode)
        want = _columns(fr._image, len(fr.quotient_worlds))
        assert fr._preimages == want == remade(fr)._preimages


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(120))
def test_filtration_matches_pair_set_oracles(seed):
    rng = random.Random(8000 + seed)
    if seed % 6 == 5:
        m = random_cluster_model(rng, rng.randint(60, 120), reflexive=seed % 12 == 11)
    else:
        kind = ("transitive", "serial", "reflexive")[seed % 3]
        m = random_model(rng, 12, ("p", "q"), kind=kind)
    closure = random_closure(rng)
    for mode in ("standard", "refined"):
        fr = filtrate(m, closure, mode=mode)
        want = tree_filtrate(m, closure, mode=mode)
        assert fr == want
        assert list(fr.quotient_map.items()) == list(want.quotient_map.items())
        assert list(fr.source_truth) == list(want.source_truth)
        assert reduction_conditions(fr, m, closure) == tree_reduction_conditions(fr, m, closure)
        for reflexive_mode in (False, True):
            ut = untangle(fr, m, closure, reflexive_mode=reflexive_mode)
            assert ut == tree_untangle(fr, m, closure, reflexive_mode=reflexive_mode)
            report = verify_reduction(fr, ut, m, closure)
            assert report == tree_verify_reduction(fr, ut, m, closure)
            # a forged relation fails the check at the same place
            r_t = frozenset(p for p in ut.r_t if rng.random() < 0.7)
            forged_ut = remade(ut, r_t=r_t)
            assert _outcome(verify_reduction, fr, forged_ut, m, closure) == _outcome(
                tree_verify_reduction, fr, forged_ut, m, closure
            )
        # forged quotients: the same messages and outcomes from the fields alone
        loops = frozenset(p for p in fr.r_phi if p[0] == p[1] and rng.random() < 0.8)
        val = {a: tuple(w for w in ws if rng.random() < 0.8) for a, ws in fr.quotient_val.items()}
        for forged in (
            remade(fr, r_phi=loops),
            remade(fr, quotient_val=val),
            remade(fr, r_phi=frozenset(p for p in fr.r_phi if rng.random() < 0.8)),
        ):
            assert _outcome(reduction_conditions, forged, m, closure) == _outcome(
                tree_reduction_conditions, forged, m, closure
            )
            assert _outcome(untangle, forged, m, closure) == _outcome(
                tree_untangle, forged, m, closure
            )


@pytest.mark.parametrize("seed", range(30))
def test_relation_fields_are_spelled_out_when_read(seed):
    rng = random.Random(8200 + seed)
    if seed % 6 == 5:
        m = random_cluster_model(rng, rng.randint(60, 120), reflexive=seed % 12 == 11)
    else:
        m = random_model(rng, 12, ("p", "q"), kind=("transitive", "serial", "reflexive")[seed % 3])
    closure = random_closure(rng)
    mode = ("standard", "refined")[seed % 2]
    fr = filtrate(m, closure, mode=mode)
    ut = untangle(fr, m, closure, reflexive_mode=seed % 4 > 1)
    # no pair set is built until a field is read
    fields = [(fr, "r_lambda"), (fr, "r_phi"), (ut, "r_t")]
    assert not any(isinstance(vars(result)[name], frozenset) for result, name in fields)
    want = tree_filtrate(m, closure, mode=mode)
    assert fr.r_lambda == want.r_lambda and fr.r_phi == want.r_phi
    assert ut.r_t == tree_untangle(want, m, closure, reflexive_mode=ut.reflexive_mode).r_t
    assert all(isinstance(vars(result)[name], frozenset) for result, name in fields)
    assert fr.filtered_frame() == Frame(fr.quotient_worlds, fr.r_phi)
    assert ut.untangled_frame() == Frame(ut.quotient_worlds, ut.r_t)


# ---------------------------------------------------------------------------
# Characteristic formulas


def test_characteristic_alphabet_and_cap():
    m = strict_chain({"w0"})
    closure = closure_of(Dia(p), q)
    data = characteristic_formulas(m, closure)
    assert data.alphabet == (p, q, Dia(Top()))
    wide = closure_of(*(Atom(f"a{i}") for i in range(10)))
    with pytest.raises(ValueError):
        characteristic_formulas(m, wide)


@pytest.mark.parametrize("seed", range(60))
def test_characteristic_reports(seed):
    rng = random.Random(3000 + seed)
    m = random_model(rng, 6, ("p", "q"), kind="transitive")
    data = characteristic_formulas(m, random_closure(rng))
    report = data.report
    # the type-level guarantees are unconditional
    assert report.type_description_ok
    assert report.maximal_membership_by_type
    assert report.cluster_scope_by_type
    assert report.component_cover_ok
    assert report.ok
    # sharp checks are gated on distinct maximal types
    if report.types_distinct:
        assert report.maximal_membership_sharp is True
        assert report.cluster_scope_sharp is True
    else:
        assert report.maximal_membership_sharp is None
        assert report.notes


@pytest.mark.parametrize("seed", range(60))
def test_defining_formula(seed):
    rng = random.Random(4000 + seed)
    m = random_model(rng, 6, ("p", "q"), kind="transitive")
    closure = random_closure(rng)
    mode = "refined" if seed % 2 else "standard"
    fr = filtrate(m, closure, mode=mode)
    data = characteristic_formulas(m, closure)
    if mode == "refined" and data.report.class_formula_sharp is not True:
        return
    subset = frozenset(w for w in fr.quotient_worlds if rng.random() < 0.5)
    ext = model_check(m, defining_formula(fr, data, subset))
    assert ext == frozenset(
        x for x in m.frame.worlds if fr.quotient_map[x] in subset
    )
    with pytest.raises(ValueError):
        defining_formula(fr, data, {"not-a-world"})


def test_characteristic_report_ok_reads_every_applicable_check():
    # types_distinct and reachable_serial say which checks apply; any other
    # check fails the report when False and is skipped when None
    from tangles.filtration import CharacteristicReport

    names = CharacteristicReport.__match_args__[:-1]
    for name in names:
        fields = dict.fromkeys(names, True) | {"notes": ()}
        assert CharacteristicReport(**fields | {name: None}).ok
        failed = CharacteristicReport(**fields | {name: False})
        assert failed.ok == (name in ("types_distinct", "reachable_serial")), name


@pytest.mark.parametrize("seed", range(240))
def test_characteristic_formulas_match_world_set_oracle(seed):
    rng = random.Random(9000 + seed)
    atoms = ("p", "q", "r")[:rng.randint(1, 3)]
    if seed % 2:
        m = random_cluster_model(rng, rng.randint(20, 60), atoms, reflexive=seed % 4 == 3)
    else:
        m = random_model(rng, 7, atoms, kind=("transitive", "serial", "reflexive")[seed // 2 % 3])
    closure = random_closure(rng)
    data = characteristic_formulas(m, closure)
    assert data == tree_characteristic_formulas(m, closure)
    assert data.report.ok
    wide = closure_of(*(Atom(f"a{i}") for i in range(rng.randint(9, 11))), *closure.formulas)
    general = random_model(rng, 6, atoms, kind="general")
    for model, roots in ((m, wide), (general, closure)):
        assert _outcome(characteristic_formulas, model, roots) == _outcome(
            tree_characteristic_formulas, model, roots
        )


# ---------------------------------------------------------------------------
# Preservation


@pytest.mark.parametrize("seed", range(80))
def test_preservation_on_serial_sources(seed):
    rng = random.Random(5000 + seed)
    m = random_model(rng, 7, ("p", "q"), kind="serial")
    closure = random_closure(rng)
    fr = filtrate(m, closure, mode="refined")
    ut = untangle(fr, m, closure)
    report = preservation_report(fr, ut, m)
    assert report.source.serial
    assert report.serial_preserved is True
    assert report.sees_reflexive is True
    assert report.path_components_equal is True
    assert report.common_successor_ok is True


@pytest.mark.parametrize("seed", range(40))
def test_preservation_on_reflexive_sources(seed):
    rng = random.Random(6000 + seed)
    m = random_model(rng, 7, ("p", "q"), kind="reflexive")
    closure = random_closure(rng)
    fr = filtrate(m, closure, mode="refined")
    ut = untangle(fr, m, closure, reflexive_mode=True)
    report = preservation_report(fr, ut, m)
    assert report.reflexive_preserved is True
    if report.source.connected:
        assert report.connected_preserved is True


def test_preservation_warns_without_successor_diamond():
    m = strict_chain({"w0"})
    closure = closure_of(p)
    fr = filtrate(m, closure)
    ut = untangle(fr, m, closure)
    report = preservation_report(fr, ut, m)
    assert report.path_components_equal is None
    assert report.common_successor_ok is None
    assert any("<>true" in w for w in report.warnings)
    assert any("standard mode" in w for w in report.warnings)
