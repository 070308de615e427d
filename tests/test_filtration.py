"""Filtration and untangling: quotient bookkeeping, the reduction check,
characteristic formulas, structure preservation."""

import dataclasses
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
    filtrate,
    model_check,
    path_components,
    preservation_report,
    reduction_conditions,
    relation_properties,
    subformula_closure,
    untangle,
    verify_reduction,
)
from gen import random_cluster_model, random_formula, random_model
from oracles import (
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
    forged = dataclasses.replace(fr, quotient_val={"p": ()})
    assert any("valuation of p" in msg for msg in reduction_conditions(forged, m, closure))
    gutted = dataclasses.replace(fr, r_phi=frozenset())
    assert any("lost in the quotient" in msg for msg in reduction_conditions(gutted, m, closure))
    # a copy made by replace reads its own fields, never the original's
    # quotient frame or masks
    ut = untangle(fr, m, closure)
    assert verify_reduction(fr, ut, m, closure).ok
    assert not verify_reduction(fr, dataclasses.replace(ut, r_t=frozenset()), m, closure).ok
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
    seen_across = dataclasses.replace(fr, r_phi=fr.r_phi | {(qa, qb)})
    cases = {
        "class of a mixes worlds with different profiles":
            dataclasses.replace(fr, classes=(("a", "b"),)),
        "<t>{p} holds at b but not at a across the quotient": seen_across,
        "<>p fails at a despite its body holding from b": seen_across,
        f"{2 + bound} quotient worlds exceed the bound {bound}": dataclasses.replace(
            fr, quotient_worlds=fr.quotient_worlds + tuple(f"x{k}" for k in range(bound))
        ),
        f"cluster of {min(qa, qb)} mixes worlds realising different tangle or diamond members":
            dataclasses.replace(fr, r_phi=fr.r_phi | {(qa, qa), (qa, qb), (qb, qa)}),
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
    forged = dataclasses.replace(
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
            forged_ut = dataclasses.replace(ut, r_t=r_t)
            assert _outcome(verify_reduction, fr, forged_ut, m, closure) == _outcome(
                tree_verify_reduction, fr, forged_ut, m, closure
            )
        # forged quotients: the same messages and outcomes from the fields alone
        loops = frozenset(p for p in fr.r_phi if p[0] == p[1] and rng.random() < 0.8)
        val = {a: tuple(w for w in ws if rng.random() < 0.8) for a, ws in fr.quotient_val.items()}
        for forged in (
            dataclasses.replace(fr, r_phi=loops),
            dataclasses.replace(fr, quotient_val=val),
            dataclasses.replace(fr, r_phi=frozenset(p for p in fr.r_phi if rng.random() < 0.8)),
        ):
            assert _outcome(reduction_conditions, forged, m, closure) == _outcome(
                tree_reduction_conditions, forged, m, closure
            )
            assert _outcome(untangle, forged, m, closure) == _outcome(
                tree_untangle, forged, m, closure
            )


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
    with pytest.raises(ValueError):
        data.type_formula({Atom("zz")})


def test_type_formulas_carve_out_types():
    rng = random.Random(9)
    m = random_model(rng, 6, ("p", "q"), kind="transitive")
    data = characteristic_formulas(m, closure_of(Dia(p), q))
    assert data.report.type_description_ok
    for w in m.frame.worlds:
        ext = model_check(m, data.type_formula(data.type_of[w]))
        assert ext == frozenset(
            v for v in m.frame.worlds if data.type_of[v] == data.type_of[w]
        )


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
