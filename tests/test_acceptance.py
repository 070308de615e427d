"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package over a randomized
corpus or an exhaustive small-frame sweep, and prints a [PASS]/[FAIL] line
with its wall-clock time (run pytest with -s to see them).  The time limits
are generous ceilings, not benchmarks.
"""

import random
import time

from gen import (
    random_formula,
    random_locally_connected_model,
    random_member_set,
    random_model,
    random_space,
    random_tangle_formula,
    three_point_topologies,
)
from tangles import (
    And,
    Atom,
    Bot,
    Box,
    Dia,
    DiaD,
    Evaluator,
    Frame,
    KripkeModel,
    Neg,
    Tangle,
    Top,
    TopoModel,
    bounded_sat,
    closures,
    enumerate_frames,
    figure3_constraints,
    figure3_model,
    filtrate,
    frame_validates,
    instantiate,
    locally_n_connected,
    model_check,
    named_frames,
    operators,
    parse_profile,
    preservation_report,
    relation_properties,
    space_predicates,
    subformula_closure,
    to_d,
    to_mu,
    topo_model_check,
    untangle,
    verify_reduction,
)
from oracles import tangle_oracle, tree_extension

p, q = Atom("p"), Atom("q")


def _report(name, ok, t0, limit):
    elapsed = time.time() - t0
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{status}] {name}: {elapsed:.1f}s (limit {limit}s)")
    assert ok
    assert elapsed < limit


def _connected_undirected(frame):
    adj = {w: set() for w in frame.worlds}
    for (u, v) in frame.rel:
        adj[u].add(v)
        adj[v].add(u)
    seen = {frame.worlds[0]}
    stack = [frame.worlds[0]]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(frame.worlds)


def test_tangle_triple_agreement():
    # three methods agree: the compiled greatest-fixpoint loop (also reached
    # through the to_mu encoding, which compiles to the same loop), the
    # cluster criterion of tree_extension, and a lasso search per world
    t0 = time.time()
    rng = random.Random(101)
    ok = True
    for _ in range(500):
        model = random_model(rng, 7, ("p", "q", "r"), kind="transitive")
        members = random_member_set(rng, 2, 2)
        tangle = Tangle(members)
        direct = model_check(model, tangle)
        encoded = model_check(model, to_mu(tangle))
        ev = Evaluator(model.frame)
        clusters = model.frame.unmask(tree_extension(ev, tangle, ev.valuation_masks(model.val)))
        ok = ok and direct == encoded == clusters
        for w in model.frame.worlds:
            ok = ok and (w in direct) == tangle_oracle(model, w, members)
        if not ok:
            break
    _report("tangle triple agreement", ok, t0, 60)


def test_star_matches_transitive_closure():
    t0 = time.time()
    rng = random.Random(202)
    from tangles import star

    ok = True
    for _ in range(200):
        model = random_model(rng, 6, ("p", "q"), kind="general")
        phi = random_formula(rng, 3, tangles=False, fixpoints=True)
        starred = model_check(model, star(phi))
        closed = KripkeModel(closures(model.frame).reflexive_transitive, model.val)
        ok = ok and starred == model_check(closed, phi)
        if not ok:
            break
    _report("star closure semantics", ok, t0, 60)


def test_translation_agreement():
    t0 = time.time()
    rng = random.Random(303)
    ok = True
    for _ in range(200):
        model = random_model(rng, 7, ("p", "q"), kind="transitive")
        phi = random_formula(rng, 3, tangles=True, fixpoints=True)
        ok = ok and model_check(model, phi) == model_check(model, to_mu(phi))
        if not ok:
            break
    for _ in range(200):
        tmodel = random_space(rng, 4)
        phi = random_formula(rng, 2, tangles=True, fixpoints=True, derivative=True)
        ok = ok and topo_model_check(tmodel, phi) == topo_model_check(tmodel, to_mu(phi))
        if not ok:
            break
    for _ in range(200):
        model = random_model(rng, 7, ("p", "q"), kind="reflexive")
        phi = random_formula(
            rng, 3, tangles=True, fixpoints=True, universal=True, derivative=True
        )
        ok = ok and model_check(model, phi) == model_check(model, to_d(phi))
        if not ok:
            break
    _report("mu and d translations", ok, t0, 120)


def test_td_boundary():
    # the d translation is faithful exactly on TD spaces; elsewhere a
    # singleton whose derivative is not closed separates the two sides
    t0 = time.time()
    rng = random.Random(404)
    spaces = list(three_point_topologies())
    for _ in range(60):
        spaces.append(random_space(rng, 4).space)
    witness_tangle = Tangle((p, DiaD(p)))
    ok = True
    for space in spaces:
        witnesses = []
        for x in space.points:
            deriv = operators(space, {x}).derivative
            if operators(space, deriv).closure != deriv:
                witnesses.append(x)
        ok = ok and space_predicates(space).is_TD == (not witnesses)
        if witnesses:
            for x in witnesses:
                tmodel = TopoModel(space, {"p": {x}})
                true_at = topo_model_check(tmodel, witness_tangle)
                translated_at = topo_model_check(tmodel, to_d(witness_tangle))
                ok = ok and x in true_at and x not in translated_at
        else:
            for _ in range(50):
                val = {
                    a: {x for x in space.points if rng.random() < 0.5}
                    for a in ("p", "q")
                }
                tmodel = TopoModel(space, val)
                phi = random_formula(rng, 2, tangles=True, fixpoints=True)
                ok = ok and topo_model_check(tmodel, phi) == topo_model_check(
                    tmodel, to_d(phi)
                )
        if not ok:
            break
    _report("td translation boundary", ok, t0, 120)


def test_untangled_reduction():
    t0 = time.time()
    rng = random.Random(505)
    kinds = ("transitive", "serial", "reflexive")
    ok = True
    for trial in range(300):
        kind = kinds[trial % 3]
        model = random_model(rng, 8, ("p", "q", "r"), kind=kind)
        phi = random_tangle_formula(rng)
        closure = subformula_closure([phi, Dia(Top())])
        mode = "standard" if trial % 2 == 0 else "refined"
        result = filtrate(model, closure, mode=mode)
        reflexive_mode = kind == "reflexive"
        unt = untangle(result, model, closure, reflexive_mode=reflexive_mode)
        report = verify_reduction(result, unt, model, closure)
        ok = ok and report.ok
        ok = ok and len(result.quotient_worlds) <= 2 ** len(closure)
        ok = ok and set(unt.r_t) <= set(result.r_phi)
        props = relation_properties(unt.untangled_frame())
        ok = ok and props.transitive
        preserved = preservation_report(result, unt, model)
        ok = ok and preserved.path_components_equal
        if kind == "serial":
            ok = ok and preserved.serial_preserved and preserved.sees_reflexive
        if reflexive_mode:
            ok = ok and preserved.reflexive_preserved and props.reflexive
        if not ok:
            break
    _report("filtration reduction", ok, t0, 300)


def test_local_connectedness_preservation():
    t0 = time.time()
    rng = random.Random(606)
    failures = []
    for trial in range(100):
        model = random_locally_connected_model(rng, 6)
        phi = random_tangle_formula(rng)
        closure = subformula_closure([phi, Dia(Top()), p, q])
        result = filtrate(model, closure, mode="refined")
        unt = untangle(result, model, closure)
        if not locally_n_connected(Frame(result.quotient_worlds, result.r_phi), 1):
            failures.append((trial, "filtered"))
        if not locally_n_connected(unt.untangled_frame(), 1):
            failures.append((trial, "untangled"))
    for trial, which in failures:
        print(
            f"[ESCALATE] trial {trial}: {which} quotient of a locally "
            "1-connected model lost local 1-connectedness"
        )
    _report("local connectedness preserved", not failures, t0, 300)


def test_gn_structural_correspondence():
    # frame validity of G_n coincides with structural local n-connectedness
    t0 = time.time()
    mismatches = 0
    for n in range(1, 5):
        for frame in enumerate_frames(n):
            for degree in (1, 2):
                structural = locally_n_connected(frame, degree)
                valid = frame_validates(frame, instantiate(f"G{degree}")).valid
                if structural != valid:
                    mismatches += 1
    _report("connectedness axiom correspondence", mismatches == 0, t0, 600)


def test_axiom_soundness():
    t0 = time.time()
    subst = (p, Dia(p), And(p, Box(q)), Neg(q))
    member_sets = ((p,), (p, q), (Dia(p),), (p, Neg(q)))
    sweeps = [
        ("Fix", [(members,) for members in member_sets], {}),
        ("Ind", [((p,), q), ((p, q), Dia(p)), ((Dia(p),), And(p, Box(q)))], {}),
        ("4t", [(members,) for members in member_sets], {}),
        ("U", [(a,) for a in subst], {}),
        ("Tt", [(members,) for members in member_sets], {"reflexive": True}),
        ("T", [(a,) for a in subst], {"reflexive": True}),
        ("D", [()], {"serial": True}),
        ("C", [(a,) for a in subst], {"connected": True}),
        ("G1", [(p, q), (p, Neg(p)), (Dia(p), q)], {"local_connectedness": 1}),
    ]
    ok = True
    for schema, arg_lists, conditions in sweeps:
        for n in range(1, 5):
            for frame in enumerate_frames(n, **conditions):
                for args in arg_lists:
                    if not frame_validates(frame, instantiate(schema, *args)).valid:
                        print(f"[ESCALATE] {schema}{args} fails on {frame}")
                        ok = False
    named = named_frames()
    # dropping each side condition admits a small named counterexample
    refutations = [
        ("T", (p,), "irreflexive_point"),
        ("Tt", ((p,),), "irreflexive_point"),
        ("D", (), "successorless_point"),
        ("C", (p,), "two_islands"),
        ("G1", (p, Neg(p)), "fork"),
    ]
    for schema, args, name in refutations:
        ok = ok and not frame_validates(named[name], instantiate(schema, *args)).valid
    # 4t needs the fixpoint reading on a non-transitive frame
    ok = ok and not frame_validates(
        named["broken_chain"], to_mu(instantiate("4t", (p,)))
    ).valid
    # the unconditioned schemas hold even on the refutation frames
    for name, frame in named.items():
        if not relation_properties(frame).transitive:
            continue
        for schema, args in [("U", (p,)), ("Fix", ((p, q),)), ("Ind", ((p,), q))]:
            ok = ok and frame_validates(frame, instantiate(schema, *args)).valid
    _report("axiom soundness", ok, t0, 600)


def test_spine_fixture_family():
    t0 = time.time()
    ok = True
    for m in range(16):
        model = figure3_model(m)
        props = relation_properties(model.frame)
        ok = ok and props.reflexive and props.transitive
        ok = ok and _connected_undirected(model.frame)
        everywhere = set(model.frame.worlds)
        for constraint in figure3_constraints(m // 3):
            ok = ok and set(model_check(model, constraint)) == everywhere
        if not ok:
            break
    _report("spine fixture family", ok, t0, 60)


def test_bounded_search_soundness():
    t0 = time.time()
    rng = random.Random(707)
    worlds = ("w0", "w1")
    total = frozenset((u, v) for u in worlds for v in worlds)
    expected = KripkeModel(Frame(worlds, total), {"p": ("w0",)})
    found = bounded_sat(Tangle((p, Neg(p))), parse_profile("K4t"), 2)
    ok = found == expected
    profiles = [parse_profile(s) for s in ("K4", "K4t", "S4", "KD4")]
    verified = 0
    for trial in range(30):
        phi = random_tangle_formula(rng)
        profile = profiles[trial % len(profiles)]
        witness = bounded_sat(phi, profile, 3)
        if witness is None:
            continue
        verified += 1
        ok = ok and model_check(witness, phi)
        ok = ok and profile.frame_ok(witness.frame)
    ok = ok and verified > 0
    ok = ok and bounded_sat(And(Dia(Top()), Box(Bot())), parse_profile("K4"), 5) is None
    _report("bounded search soundness", ok, t0, 60)
