"""Axiom schemas, logic profiles, frame enumeration, exhaustive validity,
bounded satisfiability, the fence fixture."""

import functools
import itertools
import random

import pytest

from tangles import (
    And,
    Atom,
    Box,
    BoxD,
    BudgetExceededError,
    Dia,
    Forall,
    Frame,
    Implies,
    KripkeModel,
    Neg,
    Or,
    ProfileError,
    SchemaError,
    Tangle,
    Top,
    ValidityReport,
    bounded_sat,
    box_star,
    conj,
    dia_star,
    enumerate_frames,
    figure3_constraints,
    figure3_model,
    frame_validates,
    instantiate,
    locally_n_connected,
    model_check,
    model_to_dict,
    named_frames,
    parse,
    parse_profile,
    path_components,
    relation_properties,
    substitute,
    to_mu,
)
from tangles import logics
from tangles.formula import printed_length
from tangles.kripke import Evaluator
from tangles.logics import BASE_SCHEMAS, BLOCK
from gen import random_formula, random_member_set, random_model, random_tangle_formula
from oracles import (
    tree_bounded_sat,
    tree_enumerate_frames,
    tree_figure3_model,
    tree_frame_validates,
    tree_instantiate,
)

p, q = Atom("p"), Atom("q")
p0, p1 = Atom("p0"), Atom("p1")


# ---------------------------------------------------------------------------
# Schemas


def test_schema_shapes():
    assert instantiate("K", p, q) == Implies(
        Box(Implies(p, q)), Implies(Box(p), Box(q))
    )
    assert instantiate("4", p) == Implies(Dia(Dia(p)), Dia(p))
    assert instantiate("T", p) == Implies(Box(p), p)
    assert instantiate("D") == Dia(Top())
    assert instantiate("U", p) == Implies(Forall(p), Box(p))
    assert instantiate("C", p) == Implies(
        Forall(Or(box_star(p), box_star(Neg(p)))),
        Or(Forall(p), Forall(Neg(p))),
    )
    t = Tangle((p, q))
    assert instantiate("Fix", [p, q], p) == Implies(t, Dia(And(p, t)))
    assert instantiate("Fix", [p, q]) == And(
        Implies(t, Dia(And(p, t))), Implies(t, Dia(And(q, t)))
    )
    step = Implies(q, And(Dia(And(p, q)), Dia(And(Atom("q"), q))))
    assert instantiate("Ind", [p, q], q) == Implies(box_star(step), Implies(q, t))
    assert instantiate("4t", [p, q]) == Implies(Dia(t), t)
    assert instantiate("Tt", [p, q]) == Implies(And(p, q), t)


def test_g_schema_shapes():
    q0, q1 = And(p0, Neg(p1)), And(p1, Neg(p0))
    assert instantiate("G1") == Implies(
        And(Dia(q0), Dia(q1)),
        Dia(And(dia_star(Neg(q0)), dia_star(Neg(q1)))),
    )
    # negated pairs collapse to the short single-atom form
    assert instantiate("G1", p, Neg(p)) == Implies(
        And(Dia(p), Dia(Neg(p))),
        Dia(And(dia_star(Neg(p)), dia_star(p))),
    )
    assert instantiate("G1d") == Implies(
        BoxD(Or(Box(q0), Box(q1))),
        Or(BoxD(Neg(q0)), BoxD(Neg(q1))),
    )
    p2 = Atom("p2")
    q0, q1, q2 = (
        And(And(p0, Neg(p1)), Neg(p2)),
        And(And(p1, Neg(p0)), Neg(p2)),
        And(And(p2, Neg(p0)), Neg(p1)),
    )
    assert instantiate("G2") == Implies(
        And(And(Dia(q0), Dia(q1)), Dia(q2)),
        Dia(And(And(dia_star(Neg(q0)), dia_star(Neg(q1))), dia_star(Neg(q2)))),
    )


def test_gn_length_is_the_printed_length_of_the_default_instance():
    # names p0..p9 have one digit, p10..p99 two and p100 on three; all of
    # n = 1-150 agree, but they take seconds together, so the boundaries
    # stand for the rest
    for n in [*range(1, 41), 98, 99, 100, 101, 150]:
        assert logics._gn_length(f"G{n}") == printed_length(instantiate(f"G{n}")), n
    assert logics._gn_length("G99999999999") == 476_666_666_668_100_000_000_002
    for schema in ["G1d", "G2d", "G0", "4", "Fix", "Z"]:
        assert logics._gn_length(schema) == 0


@pytest.mark.parametrize(
    "schema,args",
    [
        ("K", (p,)),
        ("4", ()),
        ("D", (p,)),
        ("U", (p, q)),
        ("Fix", ()),
        ("Fix", (p,)),
        ("Ind", ([p],)),
        ("4t", ([p], p)),
        ("Tt", ([],)),
        ("G1", (p,)),
        ("G2d", ()),
        ("G0", ()),
        ("Z", (p,)),
    ],
)
def test_schema_arity_errors(schema, args):
    with pytest.raises(SchemaError):
        instantiate(schema, *args)


@pytest.mark.parametrize("seed", range(50))
def test_g1_instances_are_substitution_instances(seed):
    # semantically G1(a, b) is the default instance with p0 := a, p1 := b
    rng = random.Random(seed)
    a = random_member_set(rng, 1, 2, ("q",))[0]
    b = random_member_set(rng, 1, 2, ("r",))[0]
    built = instantiate("G1", a, b)
    derived = substitute(substitute(instantiate("G1"), a, "p0"), b, "p1")
    model = random_model(rng, 6, ("q", "r"), kind="general")
    assert model_check(model, built) == model_check(model, derived)


def _instance_or_error(build, schema, args):
    try:
        return build(schema, *args)
    except SchemaError:
        return SchemaError


@pytest.mark.parametrize("seed", range(20))
def test_instantiate_matches_the_schema_ladder(seed):
    # the schema tables build the very node the per-schema ladder built, and
    # refuse what it refused; negated parts make G_n drop repeated conjuncts
    rng = random.Random(8800 + seed)
    pool = [random_formula(rng, rng.randint(0, 2), ("p", "q")) for _ in range(3)]
    pool += [Neg(f) for f in pool]
    schemas = BASE_SCHEMAS + ("G1", "G2", "G3", "G4", "G1d", "G2d", "G0", "Z")
    built = 0
    for schema in schemas:
        for count, member_set in itertools.product(range(5), (False, True)):
            args = [rng.choice(pool) for _ in range(count)]
            if member_set:
                args.insert(0, [rng.choice(pool) for _ in range(rng.randint(0, 2))])
            want = _instance_or_error(tree_instantiate, schema, args)
            assert _instance_or_error(instantiate, schema, args) is want, (schema, args)
            built += want is not SchemaError
    assert built >= 12


# ---------------------------------------------------------------------------
# Profiles


def test_parse_profile_flags():
    k4 = parse_profile("K4")
    assert (k4.serial, k4.reflexive, k4.connected, k4.local_connectedness) == (
        False, False, False, None,
    )
    assert k4.fragment == "modal"
    assert parse_profile("KD4").serial
    assert parse_profile("S4").reflexive
    assert parse_profile("K4t").fragment == "tangle"
    g = parse_profile("KD4G1t")
    assert g.serial and g.local_connectedness == 1 and g.fragment == "tangle"
    uc = parse_profile("S4t.UC")
    assert uc.reflexive and uc.connected and uc.fragment == "tangle+universal"
    assert parse_profile("S4.U").fragment == "modal+universal"
    assert not parse_profile("S4.U").connected
    assert parse_profile("S4mu").fragment == "mu"
    assert parse_profile("S4μ").reflexive
    assert parse_profile("K4G12").local_connectedness == 12


@pytest.mark.parametrize("name", ["", "K5", "S4C", "K4.C", "S4tG1", "KD4G0", "k4"])
def test_parse_profile_rejects(name):
    with pytest.raises(ProfileError):
        parse_profile(name)


def test_profile_frame_checks():
    frames = named_frames()
    assert parse_profile("S4").frame_violations(frames["fork"]) == ("reflexive",)
    assert parse_profile("KD4").frame_ok(frames["fork"])
    assert parse_profile("K4G1").frame_violations(frames["fork"]) == (
        "locally_1_connected",
    )
    assert parse_profile("K4").frame_violations(frames["broken_chain"]) == (
        "transitive",
    )
    assert parse_profile("S4.UC").frame_violations(frames["two_islands"]) == (
        "connected",
    )
    assert parse_profile("KD4").frame_violations(frames["successorless_point"]) == (
        "serial",
    )


# ---------------------------------------------------------------------------
# Frame enumeration


@functools.cache
def _relabeling_tables(n: int) -> list[tuple[tuple[int, ...], list[int]]]:
    """Each permutation of n worlds, with the table that moves bit
    ``perm[k]`` of a row to bit ``k``."""
    return [(perm, [sum((row >> j & 1) << k for k, j in enumerate(perm)) for row in range(1 << n)])
            for perm in itertools.permutations(range(n))]


def iso_key(frame: Frame) -> tuple[int, ...]:
    """The least relabeled adjacency matrix: equal exactly for isomorphic
    frames."""
    rows = frame.succ
    return min(tuple(table[rows[i]] for i in perm) for perm, table in _relabeling_tables(len(rows)))


def test_labeled_counts():
    # transitive relations on n labeled points: 2, 13, 171
    for n, expect in ((1, 2), (2, 13), (3, 171)):
        frames = list(enumerate_frames(n, up_to_iso=False))
        assert len(frames) == expect
        assert len(set(frames)) == expect
        for f in frames:
            assert relation_properties(f).transitive


def test_canonical_counts_and_coverage():
    for n, labeled_count, classes in ((1, 2, 2), (2, 13, 8), (3, 171, 39), (4, 3994, 242)):
        labeled = list(enumerate_frames(n, up_to_iso=False))
        canonical = list(enumerate_frames(n))
        assert len(labeled) == labeled_count
        assert len(canonical) == classes
        keys = [iso_key(f) for f in canonical]
        assert len(set(keys)) == len(keys)  # pairwise non-isomorphic
        assert set(keys) == {iso_key(f) for f in labeled}  # every class kept


def test_canonical_classes_of_five_worlds(monkeypatch):
    # with the limit raised to 5, the pruned search keeps one frame of each
    # of the 1,895 classes of transitive relations on 5 worlds (OEIS
    # A091073); covering all 154,303 labeled frames would take too long
    monkeypatch.setattr(logics, "_CANONICAL_LIMIT", 5)
    keys = [iso_key(f) for f in enumerate_frames(5)]
    assert len(keys) == 1895
    assert len(set(keys)) == len(keys)  # pairwise non-isomorphic


def test_canonicity_is_tested_on_prefixes(monkeypatch):
    # a row prefix that no completion can make canonical is not extended,
    # so 4 worlds take 1,141 tests, where testing only the 3,994 labeled
    # leaves took one test each
    calls = []
    canonical = logics._canonical

    def counted(rows, n):
        calls.append(len(rows))
        return canonical(rows, n)

    monkeypatch.setattr(logics, "_canonical", counted)
    assert len(list(enumerate_frames(4))) == 242
    assert len(calls) <= 1200


def test_reflexive_counts_match_preorders():
    # reflexive transitive = preorders: 29 labeled on 3 points, 9 classes
    assert len(list(enumerate_frames(3, reflexive=True, up_to_iso=False))) == 29
    assert len(list(enumerate_frames(3, reflexive=True))) == 9


def test_enumeration_respects_conditions():
    for f in enumerate_frames(3, serial=True):
        assert relation_properties(f).serial
    for f in enumerate_frames(3, reflexive=True):
        assert relation_properties(f).reflexive
    for f in enumerate_frames(3, connected=True):
        assert len(path_components(f)) == 1
    for f in enumerate_frames(3, local_connectedness=1):
        assert locally_n_connected(f, 1)
    with pytest.raises(ValueError):
        next(enumerate_frames(0))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_matches_tree_enumeration(n):
    # the same frames in the same order as the canonicity test that builds
    # each relabeled matrix bit by bit, under every combination of conditions
    for serial, reflexive, connected in itertools.product((False, True), repeat=3):
        for local in (None, 1, 2, 3):
            conditions = dict(serial=serial, reflexive=reflexive, connected=connected,
                              local_connectedness=local)
            assert list(enumerate_frames(n, **conditions)) == list(
                tree_enumerate_frames(n, **conditions)
            )
    assert list(enumerate_frames(n, up_to_iso=False)) == list(
        tree_enumerate_frames(n, up_to_iso=False)
    )


def test_enumeration_order_is_ascending():
    def adjacency(frame):
        # earlier rows weigh more; inside a row, bit j stands for w_j
        n = len(frame.worlds)
        key = 0
        for i in range(n):
            row = 0
            for j in range(n):
                row |= ((frame.worlds[i], frame.worlds[j]) in frame.rel) << j
            key = key << n | row
        return key

    keys = [adjacency(f) for f in enumerate_frames(2, up_to_iso=False)]
    assert keys == sorted(keys)
    assert keys[0] == 0  # the empty relation comes first


# ---------------------------------------------------------------------------
# Validity


def test_frame_validates_reports():
    point = named_frames()["irreflexive_point"]
    report = frame_validates(point, instantiate("T", p))
    assert not report.valid
    assert report.checked == 1
    assert report.witness_valuation == {"p": ()}
    assert report.witness_world == "w0"
    refl = Frame(("w0",), frozenset({("w0", "w0")}))
    report = frame_validates(refl, instantiate("T", p))
    assert report.valid and report.checked == 2
    two = Frame(("w0", "w1"), frozenset({("w0", "w1")}))
    assert frame_validates(two, instantiate("K", p, q)).checked == 16


def test_frame_validates_refutation_past_the_first_block():
    # phi fails exactly where every literal holds.  Atom-major, the least
    # refuting valuation gives each positive atom the mask {w0} and every
    # other atom the empty mask, so its number is the sum of
    # 2**(2 * (8 - i)) over the positive atoms i, in the second block.
    atoms = [Atom(f"p{i}") for i in range(9)]
    positive = {0, 3, 8}
    phi = Neg(conj([a if i in positive else Neg(a) for i, a in enumerate(atoms)]))
    frame = Frame(("w0", "w1"), frozenset({("w0", "w1")}))
    first = 2**16 + 2**10 + 1
    assert BLOCK == 2**16 < first
    assert frame_validates(frame, phi) == ValidityReport(
        valid=False,
        checked=first + 1,
        witness_valuation={a.name: ("w0",) if i in positive else () for i, a in enumerate(atoms)},
        witness_world="w0",
    )
    # a valid formula over the same atoms counts all four blocks
    contradiction = conj(atoms + [Neg(atoms[0])])
    assert frame_validates(frame, Neg(contradiction)) == ValidityReport(True, 2**18)


def test_large_programs_sweep_in_smaller_blocks(monkeypatch):
    # with a limit of 2**12 bits and 3 worlds, the 512 valuations of p, q
    # and r go in blocks of 128 for programs of 8 to 10 slots and of 64 for
    # 11 slots; frame_validates runs the negation, one slot more than phi.
    # Every result stays that of the search one valuation at a time.
    monkeypatch.setattr(logics, "_BLOCK_BITS", 1 << 12)
    calls = []
    run_block = Evaluator.run_block

    def recording(self, program, atoms, start, size):
        calls.append((self.n, start, size))
        return run_block(self, program, atoms, start, size)

    monkeypatch.setattr(Evaluator, "run_block", recording)
    checked = set()
    k_instance = parse("[](p -> q) -> []p -> []q | r")
    for phi, size in (
        (k_instance, 64),
        (parse("p & <>q -> <>(r | p)"), 128),
        (parse("(p <-> <>q) | r | []p"), 128),
    ):
        for frame in enumerate_frames(3):
            calls.clear()
            report = frame_validates(frame, phi)
            assert report == tree_frame_validates(frame, phi)
            assert calls == [(3, start, size) for start in range(0, report.checked, size)]
            checked.add(report.checked)
    assert max(checked - {512}) > 256
    # no frame of 1-3 worlds has a model of the negated K instance, so
    # bounded_sat sweeps each frame's 8, 64 or 512 valuations, the 512 in
    # blocks of 64; the K instance itself holds on the first point
    k4 = parse_profile("K4")
    frames = [len(list(enumerate_frames(n))) for n in (1, 2, 3)]
    calls.clear()
    assert bounded_sat(Neg(k_instance), k4, 3) is None
    assert tree_bounded_sat(Neg(k_instance), k4, 3) is None
    assert calls == [(1, 0, 8)] * frames[0] + [(2, 0, 64)] * frames[1] + [
        (3, start, 64) for _ in range(frames[2]) for start in range(0, 512, 64)
    ]
    calls.clear()
    assert bounded_sat(k_instance, k4, 3) == tree_bounded_sat(k_instance, k4, 3)
    assert calls == [(1, 0, 8)]


def test_bounded_sat_witness_past_the_first_block():
    # on the one-world frames of 17 atoms the least model of the literals
    # is valuation 2**16 + 2**12 + 1 of the empty frame, the second block
    atoms = [Atom(f"a{i:02}") for i in range(17)]
    positive = {0, 4, 16}
    phi = conj([a if i in positive else Neg(a) for i, a in enumerate(atoms)])
    found = bounded_sat(phi, parse_profile("K4"), 1)
    point = Frame(("w0",), frozenset())
    assert found == KripkeModel(point, {f"a{i:02}": ("w0",) for i in positive})


def test_frame_validates_g1_on_fork():
    report = frame_validates(named_frames()["fork"], instantiate("G1", p, Neg(p)))
    assert not report.valid
    assert report.witness_world == "r"
    assert report.witness_valuation == {"p": ("x",)}


def test_frame_validates_budget():
    frame = Frame(tuple(f"w{i}" for i in range(4)), frozenset())
    phi = instantiate("K", And(p, q), Atom("s"))
    with pytest.raises(BudgetExceededError):
        frame_validates(frame, phi, budget=100)


def test_transitive_frames_validate_4_and_4t():
    four = instantiate("4", p)
    four_t = instantiate("4t", [p])
    for frame in enumerate_frames(3):
        assert frame_validates(frame, four).valid
        assert frame_validates(frame, four_t).valid


def test_named_frames_defeat_their_axioms():
    frames = named_frames()
    assert not frame_validates(frames["irreflexive_point"], instantiate("T", p)).valid
    assert not frame_validates(frames["irreflexive_point"], instantiate("Tt", [p])).valid
    assert not frame_validates(frames["successorless_point"], instantiate("D")).valid
    assert not frame_validates(frames["two_islands"], instantiate("C", p)).valid
    assert not frame_validates(frames["fork"], instantiate("G1", p, Neg(p))).valid
    assert not frame_validates(frames["broken_chain"], instantiate("4", p)).valid
    # the tangle transfer axiom is read through its fixpoint encoding on a
    # non-transitive frame, where the cluster evaluation is undefined
    encoded = to_mu(instantiate("4t", [p]))
    assert not frame_validates(frames["broken_chain"], encoded).valid


# ---------------------------------------------------------------------------
# Bounded satisfiability


def test_bounded_sat_least_witness():
    model = bounded_sat(parse("<t>{p, ~p}"), parse_profile("K4t"), 2)
    worlds = ("w0", "w1")
    assert model == KripkeModel(
        Frame(worlds, frozenset(itertools.product(worlds, worlds))),
        {"p": ("w0",)},
    )
    again = bounded_sat(parse("<t>{p, ~p}"), parse_profile("K4t"), 2)
    assert again == model


def test_bounded_sat_exhausts():
    assert bounded_sat(parse("<>true & []false"), parse_profile("K4"), 3) is None
    with pytest.raises(ValueError):
        bounded_sat(p, parse_profile("K4"), 0)


def test_bounded_sat_budget():
    with pytest.raises(BudgetExceededError) as exc:
        bounded_sat(parse("<>true & []false"), parse_profile("K4"), 6, budget=100)
    assert "exhausted" in str(exc.value)


@pytest.mark.parametrize("profile_name", ["K4t", "KD4t", "S4t", "KD4G1t", "S4t.UC"])
def test_bounded_sat_respects_profiles(profile_name):
    profile = parse_profile(profile_name)
    rng = random.Random(hash(profile_name) & 0xFFFF)
    found = 0
    for _ in range(12):
        phi = random_tangle_formula(rng)
        try:
            model = bounded_sat(phi, profile, 3)
        except BudgetExceededError:
            continue
        if model is None:
            continue
        found += 1
        assert profile.frame_ok(model.frame)
        assert model_check(model, phi)
    assert found  # the batch cannot be all misses


# ---------------------------------------------------------------------------
# The fence fixture


def test_figure3_smallest():
    m = figure3_model(0)
    assert m.frame.worlds == ("a0", "b0", "b1")
    assert m.frame.rel == frozenset(
        {("a0", "a0"), ("b0", "b0"), ("b1", "b1"), ("a0", "b0"), ("a0", "b1")}
    )
    assert m.val["r"] == {"b0"}
    assert m.val["g"] == {"b1"}
    assert m.val["b"] == frozenset()
    assert m.val["p0"] == {"b0", "b1"}


def test_figure3_larger():
    m = figure3_model(2)
    assert len(m.frame.worlds) == 7
    assert m.val["r"] == {"b0", "b3"}
    assert m.val["g"] == {"b1"}
    assert m.val["b"] == {"b2"}
    assert m.val["p0"] == {"b0", "b1"}
    assert m.val["p1"] == {"b3"}
    props = relation_properties(m.frame)
    assert props.reflexive and props.transitive
    assert len(path_components(m.frame)) == 1
    with pytest.raises(ValueError):
        figure3_model(-1)


def test_figure3_model_is_the_fence_built_from_pairs():
    # the rows set by position give the frame and the file the pairs give,
    # and the fixture's frame holds no pair set until one is read
    for m in [*range(40), 333]:
        model, fence = figure3_model(m), tree_figure3_model(m)
        assert "rel" not in vars(model.frame)
        assert model == fence and hash(model.frame) == hash(fence.frame)
        assert model_to_dict(model) == model_to_dict(fence)


def test_figure3_constraint_counts():
    assert len(figure3_constraints(0)) == 3
    assert len(figure3_constraints(1)) == 6
    # n+1 existentials, n(n+1)/2 exclusions, 1 colour cap, n+1 propagations
    assert len(figure3_constraints(3)) == 4 + 6 + 1 + 4
    with pytest.raises(ValueError):
        figure3_constraints(-1)


@pytest.mark.parametrize("m", [0, 1, 3, 5, 8])
def test_figure3_satisfies_its_constraints(m):
    model = figure3_model(m)
    everywhere = frozenset(model.frame.worlds)
    for phi in figure3_constraints(m // 3):
        assert model_check(model, phi) == everywhere


def test_seven_world_prefix_model():
    # a hand-built reflexive transitive connected model satisfying the
    # index-1 constraint family; small enough to check directly, far too
    # wide in atoms for the bounded search
    worlds = ("x0", "g0", "u", "m", "v", "g1", "x1")
    rel = frozenset((w, w) for w in worlds) | frozenset(
        {("x0", "g0"), ("u", "g0"), ("u", "m"), ("v", "m"), ("v", "g1"), ("x1", "g1")}
    )
    model = KripkeModel(
        Frame(worlds, rel),
        {"r": {"x0", "x1"}, "g": {"g0", "g1"}, "b": {"m"},
         "p0": {"g0"}, "p1": {"g1"}},
    )
    assert parse_profile("S4t.UC").frame_ok(model.frame)
    everywhere = frozenset(worlds)
    for phi in figure3_constraints(1):
        assert model_check(model, phi) == everywhere


# ---------------------------------------------------------------------------
# Validity and bounded search against the tree evaluator

_SCHEMA_INSTANCES = {
    "K": (p, q),
    "4": (p,),
    "T": (p,),
    "D": (),
    "U": (p,),
    "C": (p,),
    "Fix": ((p, q),),
    "Ind": ((p,), Dia(q)),
    "4t": ((p, q),),
    "Tt": ((p, Neg(p)),),
    "G1": (),
    "G2": (),
    "G1d": (),
}


def test_schema_instances_cover_every_schema():
    assert set(_SCHEMA_INSTANCES) >= set(BASE_SCHEMAS)


@pytest.mark.parametrize("schema", sorted(_SCHEMA_INSTANCES))
def test_frame_validates_matches_tree_oracle(schema):
    phi = instantiate(schema, *_SCHEMA_INSTANCES[schema])
    # every transitive frame of up to 3 worlds
    for n in (1, 2, 3):
        for frame in enumerate_frames(n, up_to_iso=False):
            assert frame_validates(frame, phi) == tree_frame_validates(frame, phi)


@pytest.mark.parametrize("schema", sorted(_SCHEMA_INSTANCES))
def test_bounded_sat_matches_tree_oracle(schema):
    phi = instantiate(schema, *_SCHEMA_INSTANCES[schema])
    for goal in (phi, Neg(phi)):
        for profile in map(parse_profile, ("K4t", "S4")):
            assert bounded_sat(goal, profile, 3) == tree_bounded_sat(goal, profile, 3)
