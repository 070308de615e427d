"""Syntax layer: parser, printer, polarity, substitution, closure."""

import copy
import dataclasses
import gc
import os
import pickle
import random
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref

import pytest

from tangles import (
    And,
    Atom,
    Bot,
    Box,
    BoxD,
    CaptureError,
    ClosureSet,
    Dia,
    DiaD,
    Exists,
    Forall,
    Formula,
    FormulaError,
    Frame,
    Iff,
    Implies,
    KripkeModel,
    Mu,
    Neg,
    Nu,
    Or,
    ParseError,
    PositivityError,
    Tangle,
    TangleD,
    Top,
    all_names,
    box_star,
    conj,
    dia_star,
    disj,
    filtrate,
    free_atoms,
    fresh_names,
    immediate_subformulas,
    parse,
    positive_in,
    pretty,
    subformula_closure,
    substitute,
    to_d,
    to_mu,
    untangle,
)
from tangles import formula
from tangles.formula import MAX_DEPTH, parse_members, post_order, printed_length, rebuild
from gen import random_formula, random_shared_formula
from oracles import tree_free_atoms, tree_parse
from test_cli import _env, _mutate

p, q, r = Atom("p"), Atom("q"), Atom("r")


@pytest.mark.parametrize(
    "text,expected",
    [
        ("p", p),
        ("true", Top()),
        ("false", Bot()),
        ("~p", Neg(p)),
        ("p & q | r", Or(And(p, q), r)),
        ("p | q & r", Or(p, And(q, r))),
        ("p -> q -> r", Implies(p, Implies(q, r))),
        ("p <-> q <-> r", Iff(p, Iff(q, r))),
        ("p & q -> r", Implies(And(p, q), r)),
        ("~[]p", Neg(Box(p))),
        ("[]<>p & q", And(Box(Dia(p)), q)),
        ("[d]p", BoxD(p)),
        ("<d>p", DiaD(p)),
        ("A p -> E q", Implies(Forall(p), Exists(q))),
        ("<t>{p}", Tangle((p,))),
        ("<t>{p, q}", Tangle((p, q))),
        ("<dt>{p, <>q}", TangleD((p, Dia(q)))),
        ("mu x. p | <>x", Mu("x", Or(p, Dia(Atom("x"))))),
        ("nu x. p & []x", Nu("x", And(p, Box(Atom("x"))))),
        ("(mu x. x) & p", And(Mu("x", Atom("x")), p)),
    ],
)
def test_parse_cases(text, expected):
    assert parse(text) == expected


@pytest.mark.parametrize(
    "phi,text",
    [
        (Or(And(p, q), r), "p & q | r"),
        (And(p, Or(q, r)), "p & (q | r)"),
        (Implies(Implies(p, q), r), "(p -> q) -> r"),
        (Neg(Box(p)), "~[]p"),
        (Box(And(p, q)), "[](p & q)"),
        (And(Mu("x", Atom("x")), p), "(mu x. x) & p"),
        (Tangle((q, p)), "<t>{p, q}"),
        (Forall(Implies(p, q)), "A (p -> q)"),
    ],
)
def test_pretty_minimal_parens(phi, text):
    assert pretty(phi) == text
    assert parse(text) == phi


@pytest.mark.parametrize("seed", range(300))
def test_parse_pretty_round_trip(seed):
    rng = random.Random(seed)
    phi = random_formula(
        rng, rng.randint(0, 5), ("p", "q", "r"),
        tangles=True, fixpoints=True, universal=True, derivative=True,
    )
    assert parse(pretty(phi)) == phi


@pytest.mark.parametrize(
    "text",
    ["", "p &", "(p", "p)", "<t>{}", "mu. p", "mu x p", "p q", "@", "[]", "(p) & (p q)"],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse(text)


def test_tangle_member_normalization():
    assert Tangle((q, p)).members == (p, q)
    assert Tangle((p, p, q)).members == (p, q)
    assert parse("<t>{q, p, q}") == parse("<t>{p, q}")
    assert TangleD((q, p)).members == (p, q)
    with pytest.raises(FormulaError):
        Tangle(())


def test_connective_folds():
    assert conj([]) == Top()
    assert disj([]) == Bot()
    assert conj([p]) == p
    assert conj([p, q, r]) == And(And(p, q), r)
    assert disj([p, q]) == Or(p, q)
    assert box_star(p) == And(p, Box(p))
    assert dia_star(p) == Or(p, Dia(p))


def test_positivity():
    x = Atom("x")
    assert positive_in(Or(p, Dia(x)), "x")
    assert positive_in(Neg(Neg(x)), "x")
    assert positive_in(Implies(p, x), "x")
    assert not positive_in(Implies(x, p), "x")
    assert not positive_in(Iff(x, p), "x")
    assert positive_in(p, "x")  # vacuous occurrence is fine
    Mu("x", Neg(Neg(x)))
    with pytest.raises(PositivityError):
        Mu("x", Neg(x))
    with pytest.raises(PositivityError):
        Nu("x", Implies(x, p))
    with pytest.raises(PositivityError):
        parse("mu p. ~p")


def test_free_and_all_names():
    phi = Mu("x", Or(p, Dia(Atom("x"))))
    assert free_atoms(phi) == {"p"}
    assert all_names(phi) == {"p", "x"}
    assert free_atoms(And(phi, Atom("x"))) == {"p", "x"}
    assert free_atoms(Tangle((p, q))) == {"p", "q"}


def _assert_free_names_kept(phi):
    for f in post_order(phi):
        assert f._free == tree_free_atoms(f), pretty(f)


@pytest.mark.parametrize("seed", range(40))
def test_free_atoms_leaves_every_node_its_free_names(seed):
    rng = random.Random(seed)
    # names that no other formula of the suite uses, so the nodes are new
    atoms = (f"a{seed}", f"b{seed}")
    # the first formula with a binder whose variable is free in its body
    for _ in range(200):
        phi = random_shared_formula(rng, 6, atoms)
        nodes = post_order(phi)
        binders = [f for f in nodes if isinstance(f, (Mu, Nu))]
        if any(b.var in tree_free_atoms(b.body) for b in binders):
            break
    else:
        pytest.fail("no formula binds a name that is free in its body")
    # first on a subformula
    first = rng.choice(nodes)
    assert free_atoms(first) == tree_free_atoms(first)
    _assert_free_names_kept(first)
    # then on a formula that shares the binder bodies of phi, each both
    # under a binder of its variable and where that variable is free
    other = conj([first] + [
        And((Nu if isinstance(b, Mu) else Mu)(b.var, b.body), b.body) for b in binders
    ])
    assert free_atoms(other) == tree_free_atoms(other)
    _assert_free_names_kept(other)
    # then on the whole formula
    assert free_atoms(phi) == tree_free_atoms(phi)
    _assert_free_names_kept(phi)


def test_fresh_names():
    gen = fresh_names({"_g0", "_g2", "p"})
    assert [next(gen) for _ in range(3)] == ["_g1", "_g3", "_g4"]


def test_substitute_basic():
    phi = Implies(p, Box(p))
    assert substitute(phi, Dia(q), "p") == Implies(Dia(q), Box(Dia(q)))
    assert substitute(phi, q, "r") is phi
    # bound occurrences stay untouched
    mu = Mu("x", Or(p, Dia(Atom("x"))))
    assert substitute(mu, q, "x") == mu
    assert substitute(mu, q, "p") == Mu("x", Or(q, Dia(Atom("x"))))


def test_substitute_capture():
    mu = Mu("x", Or(p, Dia(Atom("x"))))
    with pytest.raises(CaptureError):
        substitute(mu, Atom("x"), "p")
    with pytest.raises(CaptureError):
        substitute(Nu("v", And(p, Box(Atom("v")))), Dia(Atom("v")), "p")
    # the first capturing binder depth first and left to right is named:
    # the left of two siblings, the outer of two nested binders, and the
    # first occurrence of a subformula that occurs twice
    x, y = Atom("x"), Atom("y")
    both = And(x, y)
    left, right = Mu("x", Or(p, Dia(x))), Nu("y", And(p, Box(y)))
    shared = Mu("y", Or(p, Dia(y)))
    for phi, binder in [
        (And(left, right), "x"),
        (Or(right, left), "y"),
        (Mu("x", Or(p, Dia(Nu("y", And(p, Box(And(x, y))))))), "x"),
        (Nu("y", Or(q, Mu("x", And(p, Box(Or(x, y)))))), "y"),
        (And(shared, Nu("x", And(shared, Box(x)))), "y"),
        (And(Nu("x", And(shared, Box(x))), shared), "x"),
    ]:
        with pytest.raises(CaptureError) as info:
            substitute(phi, both, "p")
        assert info.value.binder == binder


def _constructors(cls=Formula):
    for sub in cls.__subclasses__():
        if not sub.__name__.startswith("_"):
            yield sub
        yield from _constructors(sub)


def test_immediate_subformulas_refuses_non_formulas():
    # a name is not an atom: the walkers built on this map stop at it
    with pytest.raises(TypeError) as info:
        immediate_subformulas("p")
    assert str(info.value) == "not a formula: 'p'"


def test_immediate_subformulas():
    assert immediate_subformulas(p) == ()
    assert immediate_subformulas(And(p, q)) == (p, q)
    assert immediate_subformulas(Tangle((p, q))) == (p, q)
    assert immediate_subformulas(Mu("x", Dia(Atom("x")))) == (Dia(Atom("x")),)
    x = Atom("x")
    one_of_each = [
        p, Top(), Bot(), Neg(p), And(p, q), Or(p, q), Implies(p, q), Iff(p, q),
        Box(p), Dia(p), BoxD(p), DiaD(p), Forall(p), Exists(p),
        Tangle((p, q)), TangleD((q,)), Mu("x", Dia(x)), Nu("x", Box(x)),
    ]
    assert {type(f) for f in one_of_each} == set(_constructors())
    for f in one_of_each:
        assert rebuild(f, immediate_subformulas(f)) == f
    # new children land in the same slots
    assert rebuild(Implies(p, q), [q, p]) == Implies(q, p)
    assert rebuild(Mu("x", Dia(x)), [Box(x)]) == Mu("x", Box(x))
    assert rebuild(TangleD((p,)), [q, p]) == TangleD((p, q))
    # rebuilding a binder re-checks positivity
    with pytest.raises(PositivityError, match="body of nu x"):
        rebuild(Nu("x", Box(x)), [Neg(x)])


@pytest.mark.parametrize("wrap", [Neg, Dia], ids=["negations", "diamonds"])
def test_walkers_take_900_deep_chains(wrap):
    phi = p
    for _ in range(900):
        phi = wrap(phi)
    assert free_atoms(phi) == {"p"}
    assert all_names(phi) == {"p"}
    assert positive_in(phi, "p")  # an even number of negations
    assert free_atoms(substitute(phi, q, "p")) == {"q"}
    assert pretty(to_mu(phi)) == pretty(phi)
    to_d(phi)  # shares each rewritten child, so the result is not printed


@pytest.mark.parametrize(
    "text",
    ["~" * 3000 + "p", "(" * 3000 + "p" + ")" * 3000, "mu x. " + "<>" * 3000 + "x"],
    ids=["negations", "parens", "binder"],
)
def test_parse_too_deep_is_a_formula_error(text):
    with pytest.raises(FormulaError, match="^formula nested too deeply$"):
        parse(text)


@pytest.mark.parametrize(
    "chain",
    [
        lambda n: "~" * n + "p",
        lambda n: "(" * n + "p" + ")" * n,
        lambda n: "mu x. " + "<>" * (n - 1) + "x",
        lambda n: "p -> " * n + "p",
    ],
    ids=["negations", "parens", "binder", "implications"],
)
def test_parse_depth_limit(chain):
    # a new binder checks its body's polarity recursively, which takes
    # Python's recursion limit first
    deepest = 900 if chain(1).startswith("mu") else MAX_DEPTH
    assert parse(chain(deepest)) is tree_parse_deep(chain(deepest))
    with pytest.raises(FormulaError, match="^formula nested too deeply$"):
        parse(chain(MAX_DEPTH + 1))


def test_parse_depth_limit_counts_repeated_groups():
    # the second group is looked up, not parsed, and still counts its depth
    group = "(" * 500 + "p" + ")" * 500
    assert parse(group + " & " + "~" * 499 + group) is tree_parse_deep(
        group + " & " + "~" * 499 + group
    )
    with pytest.raises(FormulaError, match="^formula nested too deeply$"):
        parse(group + " & " + "~" * 500 + group)


@pytest.mark.parametrize(
    "chain",
    [
        "~" * MAX_DEPTH + "p",
        "<>" * MAX_DEPTH + "p",
        "mu x. " + "<>" * (MAX_DEPTH - 1) + "x",
        "mu x. <>" * (MAX_DEPTH // 2) + "x",
    ],
    ids=["negations", "diamonds", "binder", "binders"],
)
def test_formulas_at_the_depth_limit_print_and_build(chain):
    # the printer, the binders' polarity check and repr keep up with parse
    phi = parse(chain)
    text = pretty(phi)
    assert text == chain
    assert parse(text) is phi
    assert printed_length(phi) == len(text)
    assert rebuild(phi, immediate_subformulas(phi)) is phi
    assert positive_in(phi, "p")
    assert repr(phi).count("(") > MAX_DEPTH


def test_repr_grows_with_the_distinct_nodes():
    assert repr(And(p, Box(q))) == "And(left=Atom(name='p'), right=Box(sub=Atom(name='q')))"
    assert repr(Tangle((p,))) == "Tangle(members=(Atom(name='p'),))"
    assert repr(Mu("x", Or(p, Dia(Atom("x"))))) == (
        "Mu(var='x', body=Or(left=Atom(name='p'), right=Dia(sub=Atom(name='x'))))"
    )
    # a subformula met twice is written once and then named
    assert repr(And(Dia(p), Box(Dia(p)))) == (
        "And(left=#1=Dia(sub=Atom(name='p')), right=Box(sub=#1))"
    )
    phi = p
    for _ in range(60):  # 2**60 leaves as a tree, 121 distinct nodes
        phi = And(phi, Box(phi))
    start = time.perf_counter()
    text = repr(phi)
    assert time.perf_counter() - start < 0.5
    assert len(text) < 5000


def test_nested_two_member_tangles_parse_in_linear_time():
    # a tangle orders its members by their printed form; a member's own
    # members print from the text cached when it was made, not laid out again
    text = "<t>{q, " * 1000 + "p" + "}" * 1000
    start = time.perf_counter()
    phi = parse(text)
    assert time.perf_counter() - start < 0.5
    assert parse(pretty(phi)) is phi
    assert printed_length(phi) == len(pretty(phi)) == len(text)


def _counting_layouts(monkeypatch) -> list:
    """The printing contexts laid out from now on, in order."""
    calls = []
    layout = formula._layout

    def counted(*ctx):
        calls.append(ctx)
        return layout(*ctx)

    monkeypatch.setattr(formula, "_layout", counted)
    return calls


def test_a_lone_tangle_member_prints_alike_before_and_after_it_is_keyed(monkeypatch):
    # a one-member tangle does not sort, so does not key, its member; it
    # lays the member out whether or not something keyed it before
    m = And(Atom("lone_p"), Box(Atom("lone_q")))
    assert not hasattr(m, "_text")
    phi = Tangle((m,))
    calls = _counting_layouts(monkeypatch)
    assert pretty(phi) == "<t>{lone_p & []lone_q}"
    before = len(calls)
    formula._sort_key(m)
    calls.clear()
    assert pretty(phi) == "<t>{lone_p & []lone_q}"
    assert len(calls) == before == 5


# Counts the layouts of sorting and printing the subformula closures of 100
# random formulas, in a fresh interpreter.
_LAYOUT_COUNT = """
import random

import gen
from tangles import formula, pretty, subformula_closure

calls = 0
layout = formula._layout


def counted(*ctx):
    global calls
    calls += 1
    return layout(*ctx)


formula._layout = counted
for s in range(100):
    phi = gen.random_formula(random.Random(s), 5, ("p", "q"))
    for f in subformula_closure([phi]).sorted():
        pretty(f)
print(calls)
"""


def test_printing_work_does_not_depend_on_the_hash_seed():
    # sorting a closure keys its members in set order, which follows the
    # hash seed and the memory layout; the layouts must not follow it
    env = _env()
    env["PYTHONPATH"] += os.pathsep + os.path.dirname(os.path.abspath(__file__))
    counts = set()
    for seed in ("1", "2", "3"):
        proc = subprocess.run([sys.executable, "-c", _LAYOUT_COUNT],
                              env=env | {"PYTHONHASHSEED": seed},
                              capture_output=True, text=True, timeout=60, check=True)
        counts.add(int(proc.stdout))
    assert len(counts) == 1, counts


def test_parse_cost_is_linear_in_nesting():
    # 999 parentheses around a 20,000-character conjunction of distinct
    # atoms cost about what the bare conjunction does; one more opens the
    # conjunction's operators past MAX_DEPTH
    bare = " & ".join(f"p{i}" for i in range(2640))
    assert len(bare) == 20_007
    nested = "(" * 999 + bare + ")" * 999

    def best_of_three(text):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            phi = parse(text)
            times.append(time.perf_counter() - start)
        return min(times), phi

    bare_s, phi = best_of_three(bare)
    nested_s, nested_phi = best_of_three(nested)
    assert nested_phi is phi
    assert nested_s < 3 * bare_s + 0.05
    with pytest.raises(FormulaError, match="^formula nested too deeply$"):
        parse("(" + nested + ")")


def _parse_time(text):
    """The best of three timed parses of ``text``."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        parse(text)
        times.append(time.perf_counter() - start)
    return min(times)


def test_parse_cost_is_linear_in_nested_groups():
    # 400 groups nested one in the next, each with 50 atoms of its own, cost
    # about what the same atoms do bare.  A "(" reads only its head, up to
    # the next parenthesis; one that searched for its group's end, or read
    # the group's whole text, would read the text once per level.  The names
    # are long so that such a read costs more than the tokens do.
    levels = [" & ".join(f"p{k}_{i}".ljust(16, "_") for i in range(50)) for k in range(400)]
    nested = "".join(f"({level} & " for level in levels[:-1]) + f"({levels[-1]}" + ")" * 400
    bare = " & ".join(levels)
    assert len(nested) == 380_797
    assert _parse_time(nested) < 3 * _parse_time(bare) + 0.05


def test_parse_memory_is_linear_in_nested_groups():
    # 400 groups nested one in the next, each with a 1,000-character name of
    # its own: a group's text holds the text of every group inside it, so a
    # memo that kept the text of each group would take about 80 MB here
    nested = "".join(f"(p{k:03}{'_' * 1000} & " for k in range(400)) + "q" + ")" * 400
    assert len(nested) == 403_601
    tracemalloc.start()
    try:
        parse(nested)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * len(nested)


@pytest.mark.parametrize(
    "group", [lambda k: f"((a) & b{k})", lambda k: f"(x & (b{k}))"], ids=["head-(", "head-(x"]
)
def test_parse_cost_is_linear_in_groups_that_share_a_head(group):
    # 8,000 distinct groups under one head cost about what their atoms do
    # bare: a "(" compares only the newest few groups of its head, where
    # comparing every earlier one would read the text once per group
    texts = [" | ".join(map(group, range(8000)))]
    texts.append(texts[0].replace("(", "").replace(")", ""))
    assert parse(texts[0]) is parse(texts[1])
    assert _parse_time(texts[0]) < 3 * _parse_time(texts[1]) + 0.05


def test_parse_tokenizes_each_distinct_group_once(monkeypatch):
    # the to_d text of []^12 psi spells 200,696 characters; a repeated group
    # is skipped without a token made for it, so the parse reads 601 of them
    phi = Or(p, Box(And(q, Dia(r))))
    for _ in range(12):
        phi = Box(phi)
    text = pretty(to_d(phi))
    token = formula._TOKEN
    read = []

    class Counting:
        """The token pattern, counting the characters ``findall`` reads."""

        def __getattr__(self, name):
            return getattr(token, name)

        def findall(self, text, pos=0, endpos=sys.maxsize):
            read.append(min(endpos, len(text)) - pos)
            return token.findall(text, pos, endpos)

    monkeypatch.setattr(formula, "_TOKEN", Counting())
    assert parse(text) is to_d(phi)
    assert (len(text), sum(read)) == (200_696, 601)


_ORACLE_DEPTH = 20_000


def tree_parse_deep(text):
    """``tree_parse`` with room for inputs deeper than the default recursion
    limit allows it."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_ORACLE_DEPTH)
    try:
        return tree_parse(text)
    finally:
        sys.setrecursionlimit(limit)


def _outcome(fn, text):
    try:
        return fn(text)
    except FormulaError as exc:
        return type(exc), str(exc)


_TOO_DEEP = (FormulaError, "formula nested too deeply")
_STRAY = "pqx_ ~[]<>d&|-(){},.tmuAEnrfalse@#\n\té"


@pytest.mark.parametrize("seed", range(300))
def test_parse_matches_tree_parse(seed):
    # the same node, or the same error with the same message and position
    rng = random.Random(9100 + seed)
    phi = random_formula(
        rng, rng.randint(0, 5), ("p", "q", "x"),
        tangles=True, fixpoints=True, universal=True, derivative=True,
    )
    texts = [pretty(phi), pretty(to_d(phi))]
    texts += [_mutate(rng, rng.choice(texts)) for _ in range(4)]
    texts += ["".join(rng.choice(_STRAY) for _ in range(rng.randint(0, 30))) for _ in range(4)]
    for text in texts:
        got = _outcome(parse, text)
        want = _outcome(tree_parse, text)
        if got != _TOO_DEEP and want == _TOO_DEEP:
            want = _outcome(tree_parse_deep, text)
        assert got is want or got == want, text


@pytest.mark.parametrize(
    "text",
    [
        # a group equal to an earlier one but for its last token
        "(p & q) & (p & x)",
        "((p & q) | x) & ((p & q) | q)",
        "(p & q) & (p & q & x)",
        # the same group with other whitespace
        "(p & q) | (p&q) | ( p  &\tq )",
        "(p & q) | (p\xa0&\xa0q) | (p & q)",
        "(p\u2003& q) -> (p & q) $",
        # a bad character inside the later of two otherwise equal groups
        "(p & q) & (p & q$)",
        "(p & q) & (p \xe9 q)",
        "((p)) & ((p) @)",
        # a grammar error right after a skipped group
        "(p & q) & (p & q) $",
        "(p & q) & (p & q) x",
        "(p & q) & (p & q))",
        "(p & q) & (p & q) &",
        "(p) (p)",
        "<t>{(p), (p) (p)}",
        # an unclosed final repeat
        "((p)) & ((p)",
        "((p)) & ((p)) & (",
        # repeats under prefixes, in tangles and binders
        "<t>{(p), (p)} & ~~(p)",
        "mu x. (x | p) & (x | p)",
        "(mu x. x) & (mu x. x) | (nu x. x)",
        "(mu $. x) & (mu x. x)",
        # groups that share a head, the text up to their next parenthesis
        "(x & (y)) | (x & (z)) | (x & (y))",
        "((a) & b) | ((a) & c) | ((a) & b)",
        "(x & (y)) & (x & (y)",
    ],
)
def test_parse_skips_repeated_groups_as_tree_parse_reads_them(text):
    got = _outcome(parse, text)
    want = _outcome(tree_parse, text)
    assert got is want or got == want


def test_parse_members():
    p_q = (Atom("p"), Atom("q"))
    assert parse_members("q, p, q") == p_q
    assert parse_members(" {q, p} ") == p_q
    assert parse_members("<t>{p}, mu x. x | p") == (parse("<t>{p}"), parse("mu x. x | p"))
    for text, message in [
        ("{p} & q", "trailing input '&' (at position 4)"),
        ("{p}, {q}", "trailing input ',' (at position 3)"),
        ("p, $", "unexpected character '$' (at position 3)"),
        ("p,", "unexpected 'end of input' (at position 2)"),
        ("p q", "expected COMMA, found 'q' (at position 2)"),
        ("{p, q", "expected RBRACE, found 'end of input' (at position 5)"),
        (" {}", "empty tangle braces (at position 2)"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_members(text)
        assert str(exc.value) == message, text


def test_parse_members_skips_repeated_groups():
    assert parse_members("(p), (p)") == tree_parse("<t>{(p), (p)}").members == (p,)
    assert parse_members("{(p), (q)}") == tree_parse("<t>{(p), (q)}").members == (p, q)
    assert parse_members("((p) & q), ((p) & q), (p)") == (p, And(p, q))
    for text in ["(x & (y)), (x & (z)), (x & (y))", "((a) & b), ((a) & c), ((a) & b)"]:
        assert parse_members(text) == tree_parse(f"<t>{{{text}}}").members
        assert len(parse_members(text)) == 2
    # an unclosed repeat
    with pytest.raises(ParseError, match=r"^expected RPAREN, found 'end of input' \(at position 19\)$"):
        parse_members("(x & (y)), (x & (y)")


def test_walkers_visit_each_distinct_node_once(monkeypatch):
    # 2^20 leaves over 41 distinct nodes: a walk of the tree would call the
    # child map millions of times
    phi, want = p, q
    for _ in range(20):
        phi, want = And(phi, Box(phi)), And(want, Box(want))
    nested = Mu("x", Nu("y", And(phi, And(Atom("x"), Box(Atom("y"))))))
    calls = 0

    def counted(f):
        nonlocal calls
        calls += 1
        return immediate_subformulas(f)

    from tangles import formula, translate

    monkeypatch.setattr(formula, "immediate_subformulas", counted)
    monkeypatch.setattr(translate, "immediate_subformulas", counted)
    atoms, names = free_atoms(phi), all_names(nested)
    replaced, translated = substitute(phi, q, "p"), to_d(Box(phi))
    # a walk from the root meets the outer binder first
    with pytest.raises(CaptureError, match="capture 'x'"):
        substitute(nested, And(Atom("x"), Atom("y")), "p")
    monkeypatch.undo()
    assert calls < 1000
    assert atoms == {"p"} and names == {"p", "x", "y"}
    assert replaced is want
    assert translated is And(to_d(phi), BoxD(to_d(phi)))


@pytest.mark.parametrize("seed", range(40))
def test_subformula_closure_is_closed(seed):
    rng = random.Random(1000 + seed)
    roots = [
        random_formula(rng, rng.randint(0, 4), tangles=True, fixpoints=True)
        for _ in range(rng.randint(1, 3))
    ]
    closure = subformula_closure(roots)
    assert all(f in closure for f in roots)
    for f in closure:
        for sub in immediate_subformulas(f):
            assert sub in closure
    # deterministic ordering and the member views
    assert list(closure) == sorted(closure.formulas, key=pretty)
    for member in closure.tangle_members:
        assert isinstance(member, (Tangle, TangleD))


def test_closure_set_rejects_gaps():
    with pytest.raises(FormulaError):
        ClosureSet(frozenset({And(p, q), p}))  # q missing
    ClosureSet(frozenset({And(p, q), p, q}))


def test_closure_set_names_its_least_gap():
    # a frozenset has no order: the message names the missing subformula
    # first in canonical order, then the least member it is missing from,
    # whatever the hash seed
    with pytest.raises(FormulaError, match=r"^closure set misses a0, a subformula of ~a0$"):
        ClosureSet(frozenset(Neg(Atom(f"a{i}")) for i in range(100)))
    members = {Atom(f"b{i}") for i in range(100)} | {And(Atom(f"b{i}"), r) for i in range(100)}
    with pytest.raises(FormulaError, match=r"^closure set misses r, a subformula of b0 & r$"):
        ClosureSet(frozenset(members))


def test_closure_set_keeps_a_frozenset_of_any_collection():
    closure = subformula_closure([Dia(p)])
    model = KripkeModel(Frame(("w0", "w1"), {("w0", "w1")}), {"p": ["w1"]})
    filtration = filtrate(model, closure)
    for given in ([p, Dia(p)], {p, Dia(p)}, (f for f in (p, Dia(p)))):
        made = ClosureSet(given)
        assert type(made.formulas) is frozenset
        assert made == closure and hash(made) == hash(closure)
        assert untangle(filtration, model, made) == untangle(filtration, model, closure)


@pytest.mark.parametrize("seed", range(100))
def test_nodes_are_interned(seed):
    def make():
        rng = random.Random(4000 + seed)
        return random_formula(
            rng, rng.randint(0, 5), ("p", "q"),
            tangles=True, fixpoints=True, universal=True, derivative=True,
        )

    phi = make()
    assert make() is phi
    assert parse(pretty(phi)) is phi
    assert copy.copy(phi) is phi and copy.deepcopy(phi) is phi
    assert pickle.loads(pickle.dumps(phi)) is phi
    assert rebuild(phi, immediate_subformulas(phi)) is phi
    for f in subformula_closure([phi]):
        assert rebuild(f, immediate_subformulas(f)) is f
        assert hash(f) == object.__hash__(f)


def test_interning_reaches_every_construction_path():
    assert Neg(p) is Neg(p) and Neg(p) is not Neg(q)
    assert Mu("x", Dia(Atom("x"))) is parse("mu x. <>x")
    assert Neg(sub=q) is Neg(q)
    assert Mu(var="y", body=Box(Atom("y"))) is parse("mu y. []y")
    assert Tangle([q, p, q]) is Tangle((p, q)) is parse("<t>{q, p}")
    assert pickle.loads(pickle.dumps([Tangle((q, p)), TangleD((p,))])) == [
        parse("<t>{p, q}"), parse("<dt>{p}")
    ]
    with pytest.raises(TypeError):
        Neg()
    with pytest.raises(TypeError):
        And(p, q, r)
    with pytest.raises(TypeError):
        Neg(left=q)
    # nodes are immutable: no field can be set or deleted
    phi = And(p, Neg(q))
    with pytest.raises(dataclasses.FrozenInstanceError):
        phi.left = q
    with pytest.raises(dataclasses.FrozenInstanceError):
        del phi.right
    assert phi.left is p and phi.right is Neg(q)
    # repr spells the keyword calls that make the node again
    ns = vars(formula)
    for text in ("p & ~q", "<t>{p, ~q}", "<dt>{p}", "mu x. <>x | []q", "nu y. A <d>(r -> E [d]y)"):
        f = parse(text)
        assert eval(repr(f), ns) is f


def _records():
    """One instance of each record class, its pinned ``repr`` (recorded
    from the frozen dataclasses these classes were), and its pinned hash
    where that does not depend on the hash seed or on object addresses."""
    from tangles import (
        FiniteSpace, KripkeModel, LogicProfile, RelationProperties, SetOperators,
        SpacePredicates, TopoModel, ValidityReport, closures, filtrate, untangle,
    )
    from tangles.filtration import (
        AtomicTypeData, CharacteristicReport, FrameProfile, PreservationReport, ReductionReport,
    )
    from tangles.kripke import ClusterDecomposition, Program

    space = FiniteSpace(("x",), [(), ("x",)])
    model = KripkeModel(Frame(("a",), [("a", "a")]), {"p": ["a"]})
    fr = filtrate(model, ClosureSet(frozenset({Atom("p")})))
    fr_text = (
        "FiltrationResult(mode='standard', closure=ClosureSet(formulas=frozenset({Atom(name='p')})), "
        "quotient_worlds=('c0',), classes=(('a',),), quotient_map={'a': 'c0'}, "
        "r_lambda=frozenset({('c0', 'c0')}), r_phi=frozenset({('c0', 'c0')}), "
        "quotient_val={'p': ('c0',)}, source_truth={Atom(name='p'): frozenset({'a'})}, "
        "maximal_clusters=(frozenset({'a'}),), source=KripkeModel(worlds=1, atoms=['p']))"
    )
    checks = CharacteristicReport(*[True] * 10, ())
    checks_text = (
        "CharacteristicReport(types_distinct=True, reachable_serial=True, "
        "type_description_ok=True, maximal_membership_by_type=True, cluster_scope_by_type=True, "
        "component_cover_ok=True, maximal_membership_sharp=True, cluster_scope_sharp=True, "
        "class_formula_sharp=True, component_formula_sharp=True, notes=())"
    )
    profile = FrameProfile(True, True, True, 1, 1)
    profile_text = ("FrameProfile(serial=True, reflexive=True, connected=True, "
                    "path_component_count=1, local_connectedness=1)")
    # a two-member frozenset prints in an order that follows the hash seed
    return [
        (ClosureSet(frozenset({Atom("p")})),
         "ClosureSet(formulas=frozenset({Atom(name='p')}))", None),
        (Frame(("a", "b"), [("a", "b")]),
         "Frame(worlds=('a', 'b'), rel=frozenset({('a', 'b')}))", None),
        (RelationProperties(True, False, True),
         "RelationProperties(reflexive=True, transitive=False, serial=True)",
         2946073206561277986),
        (closures(Frame(("a",), [])),
         "Closures(transitive=Frame(worlds=('a',), rel=frozenset()), "
         "reflexive_transitive=Frame(worlds=('a',), rel=frozenset({('a', 'a')})))", None),
        (ClusterDecomposition((frozenset({"a"}),), (False,), frozenset(), (1,)),
         "ClusterDecomposition(clusters=(frozenset({'a'}),), degenerate=(False,), "
         "order=frozenset(), rank=(1,))", None),
        (Program(((1, 0, 0, 0),), 1, (0,)),
         "Program(code=((1, 0, 0, 0),), size=1, roots=(0,), tangled=False)",
         2254066983666727266),
        (LogicProfile("S4", "modal", reflexive=True),
         "LogicProfile(name='S4', fragment='modal', serial=False, reflexive=True, "
         "connected=False, local_connectedness=None)", None),
        (ValidityReport(False, 3, {"p": ("a",)}, "a"),
         "ValidityReport(valid=False, checked=3, witness_valuation={'p': ('a',)}, "
         "witness_world='a')", None),
        (space, f"FiniteSpace(points=('x',), opens={space.opens!r})", None),
        (SetOperators(frozenset(), frozenset({"x"}), frozenset()),
         "SetOperators(interior=frozenset(), closure=frozenset({'x'}), derivative=frozenset())",
         None),
        (SpacePredicates(True, False, True),
         "SpacePredicates(is_TD=True, dense_in_itself=False, connected=True)",
         2946073206561277986),
        (fr, fr_text, None),
        (untangle(fr, model, fr.closure),
         "UntangleResult(reflexive_mode=False, quotient_worlds=('c0',), "
         "clusters=(frozenset({'c0'}),), critical_points=('a',), nuclei=(frozenset({'c0'}),), "
         f"r_t=frozenset({{('c0', 'c0')}}), filtration={fr_text})", None),
        # None hashes by address before Python 3.12
        (ReductionReport(True, 1, None), "ReductionReport(ok=True, checked=1, failure=None)", None),
        (checks, checks_text, 6713098372001534491),
        (AtomicTypeData(
            (Atom("p"),), {"a": frozenset({Atom("p")})}, (frozenset({frozenset({Atom("p")})}),),
            (0,), {"a": (0,)}, {0: Atom("p")}, {0: Dia(Atom("p"))}, {"a": Atom("p")},
            {"a": Atom("p")}, {"a": ()}, checks),
         "AtomicTypeData(alphabet=(Atom(name='p'),), type_of={'a': frozenset({Atom(name='p')})}, "
         "cluster_types=(frozenset({frozenset({Atom(name='p')})}),), maximal_clusters=(0,), "
         "sees_maximal={'a': (0,)}, cluster_formula={0: Atom(name='p')}, "
         "sees_cluster_formula={0: Dia(sub=Atom(name='p'))}, profile_formula={'a': Atom(name='p')}, "
         "class_formula={'a': Atom(name='p')}, component_formulas={'a': ()}, "
         f"report={checks_text})", None),
        (profile, profile_text, 7340327685198478874),
        (PreservationReport(profile, profile, profile, *[True] * 6, ()),
         f"PreservationReport(source={profile_text}, filtered={profile_text}, "
         f"untangled={profile_text}, serial_preserved=True, reflexive_preserved=True, "
         "connected_preserved=True, sees_reflexive=True, path_components_equal=True, "
         "common_successor_ok=True, warnings=())", -5726401869338024628),
        # a model prints its size and atoms, not its fields
        (KripkeModel(Frame(("a", "b"), [("a", "b")]), {"p": ["a"], "q": []}),
         "KripkeModel(worlds=2, atoms=['p', 'q'])", None),
        (TopoModel(space, {"p": ["x"]}), "TopoModel(points=1, atoms=['p'])", None),
    ]


@pytest.mark.parametrize("case", range(20))
def test_records_behave_as_the_frozen_dataclasses_they_were(case):
    record, text, pinned_hash = _records()[case]
    kind = type(record)
    names = kind.__match_args__
    values = tuple(getattr(record, name) for name in names)
    # the repr spells every field in order, so it pins __match_args__ too,
    # but a model's spells its size and atoms
    assert repr(record) == text
    # equal field by field, and built again by position or by keyword
    again = kind(*values)
    assert again == record and not again != record
    assert kind(**dict(zip(names, values))) == record
    if kind is Frame:
        assert hash(record) == hash((record.worlds, record.succ))
    elif kind.__name__ in ("ValidityReport", "FiltrationResult", "AtomicTypeData"):
        # each holds a dict
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    elif kind.__name__ == "UntangleResult":
        # the filtration is compared but not hashed
        assert hash(record) == hash(again) == hash(values[:-1])
        from tangles import filtrate

        fr = values[-1]
        forged = kind(*values[:-1], filtrate(fr.source, fr.closure, "refined"))
        assert hash(forged) == hash(record) and forged != record
    elif kind.__name__ in ("KripkeModel", "TopoModel"):
        # an atom true nowhere takes no part in equality or hashing
        structure, val = values
        assert hash(record) == hash((structure, frozenset((a, s) for a, s in val.items() if s)))
        assert kind(structure, {a: s for a, s in val.items() if s}) == record
        assert kind(structure, dict(val, r=set())) == record
        assert kind(structure, {"q": set()}) == kind(structure, {})
    else:
        assert hash(record) == hash(again) == hash(values)
    if pinned_hash is not None:
        assert hash(record) == pinned_hash
    # a record of another class with the same fields is unequal
    twin = type("Twin", (formula._Record,), {"__annotations__": dict.fromkeys(names, "object")})
    assert twin(*values) != record and record != twin(*values)
    assert record != values and record != object()
    # frozen: no field, nor any other attribute, can be set or deleted
    for change in (lambda: setattr(record, names[0], values[0]),
                   lambda: setattr(record, "other", 1),
                   lambda: delattr(record, names[-1])):
        with pytest.raises(dataclasses.FrozenInstanceError):
            change()
    assert tuple(getattr(record, name) for name in names) == values
    # a missing, unknown or repeated field is refused
    bad = [lambda: kind(*values, other=1), lambda: kind(*values, values[-1]),
           lambda: kind(*values, **{names[0]: values[0]})]
    if kind is not ClosureSet:  # its one field has a default
        bad.append(lambda: kind(**dict(zip(names[1:], values[1:]))))
    for call in bad:
        with pytest.raises(TypeError):
            call()
    # copies are equal, and positional patterns read __match_args__
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
    match record:
        case kind(first):
            assert first == values[0]
        case _:
            pytest.fail("no match")
    # a record is no dataclass
    for helper in (dataclasses.replace, dataclasses.fields, dataclasses.asdict):
        with pytest.raises(TypeError):
            helper(record)


def test_record_defaults_hold():
    from tangles import FiniteSpace, LogicProfile, ValidityReport
    from tangles.kripke import Program

    assert Program((), 0, ()).tangled is False and Program((), 0, (), True).tangled is True
    assert ClosureSet() == ClosureSet(frozenset()) and ClosureSet().formulas == frozenset()
    assert LogicProfile("K4", "modal") == LogicProfile(
        name="K4", fragment="modal", serial=False, reflexive=False, connected=False,
        local_connectedness=None,
    )
    assert ValidityReport(True, 5) == ValidityReport(True, 5, None, None)
    assert ValidityReport(valid=True, checked=5, witness_world="a").witness_valuation is None
    # a space's specialization frame is no field
    space = FiniteSpace(("x", "y"), [(), ("x",), ("x", "y")])
    assert FiniteSpace.__match_args__ == ("points", "opens")
    assert space.frame.succ == (0b01, 0b11) and "frame" not in repr(space)


@pytest.mark.parametrize("seed", range(60))
def test_printed_length_counts_without_printing(seed):
    rng = random.Random(4300 + seed)
    phi = random_formula(rng, rng.randint(0, 5), universal=True, derivative=True)
    for f in (phi, to_d(phi), to_mu(phi)):
        assert printed_length(f) == len(pretty(f))


@pytest.mark.parametrize("seed", range(40))
def test_tangle_members_keep_the_printed_order(seed):
    rng = random.Random(4200 + seed)
    members = [random_formula(rng, rng.randint(0, 3)) for _ in range(rng.randint(1, 5))]
    members += rng.sample(members, rng.randint(0, len(members)))  # duplicates
    by_text = {pretty(m): m for m in members}
    expected = tuple(by_text[k] for k in sorted(by_text))
    assert Tangle(members).members == expected
    assert TangleD(tuple(reversed(members))).members == expected


def test_intern_table_drops_dead_nodes():
    from tangles import formula

    phi = Neg(Dia(Atom("zz_unreferenced")))
    alive = weakref.ref(phi)
    assert (Atom, "zz_unreferenced") in formula._NODES
    del phi
    gc.collect()
    assert alive() is None
    assert (Atom, "zz_unreferenced") not in formula._NODES
    assert all(entry() is not None for entry in list(formula._NODES.values()))


def test_interning_holds_across_threads():
    # more threads than cores race to make the same new nodes in each round,
    # while the nodes of earlier rounds die; a lost update to the table
    # would hand two threads two different objects for one structure
    texts = [pretty(random_formula(random.Random(s), 5, tangles=True)) for s in range(40)]
    results: list = [None] * 4

    def work(i):
        rounds = []
        for r in range(40):
            rounds.append([parse(t.replace("p", f"p{r}")) for t in texts])
            if r % 10 == 9:
                rounds = rounds[-1:]
        results[i] = rounds[-1]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for other in results[1:]:
        assert all(a is b for a, b in zip(results[0], other))
    assert all(parse(t.replace("p", "p39")) is f for t, f in zip(texts, results[0]))
