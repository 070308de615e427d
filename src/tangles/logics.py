"""Hilbert-system building blocks: axiom schemas, logic profiles as frame
condition bundles, exhaustive frame validity, and bounded model search.

Nothing here decides theoremhood.  A profile names a frame class; validity is
checked by brute force over valuations, and satisfiability by brute force over
small frames of that class.  Both searches carry explicit budgets so that
"too big to try" is never conflated with "no".
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from collections.abc import Iterator, Sequence

from .formula import (
    And,
    Atom,
    Box,
    BoxD,
    Dia,
    Exists,
    Forall,
    Formula,
    Implies,
    Neg,
    Tangle,
    Top,
    _Record,
    box_star,
    conj,
    dia_star,
    disj,
    free_atoms,
)
from .kripke import (
    SEARCH_BUDGET,
    VALUATION_BUDGET,
    BudgetExceededError,
    Evaluator,
    Frame,
    KripkeModel,
    Program,
    _first,
    _picked,
    compile_formulas,
    locally_n_connected,
    path_components,
    relation_properties,
)


class SchemaError(ValueError):
    """Unknown schema id or arguments that do not fit its arity."""


class ProfileError(ValueError):
    """A logic name that does not parse."""


# ---------------------------------------------------------------------------
# Axiom schemas


def _neg(phi: Formula) -> Formula:
    """Negate, collapsing a double negation."""
    return phi.sub if isinstance(phi, Neg) else Neg(phi)


def _exclusive(parts: Sequence[Formula], i: int) -> Formula:
    """The i-th member of a pairwise exclusion family: parts[i] and not the
    others.  Repeated conjuncts (as arise when one part is the negation of
    another) are dropped, so the single-atom instances come out in their
    familiar short form.  Nodes are interned, so repeats are the same node."""
    return conj(dict.fromkeys([parts[i]] + [_neg(p) for j, p in enumerate(parts) if j != i]))


def _gn(n: int, derivative: bool, *parts: Formula) -> Formula:
    """G_n over ``parts`` (default: atoms p0..pn), or G1d when ``derivative``."""
    parts = parts or tuple(Atom(f"p{i}") for i in range(n + 1))
    qs = [_exclusive(parts, i) for i in range(n + 1)]
    if derivative:
        return Implies(
            BoxD(disj([Box(q) for q in qs])),
            disj([BoxD(_neg(q)) for q in qs]),
        )
    return Implies(
        conj([Dia(q) for q in qs]),
        Dia(conj([dia_star(_neg(q)) for q in qs])),
    )


def _fix(t: Tangle, *gamma: Formula) -> Formula:
    """The fixpoint axiom for one member ``gamma``, or for all of them."""
    return conj([Implies(t, Dia(And(g, t))) for g in gamma or t.members])


def _ind(t: Tangle, phi: Formula) -> Formula:
    step = Implies(phi, conj([Dia(And(g, phi)) for g in t.members]))
    return Implies(box_star(step), Implies(phi, t))


#: Plain schemas: the numbers of formulas each takes, and its builder.
_PLAIN = {
    "K": ((2,), lambda a, b: Implies(Box(Implies(a, b)), Implies(Box(a), Box(b)))),
    "4": ((1,), lambda a: Implies(Dia(Dia(a)), Dia(a))),
    "T": ((1,), lambda a: Implies(Box(a), a)),
    "D": ((0,), lambda: Dia(Top())),
    "U": ((1,), lambda a: Implies(Forall(a), Box(a))),
    "C": ((1,), lambda a: Implies(
        Forall(disj([box_star(a), box_star(Neg(a))])),
        disj([Forall(a), Forall(Neg(a))]),
    )),
}

#: Tangle schemas: the numbers of formulas each takes after its member set,
#: and its builder, which gets the tangle of that set first.
_TANGLED = {
    "Fix": ((0, 1), _fix),
    "Ind": ((1,), _ind),
    "4t": ((0,), lambda t: Implies(Dia(t), t)),
    "Tt": ((0,), lambda t: Implies(conj(t.members), t)),
}

_G_RE = re.compile(r"^G([1-9]\d*)(d?)$")


def _names_length(n: int) -> int:
    """Characters in the names x0..x(n-1), for n at least 1: two each, and
    a digit more per index from 10, 100, ..."""
    return 2 * n + sum(n - 10**d for d in range(1, len(str(n - 1))))


def _gn_length(schema: str) -> int:
    """``printed_length(instantiate(schema))`` for ``G``n on its default
    atoms, from n alone, or 0 for any other schema.  Its n+1 exclusions
    each print n ``~``, n `` & `` and p0..pn thrice: in ``<>(...)``,
    ``~(...)`` and ``<>~(...)``."""
    g = _G_RE.match(schema)
    if not g or g.group(2):
        return 0
    m = int(g.group(1)) + 1
    return 3 * m * (_names_length(m) + 4 * m - 4) + 23 * m + 2


#: Schema ids with fixed arity; G1, G2, ... and G1d are recognised by pattern.
BASE_SCHEMAS = (*_PLAIN, *_TANGLED)


def instantiate(schema: str, *args) -> Formula:
    """Build one instance of a named axiom schema.

    Plain schemas take formulas: K(a, b), 4(a), T(a), U(a), C(a), D().
    Tangle schemas take a member set first: Fix(members, gamma=None),
    Ind(members, a), 4t(members), Tt(members).  Gn takes n+1 formulas
    (default: atoms p0..pn); G1d is the derivative-language variant.
    """
    head: tuple[Formula, ...] = ()
    if schema in _TANGLED:
        counts, build = _TANGLED[schema]
        members = tuple(args[0]) if args and not isinstance(args[0], Formula) else ()
        if not members or not all(isinstance(f, Formula) for f in members):
            raise SchemaError(f"schema '{schema}' wants a non-empty set of member formulas first")
        head, args = (Tangle(members),), args[1:]
    elif schema in _PLAIN:
        counts, build = _PLAIN[schema]
    else:
        g = _G_RE.match(schema)
        if not g:
            raise SchemaError(f"unknown schema '{schema}'")
        n, derivative = int(g.group(1)), bool(g.group(2))
        if derivative and n != 1:
            raise SchemaError("only G1 has a derivative-language form")
        counts, build = (0, n + 1), functools.partial(_gn, n, derivative)
    if len(args) not in counts or not all(isinstance(f, Formula) for f in args):
        noun = "formula" if counts == (1,) else "formulas"
        after = " after its member set" if head else ""
        raise SchemaError(f"schema '{schema}' takes {' or '.join(map(str, counts))} {noun}{after}")
    return build(*head, *args)


# ---------------------------------------------------------------------------
# Logic profiles

_PROFILE_RE = re.compile(r"^(K4|KD4|S4)(?:G([1-9]\d*))?(t)?(?:\.U(C)?)?$")


class LogicProfile(_Record):
    """A logic name resolved to frame conditions and a language fragment.

    Transitivity is common to every profile.  The fragment records which
    connectives the logic's language is meant to carry; nothing enforces it.
    """

    name: str
    fragment: str
    serial: bool = False
    reflexive: bool = False
    connected: bool = False
    local_connectedness: int | None = None

    def frame_violations(self, frame: Frame) -> tuple[str, ...]:
        props = relation_properties(frame)
        out = []
        if not props.transitive:
            out.append("transitive")
        if self.serial and not props.serial:
            out.append("serial")
        if self.reflexive and not props.reflexive:
            out.append("reflexive")
        if self.connected and len(path_components(frame)) > 1:
            out.append("connected")
        n = self.local_connectedness
        if n is not None and not locally_n_connected(frame, n):
            out.append(f"locally_{n}_connected")
        return tuple(out)

    def frame_ok(self, frame: Frame) -> bool:
        return not self.frame_violations(frame)


def parse_profile(name: str) -> LogicProfile:
    """Resolve a logic name like K4t, KD4G1.U or S4t.UC to a profile."""
    text = name.strip()
    if text in ("S4mu", "S4μ"):
        return LogicProfile(name="S4mu", fragment="mu", reflexive=True)
    m = _PROFILE_RE.match(text)
    if not m:
        raise ProfileError(f"cannot parse logic name '{name}'")
    base, g, t, c = m.groups()
    fragment = "tangle" if t else "modal"
    if ".U" in text:
        fragment += "+universal"
    return LogicProfile(
        name=text,
        fragment=fragment,
        serial=base == "KD4",
        reflexive=base == "S4",
        connected=bool(c),
        local_connectedness=int(g) if g else None,
    )


# ---------------------------------------------------------------------------
# Frame enumeration

#: Isomorphism pruning is exact up to this many worlds; larger frames are
#: enumerated labeled.  Tested at every row prefix, 4 worlds take 1,141
#: canonicity tests of at most 24 relabelings each, against 3,994 at the
#: leaves alone.
_CANONICAL_LIMIT = 4


@functools.cache
def _relabelings(n: int, k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Each permutation of ``n`` worlds that maps the first ``k`` onto
    themselves, the identity first, with a table that relabels a row:
    ``table[row]`` holds ``row >> j & 1`` for ``j`` in permutation order,
    from its highest bit down."""
    out = []
    for head, tail in itertools.product(
        itertools.permutations(range(k)), itertools.permutations(range(k, n))
    ):
        perm = head + tail
        table = []
        for row in range(1 << n):
            key = 0
            for j in perm:
                key = key << 1 | row >> j & 1
            table.append(key)
        out.append((perm, tuple(table)))
    return tuple(out)


def _canonical(rows: Sequence[int], n: int) -> bool:
    """Can an adjacency matrix whose first rows are ``rows`` be the
    lexicographically least among its relabelings?  A relabeling reads the
    rows in permutation order, each through its table, and the first row
    that differs decides.  One that maps the first ``k = len(rows)`` worlds
    onto themselves reads its first ``k`` rows from ``rows`` alone, so if
    it reads them as less, no completion is least; only those relabelings
    are tried.  With all ``n`` rows that is every relabeling, and the test
    is exact: every isomorphism class keeps one representative."""
    (_, identity), *others = _relabelings(n, len(rows))
    base = [identity[row] for row in rows]
    for perm, table in others:
        for i, least in zip(perm, base):
            key = table[rows[i]]
            if key != least:
                if key < least:
                    return False
                break
    return True


def enumerate_frames(
    n: int,
    *,
    serial: bool = False,
    reflexive: bool = False,
    connected: bool = False,
    local_connectedness: int | None = None,
    up_to_iso: bool = True,
) -> Iterator[Frame]:
    """All transitive frames on worlds w0..w{n-1} meeting the given
    conditions, in ascending row-major adjacency order.

    Transitivity is enforced incrementally during the row search; the other
    conditions prune rows (serial, reflexive) or filter at the leaf
    (connected, local connectedness).  With up_to_iso, isomorphic duplicates
    are dropped for n <= 4 by a lexicographic canonicity test on every row
    prefix (orderly generation): a prefix that no completion can make
    least is not extended, and the leaves that remain are the canonical
    ones.
    """
    if n < 1:
        raise ValueError("frame size must be at least 1")
    worlds = tuple(f"w{i}" for i in range(n))
    pruned = up_to_iso and n <= _CANONICAL_LIMIT
    candidates = []
    for i in range(n):
        opts = range(1, 1 << n) if serial or reflexive else range(1 << n)
        if reflexive:
            opts = [m for m in opts if m >> i & 1]
        candidates.append(list(opts))
    rows: list[int] = []

    def search() -> Iterator[Frame]:
        # Transitivity against the rows so far: row i sees all that the
        # earlier worlds it sees see (``implied``, indexed by the earlier
        # worlds seen), and sees only what every earlier world seeing i sees.
        i = len(rows)
        implied, bound = [0], (1 << n) - 1
        for row in rows:
            implied += [seen | row for seen in implied]
            if row >> i & 1:
                bound &= row
        earlier = (1 << i) - 1
        for m in candidates[i]:
            if m & ~bound or implied[m & earlier] & ~m:
                continue
            rows.append(m)
            if not pruned or _canonical(rows, n):
                if i + 1 < n:
                    yield from search()
                else:
                    frame = Frame.from_rows(worlds, rows)
                    if not (connected and len(path_components(frame)) > 1) and (
                        local_connectedness is None
                        or locally_n_connected(frame, local_connectedness)
                    ):
                        yield frame
            rows.pop()

    return search()


# ---------------------------------------------------------------------------
# Validity and bounded satisfiability


class ValidityReport(_Record):
    """Outcome of an exhaustive validity check on one frame.

    On failure the witness names a refuting valuation (atom -> worlds) and
    the world where the formula comes out false.
    """

    valid: bool
    checked: int
    witness_valuation: dict | None = None
    witness_world: str | None = None


#: Valuations per block of a bitsliced sweep (``Evaluator.run_block``), one bit each.
BLOCK = 1 << 16
#: At most this many bits live in a block's slots, so a large program or
#: frame gets smaller blocks.  Block sizes never change a result.
_BLOCK_BITS = 1 << 28


def _least_model(
    frame: Frame, program: Program, atoms: Sequence[str], space: int
) -> tuple[int, str] | None:
    """The least of the valuations ``0 .. space - 1`` over ``atoms`` under
    which the compiled formula holds at some world, with the lowest such
    world, or None.  The valuations are swept in blocks of up to
    :data:`BLOCK` (``Evaluator.run_block``), and the least is the lowest bit
    of the first block that is set at some world."""
    ev = Evaluator(frame)
    size = min(space, BLOCK)
    while size > 64 and size * ev.n * program.size > _BLOCK_BITS:
        size >>= 1
    for start in range(0, space, size):
        ext = ev.run_block(program, atoms, start, size)[0]
        somewhere = functools.reduce(operator.or_, ext)
        if somewhere:
            bit = _first(somewhere)
            return start + bit, next(w for w, m in zip(frame.worlds, ext) if m >> bit & 1)
    return None


def _valuation(atoms: Sequence[str], worlds: Sequence[str], v: int) -> dict[str, tuple[str, ...]]:
    """Valuation ``v`` as world tuples, atom-major: the first atom's mask
    sits in the highest bits of ``v``, so it varies slowest."""
    last, n = len(atoms) - 1, len(worlds)
    return {a: tuple(_picked(worlds, v >> (last - k) * n)) for k, a in enumerate(atoms)}


def frame_validates(frame: Frame, phi: Formula, budget: int = VALUATION_BUDGET) -> ValidityReport:
    """Check phi at every world under every valuation of its free atoms.

    Only the atoms occurring free in phi are varied; others cannot affect
    its truth.  Valuations go atom-major ascending, in blocks of up to
    :data:`BLOCK` evaluated at once.  Phi is valid exactly when ~phi has no
    model on the frame: the first refuting valuation is the least model of
    ~phi, the witness world the lowest world where phi fails under it, and
    ``checked`` counts the valuations up to the refutation.  Raises
    BudgetExceededError when the valuation space is larger than the budget,
    and ValueError when the budget is negative.
    """
    if budget < 0:
        raise ValueError(f"the budget must not be negative, got {budget}")
    atoms = sorted(free_atoms(phi))
    n = len(frame.worlds)
    space = 1 << (len(atoms) * n)
    if space > budget:
        raise BudgetExceededError(
            f"{space} valuations exceed the budget of {budget}"
        )
    found = _least_model(frame, compile_formulas((Neg(phi),)), atoms, space)
    if found is None:
        return ValidityReport(valid=True, checked=space)
    v, world = found
    return ValidityReport(False, v + 1, _valuation(atoms, frame.worlds, v), world)


def bounded_sat(
    phi: Formula,
    profile: LogicProfile,
    max_worlds: int,
    budget: int = SEARCH_BUDGET,
) -> KripkeModel | None:
    """Search for a model of phi on a frame of the profile's class.

    Frames are enumerated by size, then adjacency order, then valuations
    atom-major ascending; the first hit is therefore the least witness, and
    the same one on every run.  Each frame's valuations are evaluated at
    once, in blocks of up to :data:`BLOCK`, and the witness valuation is
    the least model on the first frame that has one.  None means no model
    within max_worlds; BudgetExceededError means the search was cut short,
    which is a weaker statement.  A negative budget is a ValueError.
    """
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    if budget < 0:
        raise ValueError(f"the budget must not be negative, got {budget}")
    atoms = sorted(free_atoms(phi))
    program = compile_formulas((phi,))
    spent = 0
    for n in range(1, max_worlds + 1):
        per_frame = 1 << (len(atoms) * n)
        for frame in enumerate_frames(
            n,
            serial=profile.serial,
            reflexive=profile.reflexive,
            connected=profile.connected,
            local_connectedness=profile.local_connectedness,
        ):
            spent += per_frame
            if spent > budget:
                raise BudgetExceededError(
                    f"search budget {budget} exhausted on {n}-world frames"
                )
            found = _least_model(frame, program, atoms, per_frame)
            if found is not None:
                return KripkeModel(frame, _valuation(atoms, frame.worlds, found[0]))
    return None


# ---------------------------------------------------------------------------
# Fixtures


def figure3_model(m: int) -> KripkeModel:
    """The m-th initial segment of the fence model: spine worlds a0..am, each
    seeing the two fence posts below it (an sees bn and b(n+1)), reflexive
    closure.  Posts carry r, g, b in rotation and pi on the posts b(3i),
    b(3i+1), so no post satisfies two distinct pi and no world sees all
    three colours.  The segment ends on a post so that every spine world
    keeps both its posts.
    """
    if m < 0:
        raise ValueError("m must be at least 0")
    spine = [f"a{k}" for k in range(m + 1)]
    posts = [f"b{k}" for k in range(m + 2)]
    worlds = tuple(spine + posts)
    rel = {(w, w) for w in worlds}
    for k in range(m + 1):
        rel.add((f"a{k}", f"b{k}"))
        rel.add((f"a{k}", f"b{k + 1}"))
    colours = ("r", "g", "b")
    val: dict[str, set[str]] = {c: set() for c in colours}
    for k in range(m + 2):
        val[colours[k % 3]].add(f"b{k}")
    i = 0
    while 3 * i <= m + 1:
        val[f"p{i}"] = {f"b{k}" for k in (3 * i, 3 * i + 1) if k <= m + 1}
        i += 1
    return KripkeModel(Frame(worlds, frozenset(rel)), val)


def _figure3_length(m: int, constraints: bool) -> int:
    """A lower bound, from m alone, on what the fence fixture prints in any
    format: the world list and the 4m+5 pairs (loops, and two edges from
    each spine world) print spine names five times and post names four,
    with three more characters a pair.  With ``constraints``, each
    ``A ~(<>pi & <>pj)`` prints 12 characters besides its two names."""
    m = max(m, 0)  # figure3_model refuses a negative m
    bound = 5 * _names_length(m + 1) + 4 * _names_length(m + 2) + 12 * m + 15
    if constraints:
        k = m // 3 + 1
        bound += (k - 1) * (6 * k + _names_length(k))
    return bound


def figure3_constraints(max_index: int) -> tuple[Formula, ...]:
    """The colour-separation constraints the fence fixture is built to
    satisfy, for post families p0..p{max_index}: somewhere a world sees pi
    together with both r and g; no world sees two distinct pi; no world sees
    all three colours; and seeing pi while avoiding b propagates ◇pi to all
    successors."""
    if max_index < 0:
        raise ValueError("max_index must be at least 0")
    ps = [Atom(f"p{i}") for i in range(max_index + 1)]
    r, g, b = Atom("r"), Atom("g"), Atom("b")
    out: list[Formula] = []
    for p in ps:
        out.append(Exists(conj([Dia(p), Dia(r), Dia(g)])))
    for i, p in enumerate(ps):
        for q in ps[i + 1 :]:
            out.append(Forall(Neg(And(Dia(p), Dia(q)))))
    out.append(Forall(Neg(conj([Dia(r), Dia(g), Dia(b)]))))
    for p in ps:
        out.append(Forall(Implies(And(Dia(p), Box(Neg(b))), Box(Dia(p)))))
    return tuple(out)


def named_frames() -> dict[str, Frame]:
    """Small frames that defeat one axiom each once its condition is
    dropped: T and Tt on the irreflexive point, D on the successorless
    point, C on two disconnected reflexive points, the local-connectedness
    axiom on the fork with an irreflexive root, and 4 (and the tangle
    transfer axiom, read via its fixpoint encoding) on a chain missing its
    composed edge."""
    loop = lambda *ws: frozenset((w, w) for w in ws)
    return {
        "irreflexive_point": Frame(("w0",), frozenset()),
        "successorless_point": Frame(("w0",), frozenset()),
        "two_islands": Frame(("w0", "w1"), loop("w0", "w1")),
        "fork": Frame(("r", "x", "y"), frozenset({("r", "x"), ("r", "y")}) | loop("x", "y")),
        "broken_chain": Frame(("a", "b", "c"), frozenset({("a", "b"), ("b", "c"), ("c", "c")})),
    }
