"""Slow reference implementations that the fast paths are checked against.

``tree_extension`` is the recursive evaluator the compiled programs of
``kripke.Evaluator`` replaced: it walks the formula as a tree, evaluating a
shared subformula once per occurrence and a fixpoint body in full on every
round.  It decides a tangle by the cluster criterion, where the compiled
programs iterate the tangle's greatest fixpoint.  ``tree_frame_validates``
and ``tree_bounded_sat`` are the validity sweep and the bounded search
written on it, one valuation at a time, where ``logics`` sweeps blocks of
valuations bitsliced.  ``tree_enumerate_frames`` is the frame enumeration
with the canonicity test that builds each relabeled matrix bit by bit,
where ``logics`` relabels rows by table.

``tree_filtrate``, ``tree_untangle``, ``tree_verify_reduction`` and
``tree_reduction_conditions`` are the filtration constructions and checks
written on world sets and pair sets, where ``filtration`` works on the
successor rows and world masks of the frames.  They read only the public
fields of the results they are given.

``tree_characteristic_formulas`` builds the characteristic formulas on
world sets and checks each defining property with a program of its own,
where ``filtration`` works on masks and checks them all in one program.

``tree_instantiate`` builds the axiom schemas with one branch and one arity
check per schema, and drops repeated conjuncts of ``G_n`` by their printed
text, where ``logics.instantiate`` looks the schema up in a table and drops
repeats by node.

``tree_to_mu`` and ``tree_star`` are the translations written as
recursive walks of the formula tree, where ``translate`` walks with an
explicit stack and returns a subformula that hands out no fresh name as
it is.

``tree_free_atoms`` finds the free names of a formula by recursion on its
tree and keeps nothing, where ``formula.free_atoms`` keeps each node's
names on the node, and the compiler reads them there.

``tangle_oracle`` checks the tangle clause at one world by another route:
it enumerates the simple cycles the world reaches and asks whether one
meets every member, where ``tree_extension`` applies the cluster criterion
and ``kripke`` iterates the greatest fixpoint.

``tree_parse`` is the recursive-descent parser that ``formula.parse``
replaced: it tokenizes in a Python loop and descends through six levels of
calls for every node of the tree the text spells, repeats included.  Its
depth limit is Python's recursion limit.
"""

from __future__ import annotations

import dataclasses
import itertools
import re
from typing import Iterable, Iterator, Mapping, Sequence

from tangles import (
    And,
    Atom,
    AtomicTypeData,
    CharacteristicReport,
    BudgetExceededError,
    ClosureSet,
    CriticalPointError,
    FiltrationResult,
    ReductionReport,
    SchemaError,
    UntangleResult,
    Bot,
    Box,
    BoxD,
    Dia,
    DiaD,
    Evaluator,
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
    NonTransitiveError,
    Nu,
    Or,
    ParseError,
    Tangle,
    TangleD,
    Top,
    TranslationError,
    ValidityReport,
    all_names,
    box_star,
    cluster_decomposition,
    closures,
    conj,
    dia_star,
    disj,
    free_atoms,
    fresh_names,
    immediate_subformulas,
    locally_n_connected,
    path_components,
    pretty,
)
from tangles.formula import rebuild
from tangles.logics import SEARCH_BUDGET, VALUATION_BUDGET


def tree_extension(ev: Evaluator, phi: Formula, val: Mapping[str, int]) -> int:
    """The worlds of ``ev``'s frame where ``phi`` holds under ``val``."""
    if isinstance(phi, Atom):
        return val.get(phi.name, 0)
    if isinstance(phi, Top):
        return ev.full
    if isinstance(phi, Bot):
        return 0
    if isinstance(phi, Neg):
        return ev.full & ~tree_extension(ev, phi.sub, val)
    if isinstance(phi, And):
        return tree_extension(ev, phi.left, val) & tree_extension(ev, phi.right, val)
    if isinstance(phi, Or):
        return tree_extension(ev, phi.left, val) | tree_extension(ev, phi.right, val)
    if isinstance(phi, Implies):
        return (ev.full & ~tree_extension(ev, phi.left, val)) | tree_extension(
            ev, phi.right, val
        )
    if isinstance(phi, Iff):
        a = tree_extension(ev, phi.left, val)
        b = tree_extension(ev, phi.right, val)
        return ev.full & ~(a ^ b)
    if isinstance(phi, Box):
        return ev.box(tree_extension(ev, phi.sub, val), ev.succ)
    if isinstance(phi, BoxD):
        return ev.box(tree_extension(ev, phi.sub, val), ev.dsucc)
    if isinstance(phi, Dia):
        return ev.dia(tree_extension(ev, phi.sub, val), ev.succ)
    if isinstance(phi, DiaD):
        return ev.dia(tree_extension(ev, phi.sub, val), ev.dsucc)
    if isinstance(phi, Forall):
        return ev.full if tree_extension(ev, phi.sub, val) == ev.full else 0
    if isinstance(phi, Exists):
        return ev.full if tree_extension(ev, phi.sub, val) else 0
    if isinstance(phi, (Tangle, TangleD)):
        # the worlds that see a cluster each of whose worlds sees, inside
        # it and through the tangle's relation, a world of every member
        rows = ev.rels[int(isinstance(phi, TangleD))]
        if not ev.frame.transitive:
            raise NonTransitiveError("tangle formulas require a transitive frame")
        masks = [tree_extension(ev, m, val) for m in phi.members]
        good = 0
        for cluster in ev.frame.cluster_masks:
            inside = [rows[i] & cluster for i in range(ev.n) if cluster >> i & 1]
            if all(row & mask for row in inside for mask in masks):
                good |= cluster
        return ev.dia(good, rows)
    if isinstance(phi, (Mu, Nu)):
        current = 0 if isinstance(phi, Mu) else ev.full
        for _ in range(ev.n + 2):
            step = tree_extension(ev, phi.body, {**val, phi.var: current})
            if step == current:
                return current
            current = step
        raise RuntimeError("fixpoint iteration failed to stabilize")
    raise TypeError(f"not a formula: {phi!r}")


def tangle_oracle(model: KripkeModel, world: str, members: Iterable[Formula]) -> bool:
    """Independent lasso check for the tangle clause at one world.

    Enumerates the simple cycles reachable from ``world`` and asks whether
    some cycle carries every member formula.  Exact on transitive frames;
    member formulas should themselves be tangle-free.
    """
    members = list(members)
    ev = Evaluator(model.frame)
    val = ev.valuation_masks(model.val)
    member_masks = [ev.extension(m, val) for m in members]
    n = ev.n
    start = model.frame.index[world]

    reach = 1 << start
    frontier = [start]
    while frontier:
        i = frontier.pop()
        new = ev.succ[i] & ~reach
        for j in range(n):
            if new & (1 << j):
                reach |= 1 << j
                frontier.append(j)

    # depth-first enumeration of simple cycles inside the reachable part;
    # each cycle is anchored at its least node to avoid rotations
    def cycle_masks(first: int, current: int, on_path: int):
        succ = ev.succ[current]
        if succ & (1 << first):
            yield on_path
        for j in range(first + 1, n):
            bit = 1 << j
            if succ & bit and not on_path & bit and reach & bit:
                yield from cycle_masks(first, j, on_path | bit)

    for first in range(n):
        if not reach & (1 << first):
            continue
        for cmask in cycle_masks(first, first, 1 << first):
            if all(mask & cmask for mask in member_masks):
                return True
    return False


def tree_free_atoms(phi: Formula) -> frozenset[str]:
    """The names that occur free in ``phi``."""
    if isinstance(phi, Atom):
        return frozenset((phi.name,))
    names = frozenset().union(*map(tree_free_atoms, immediate_subformulas(phi)))
    return names - {phi.var} if isinstance(phi, (Mu, Nu)) else names


def valuation_masks(atoms: Sequence[str], n: int) -> Iterator[dict[str, int]]:
    # atom-major ascending: the first atom's mask varies slowest
    for combo in itertools.product(range(1 << n), repeat=len(atoms)):
        yield dict(zip(atoms, combo))


def _world_tuples(masks: Mapping[str, int], worlds: Sequence[str]) -> dict[str, tuple[str, ...]]:
    """Each atom's mask as the worlds at its set bits, in world order."""
    return {a: tuple(w for i, w in enumerate(worlds) if m >> i & 1) for a, m in masks.items()}


def tree_frame_validates(frame, phi: Formula, budget: int = VALUATION_BUDGET) -> ValidityReport:
    atoms = sorted(free_atoms(phi))
    n = len(frame.worlds)
    space = 1 << (len(atoms) * n)
    if space > budget:
        raise BudgetExceededError(f"{space} valuations exceed the budget of {budget}")
    ev = Evaluator(frame)
    checked = 0
    for masks in valuation_masks(atoms, n):
        checked += 1
        ext = tree_extension(ev, phi, masks)
        if ext != ev.full:
            bad = next(i for i in range(n) if not ext >> i & 1)
            return ValidityReport(
                valid=False,
                checked=checked,
                witness_valuation=_world_tuples(masks, frame.worlds),
                witness_world=frame.worlds[bad],
            )
    return ValidityReport(valid=True, checked=checked)


def tree_bounded_sat(phi: Formula, profile, max_worlds: int, budget: int = SEARCH_BUDGET):
    atoms = sorted(free_atoms(phi))
    spent = 0
    for n in range(1, max_worlds + 1):
        per_frame = 1 << (len(atoms) * n)
        for frame in tree_enumerate_frames(
            n,
            serial=profile.serial,
            reflexive=profile.reflexive,
            connected=profile.connected,
            local_connectedness=profile.local_connectedness,
        ):
            spent += per_frame
            if spent > budget:
                raise BudgetExceededError(f"search budget {budget} exhausted on {n}-world frames")
            ev = Evaluator(frame)
            for masks in valuation_masks(atoms, n):
                if tree_extension(ev, phi, masks):
                    return KripkeModel(frame, _world_tuples(masks, frame.worlds))
    return None


def _canonical(rows: Sequence[int], n: int) -> bool:
    """Is this adjacency matrix the lexicographically least among its
    relabelings?"""
    base = _matrix_key(rows, range(n), n)
    for perm in itertools.permutations(range(n)):
        if _matrix_key(rows, perm, n) < base:
            return False
    return True


def _matrix_key(rows: Sequence[int], perm: Sequence[int], n: int) -> int:
    key = 0
    for i in perm:
        for j in perm:
            key = key << 1 | rows[i] >> j & 1
    return key


def tree_enumerate_frames(
    n: int,
    *,
    serial: bool = False,
    reflexive: bool = False,
    connected: bool = False,
    local_connectedness: int | None = None,
    up_to_iso: bool = True,
) -> Iterator[Frame]:
    """``logics.enumerate_frames``, isomorphic duplicates dropped for
    n <= 4 by :func:`_canonical`."""
    if n < 1:
        raise ValueError("frame size must be at least 1")
    worlds = tuple(f"w{i}" for i in range(n))
    candidates = []
    for i in range(n):
        opts = range(1, 1 << n) if serial or reflexive else range(1 << n)
        if reflexive:
            opts = [m for m in opts if m >> i & 1]
        candidates.append(list(opts))
    rows: list[int] = []

    def consistent(m: int) -> bool:
        i = len(rows)
        for j in range(i):
            if m >> j & 1 and rows[j] & ~m:
                return False
            if rows[j] >> i & 1 and m & ~rows[j]:
                return False
        return True

    def search() -> Iterator[Frame]:
        if len(rows) == n:
            if up_to_iso and n <= 4 and not _canonical(rows, n):
                return
            rel = frozenset(
                (worlds[i], worlds[j])
                for i in range(n)
                for j in range(n)
                if rows[i] >> j & 1
            )
            frame = Frame(worlds, rel)
            if connected and len(path_components(frame)) > 1:
                return
            if local_connectedness is not None and not locally_n_connected(
                frame, local_connectedness
            ):
                return
            yield frame
            return
        for m in candidates[len(rows)]:
            if consistent(m):
                rows.append(m)
                yield from search()
                rows.pop()

    return search()


_KEYWORDS = {"mu", "nu", "true", "false", "A", "E"}

# token kinds carrying no payload
_SYMBOLS = [
    ("<->", "IFF"),
    ("<dt>", "TANGLED"),
    ("<d>", "DIAD"),
    ("<t>", "TANGLE"),
    ("<>", "DIA"),
    ("[d]", "BOXD"),
    ("[]", "BOX"),
    ("->", "IMP"),
    ("~", "NOT"),
    ("&", "AND"),
    ("|", "OR"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    ("{", "LBRACE"),
    ("}", "RBRACE"),
    (",", "COMMA"),
    (".", "DOT"),
]

_PREFIX_KIND = {
    "NOT": Neg,
    "BOX": Box,
    "DIA": Dia,
    "BOXD": BoxD,
    "DIAD": DiaD,
    "A": Forall,
    "E": Exists,
}

# One alternative per token kind, named after it; whitespace is unnamed and
# any other character matches BAD.
_TOKEN = re.compile(
    "|".join(
        [r"(?P<ATOM>[A-Za-z_][A-Za-z0-9_]*)"]
        + [f"(?P<{kind}>{re.escape(sym)})" for sym, kind in _SYMBOLS]
        + [r"\s+", "(?P<BAD>.)"]
    ),
    re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        word = m.group()
        if kind == "ATOM":
            if word in _KEYWORDS:
                kind = word.upper()
        elif kind == "BAD":
            raise ParseError(f"unexpected character {word!r}", m.start())
        tokens.append((kind, word, m.start()))
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def formula(self) -> Formula:
        return self.iff()

    def iff(self) -> Formula:
        left = self.imp()
        if self.peek()[0] == "IFF":
            self.next()
            return Iff(left, self.iff())
        return left

    def imp(self) -> Formula:
        left = self.disj()
        if self.peek()[0] == "IMP":
            self.next()
            return Implies(left, self.imp())
        return left

    def disj(self) -> Formula:
        out = self.conj()
        while self.peek()[0] == "OR":
            self.next()
            out = Or(out, self.conj())
        return out

    def conj(self) -> Formula:
        out = self.prefix()
        while self.peek()[0] == "AND":
            self.next()
            out = And(out, self.prefix())
        return out

    def prefix(self) -> Formula:
        kind, _, pos = self.peek()
        if kind in _PREFIX_KIND:
            self.next()
            return _PREFIX_KIND[kind](self.prefix())
        if kind in ("TANGLE", "TANGLED"):
            self.next()
            self.expect("LBRACE")
            if self.peek()[0] == "RBRACE":
                raise ParseError("empty tangle braces", self.peek()[2])
            members = [self.formula()]
            while self.peek()[0] == "COMMA":
                self.next()
                members.append(self.formula())
            self.expect("RBRACE")
            return Tangle(tuple(members)) if kind == "TANGLE" else TangleD(tuple(members))
        if kind in ("MU", "NU"):
            self.next()
            var = self.expect("ATOM")[1]
            self.expect("DOT")
            body = self.formula()  # maximal scope to the right
            return Mu(var, body) if kind == "MU" else Nu(var, body)
        return self.primary()

    def primary(self) -> Formula:
        kind, value, pos = self.next()
        if kind == "ATOM":
            return Atom(value)
        if kind == "TRUE":
            return Top()
        if kind == "FALSE":
            return Bot()
        if kind == "LPAREN":
            inner = self.formula()
            self.expect("RPAREN")
            return inner
        raise ParseError(f"unexpected {value or 'end of input'!r}", pos)


def tree_parse(text: str) -> Formula:
    parser = _Parser(text)
    try:
        out = parser.formula()
    except RecursionError:
        raise FormulaError("formula nested too deeply") from None
    kind, value, pos = parser.peek()
    if kind != "EOF":
        raise ParseError(f"trailing input {value!r}", pos)
    return out


# ---------------------------------------------------------------------------
# Filtration on world sets and pair sets


def _quotient_frame(fr: FiltrationResult) -> Frame:
    return Frame(fr.quotient_worlds, fr.r_phi)


def _realized(fr: FiltrationResult, phi: Formula) -> frozenset[str]:
    if phi not in fr.source_truth:
        raise KeyError(pretty(phi))
    return frozenset(fr.quotient_map[x] for x in fr.source_truth[phi])


def _maximal_cluster_data(frame: Frame):
    dec = cluster_decomposition(frame)
    with_exit = {i for (i, _) in dec.order}
    return tuple(
        dec.clusters[i] for i in range(len(dec.clusters)) if i not in with_exit
    )


def _check_inputs(fr: FiltrationResult, m: KripkeModel, closure: ClosureSet) -> None:
    if m is not fr.source and m != fr.source:
        raise ValueError("filtration was built from a different model")
    if closure.formulas != fr.closure.formulas:
        raise ValueError("filtration was built from a different closure set")


def _check_untangling(fr: FiltrationResult, ut: UntangleResult) -> None:
    if ut.filtration is not fr and ut.filtration != fr:
        raise ValueError("untangling was built from a different filtration")


def tree_filtrate(m: KripkeModel, closure: ClosureSet, mode: str = "standard") -> FiltrationResult:
    if mode not in ("standard", "refined"):
        raise ValueError(f"unknown filtration mode {mode!r}")
    if not m.frame.transitive:
        raise NonTransitiveError("filtration needs a transitive source model")
    ev = Evaluator(m.frame)
    masks = ev.valuation_masks(m.val)
    ordered = closure.sorted()
    source_truth = {f: ev.frame.unmask(tree_extension(ev, f, masks)) for f in ordered}
    maximal = _maximal_cluster_data(m.frame)

    def signature(w: str):
        profile = tuple(w in source_truth[f] for f in ordered)
        if mode != "refined":
            return profile
        return profile, tuple(c <= m.frame.successors(w) for c in maximal)

    quotient_map: dict[str, str] = {}
    classes: list[list[str]] = []
    ids: dict[object, int] = {}
    for w in m.frame.worlds:
        sig = signature(w)
        if sig not in ids:
            ids[sig] = len(classes)
            classes.append([])
        classes[ids[sig]].append(w)
        quotient_map[w] = f"c{ids[sig]}"

    quotient_worlds = tuple(f"c{i}" for i in range(len(classes)))
    r_lambda = frozenset(
        (quotient_map[x], quotient_map[y]) for (x, y) in m.frame.rel
    )
    r_phi = closures(Frame(quotient_worlds, r_lambda)).transitive.rel
    quotient_val = {
        a: tuple(
            w
            for w in quotient_worlds
            if any(x in source_truth[Atom(a)] for x in classes[int(w[1:])])
        )
        for a in sorted(closure.atoms)
    }
    return FiltrationResult(
        mode=mode,
        closure=closure,
        quotient_worlds=quotient_worlds,
        classes=tuple(tuple(c) for c in classes),
        quotient_map=quotient_map,
        r_lambda=r_lambda,
        r_phi=r_phi,
        quotient_val=quotient_val,
        source_truth=source_truth,
        maximal_clusters=maximal,
        source=m,
    )


def tree_untangle(
    fr: FiltrationResult, m: KripkeModel, closure: ClosureSet, reflexive_mode: bool = False
) -> UntangleResult:
    _check_inputs(fr, m, closure)
    quotient = _quotient_frame(fr)
    dec = cluster_decomposition(quotient)
    tangles = closure.tangle_members
    member_realized = {g: _realized(fr, g) for f in tangles for g in f.members}
    succ_q = {
        w: frozenset(fr.quotient_map[z] for z in m.frame.successors(w))
        for w in m.frame.worlds
    }

    clusters, critical, nuclei = [], [], []
    for cluster in dec.clusters:
        chosen = None
        for y in m.frame.worlds:
            if fr.quotient_map[y] not in cluster:
                continue
            inside = succ_q[y] & cluster
            if all(
                any(not (member_realized[g] & inside) for g in f.members)
                for f in tangles
                if y not in fr.source_truth[f]
            ):
                chosen = y
                break
        if chosen is None:
            raise CriticalPointError(
                "no critical point for cluster {" + ", ".join(sorted(cluster)) + "}; "
                "the source model is not a transitive model of this closure"
            )
        clusters.append(cluster)
        critical.append(chosen)
        nuclei.append(succ_q[chosen] & cluster)

    index_of = {w: i for i, c in enumerate(clusters) for w in c}
    r_t = set()
    for (u, v) in fr.r_phi:
        if index_of[u] != index_of[v]:
            r_t.add((u, v))
        elif v in nuclei[index_of[u]]:
            r_t.add((u, v))
        elif reflexive_mode and u == v:
            r_t.add((u, v))
    return UntangleResult(
        reflexive_mode=reflexive_mode,
        quotient_worlds=fr.quotient_worlds,
        clusters=tuple(clusters),
        critical_points=tuple(critical),
        nuclei=tuple(nuclei),
        r_t=frozenset(r_t),
        filtration=fr,
    )


def tree_verify_reduction(
    fr: FiltrationResult, ut: UntangleResult, m: KripkeModel, closure: ClosureSet
) -> ReductionReport:
    _check_inputs(fr, m, closure)
    _check_untangling(fr, ut)
    model_t = KripkeModel(Frame(ut.quotient_worlds, ut.r_t), fr.quotient_val)
    ev = Evaluator(model_t.frame)
    masks = ev.valuation_masks(model_t.val)
    checked = 0
    ordered = closure.sorted()
    # every extension first, so a tangle on a forged intransitive relation
    # raises before any mismatch is reported
    exts = [ev.frame.unmask(tree_extension(ev, f, masks)) for f in ordered]
    for f, ext in zip(ordered, exts):
        for x in m.frame.worlds:
            checked += 1
            expected = x in fr.source_truth[f]
            actual = fr.quotient_map[x] in ext
            if expected != actual:
                return ReductionReport(False, checked, (f, x, expected, actual))
    return ReductionReport(True, checked, None)


def tree_reduction_conditions(
    fr: FiltrationResult, m: KripkeModel, closure: ClosureSet
) -> list[str]:
    _check_inputs(fr, m, closure)
    out: list[str] = []
    truth = fr.source_truth
    worlds = m.frame.worlds
    quotient = _quotient_frame(fr)
    image = fr.quotient_map
    related = fr.r_phi

    for a in sorted(closure.atoms):
        held = frozenset(fr.quotient_val.get(a, ()))
        for x in worlds:
            if (x in truth[Atom(a)]) != (fr.quotient_map[x] in held):
                out.append(f"valuation of {a} disagrees between {x} and its class")
    ordered = closure.sorted()
    for cls in fr.classes:
        rep = cls[0]
        for x in cls[1:]:
            if any((rep in truth[f]) != (x in truth[f]) for f in ordered):
                out.append(f"class of {rep} mixes worlds with different profiles")
                break
    for x, y in sorted(m.frame.rel, key=lambda p: (m.frame.index[p[0]], m.frame.index[p[1]])):
        if (image[x], image[y]) not in related:
            out.append(f"edge {x}->{y} is lost in the quotient")

    tangles = closure.tangle_members
    diamonds = [f for f in closure.diamond_members if isinstance(f, Dia)]
    for x in worlds:
        for y in worlds:
            if (image[x], image[y]) not in related:
                continue
            for f in tangles:
                if y in truth[f] and x not in truth[f]:
                    out.append(
                        f"{pretty(f)} holds at {y} but not at {x} across the quotient"
                    )
            for f in diamonds:
                if (y in truth[f] or y in truth[f.sub]) and x not in truth[f]:
                    out.append(
                        f"{pretty(f)} fails at {x} despite its body holding from {y}"
                    )

    bound = 2 ** len(closure)
    if fr.mode == "refined":
        bound *= 2 ** len(fr.maximal_clusters)
    if len(fr.quotient_worlds) > bound:
        out.append(
            f"{len(fr.quotient_worlds)} quotient worlds exceed the bound {bound}"
        )

    dec = cluster_decomposition(quotient)
    watched = tuple(tangles) + tuple(closure.diamond_members)
    for cluster in dec.clusters:
        reps = sorted(cluster)
        first = frozenset(f for f in watched if reps[0] in _realized(fr, f))
        for w in reps[1:]:
            got = frozenset(f for f in watched if w in _realized(fr, f))
            if got != first:
                out.append(
                    f"cluster of {reps[0]} mixes worlds realising different"
                    " tangle or diamond members"
                )
                break
    return out


# ---------------------------------------------------------------------------
# Characteristic formulas on world sets


def _subsets(alphabet: tuple[Formula, ...]) -> Iterator[frozenset[Formula]]:
    for bits in range(1 << len(alphabet)):
        yield frozenset(a for i, a in enumerate(alphabet) if bits >> i & 1)


def _local_components(frame: Frame, w: str) -> tuple[frozenset[str], ...]:
    """Path components of the successors of ``w``, joined only by pairs
    that stay among them."""
    inside = frame.successors(w)
    if not inside:
        return ()
    worlds = tuple(v for v in frame.worlds if v in inside)
    pairs = frozenset(p for p in frame.rel if p[0] in inside and p[1] in inside)
    return path_components(Frame(worlds, pairs))


def tree_characteristic_formulas(m: KripkeModel, closure: ClosureSet) -> AtomicTypeData:
    frame = m.frame
    if not frame.transitive:
        raise NonTransitiveError("characteristic formulas need a transitive model")
    alphabet: tuple[Formula, ...] = tuple(
        sorted((Atom(a) for a in closure.atoms), key=pretty)
    ) + (Dia(Top()),)
    if len(alphabet) > 10:
        raise ValueError(
            f"an alphabet of {len(alphabet)} members would need"
            f" {2 ** len(alphabet)} conjuncts per cluster formula"
        )

    ev = Evaluator(frame)
    masks = ev.valuation_masks(m.val)
    ext = {a: ev.frame.unmask(ev.extension(a, masks)) for a in alphabet}
    type_of = {w: frozenset(a for a in alphabet if w in ext[a]) for w in frame.worlds}

    dec = cluster_decomposition(frame)
    cluster_types = tuple(frozenset(type_of[w] for w in c) for c in dec.clusters)
    with_exit = {i for (i, _) in dec.order}
    maximal = tuple(i for i in range(len(dec.clusters)) if i not in with_exit)
    sees_maximal = {
        w: tuple(i for i in maximal if dec.clusters[i] <= frame.successors(w))
        for w in frame.worlds
    }

    def chi(s: frozenset[Formula]) -> Formula:
        return conj(a if a in s else Neg(a) for a in alphabet)

    def alpha(i: int) -> Formula:
        return conj(
            dia_star(chi(s)) if s in cluster_types[i] else Neg(dia_star(chi(s)))
            for s in _subsets(alphabet)
        )

    cluster_formula = {i: alpha(i) for i in maximal}
    sees_cluster_formula = {i: Dia(box_star(cluster_formula[i])) for i in maximal}

    ordered = closure.sorted()
    closure_truth = {f: ev.frame.unmask(ev.extension(f, masks)) for f in ordered}
    profile_formula = {
        w: conj(f if w in closure_truth[f] else Neg(f) for f in ordered)
        for w in frame.worlds
    }
    class_formula = {
        w: And(
            profile_formula[w],
            conj(
                sees_cluster_formula[i] if i in sees_maximal[w] else Neg(sees_cluster_formula[i])
                for i in maximal
            ),
        )
        for w in frame.worlds
    }
    component_formulas = {
        x: tuple(
            (comp, disj(sees_cluster_formula[i] for i in maximal if dec.clusters[i] <= comp))
            for comp in _local_components(frame, x)
        )
        for x in frame.worlds
    }
    signature_of = {
        w: (frozenset(f for f in ordered if w in closure_truth[f]), sees_maximal[w])
        for w in frame.worlds
    }
    data = AtomicTypeData(
        alphabet=alphabet,
        type_of=type_of,
        cluster_types=cluster_types,
        maximal_clusters=maximal,
        sees_maximal=sees_maximal,
        cluster_formula=cluster_formula,
        sees_cluster_formula=sees_cluster_formula,
        profile_formula=profile_formula,
        class_formula=class_formula,
        component_formulas=component_formulas,
        report=None,
    )
    report = _verify_characteristics(data, m, ev, masks, dec, signature_of)
    return dataclasses.replace(data, report=report)


def _verify_characteristics(
    data: AtomicTypeData,
    m: KripkeModel,
    ev: Evaluator,
    masks: Mapping[str, int],
    dec,
    signature_of: Mapping[str, object],
) -> CharacteristicReport:
    """The report on ``data``, every field but ``report`` filled in, each
    formula evaluated on its own."""
    def holds(f: Formula) -> frozenset[str]:
        return ev.frame.unmask(ev.extension(f, masks))

    worlds = m.frame.worlds
    maximal, cluster_types = data.maximal_clusters, data.cluster_types
    sees_maximal = data.sees_maximal
    notes: list[str] = []
    types_distinct = len({cluster_types[i] for i in maximal}) == len(maximal)
    serial = frozenset(w for w in worlds if m.frame.successors(w))
    reachable_serial = all(m.frame.successors(w) <= serial for w in worlds)

    type_description_ok = all(
        holds(conj(a if a in s else Neg(a) for a in data.alphabet))
        == frozenset(w for w in worlds if data.type_of[w] == s)
        for s in _subsets(data.alphabet)
    )

    maximal_worlds = frozenset(w for i in maximal for w in dec.clusters[i])
    by_type = True
    sharp_membership = True
    for i in maximal:
        got = holds(data.cluster_formula[i]) & maximal_worlds
        same_type = frozenset(
            w for j in maximal if cluster_types[j] == cluster_types[i] for w in dec.clusters[j]
        )
        if got != same_type:
            by_type = False
        if got != dec.clusters[i]:
            sharp_membership = False

    scope_by_type = True
    sharp_scope = True
    for i in maximal:
        got = holds(data.sees_cluster_formula[i])
        same_type = frozenset(
            w for w in worlds if any(cluster_types[j] == cluster_types[i] for j in sees_maximal[w])
        )
        exact = frozenset(w for w in worlds if i in sees_maximal[w])
        if got != same_type:
            scope_by_type = False
        if got != exact:
            sharp_scope = False

    sharp_class = all(
        holds(data.class_formula[x])
        == frozenset(y for y in worlds if signature_of[y] == signature_of[x])
        for x in worlds
    )

    cover_ok = True
    sharp_component = True
    for x in worlds:
        for comp, f in data.component_formulas[x]:
            got = holds(f) & m.frame.successors(x)
            if comp & serial - got:
                cover_ok = False
            if got != comp:
                sharp_component = False

    if not types_distinct:
        notes.append(
            "two maximal clusters share a type set, so formulas can only"
            " identify type sets, not individual clusters"
        )
    if not reachable_serial:
        notes.append(
            "a reachable world has no successors, so no diamond can place"
            " it in its path component"
        )
    applicable = types_distinct
    return CharacteristicReport(
        types_distinct=types_distinct,
        reachable_serial=reachable_serial,
        type_description_ok=type_description_ok,
        maximal_membership_by_type=by_type,
        cluster_scope_by_type=scope_by_type,
        component_cover_ok=cover_ok,
        maximal_membership_sharp=sharp_membership if applicable else None,
        cluster_scope_sharp=sharp_scope if applicable else None,
        class_formula_sharp=sharp_class if applicable else None,
        component_formula_sharp=(
            sharp_component if applicable and reachable_serial else None
        ),
        notes=tuple(notes),
    )


def _tree_neg(phi: Formula) -> Formula:
    """Negate, collapsing a double negation."""
    return phi.sub if isinstance(phi, Neg) else Neg(phi)


def _tree_exclusive(parts: Sequence[Formula], i: int) -> Formula:
    """The i-th member of a pairwise exclusion family: parts[i] and not the
    others.  Duplicate conjuncts (as arise when one part is the negation of
    another) are dropped, so the single-atom instances come out in their
    familiar short form."""
    seen: set[str] = set()
    kept: list[Formula] = []
    for f in [parts[i]] + [_tree_neg(parts[j]) for j in range(len(parts)) if j != i]:
        key = pretty(f)
        if key not in seen:
            seen.add(key)
            kept.append(f)
    return conj(kept)


_tree_G_RE = re.compile(r"^G([1-9]\d*)(d?)$")


def _tree_members_arg(args: tuple, schema: str) -> tuple[Formula, ...]:
    if not args or isinstance(args[0], Formula):
        raise SchemaError(f"schema '{schema}' wants a set of member formulas first")
    members = tuple(args[0])
    if not members or not all(isinstance(f, Formula) for f in members):
        raise SchemaError(f"schema '{schema}' wants a non-empty set of formulas")
    return members


def _tree_formulas(args: tuple, k: int, schema: str) -> tuple[Formula, ...]:
    if len(args) != k or not all(isinstance(f, Formula) for f in args):
        noun = "formula" if k == 1 else "formulas"
        raise SchemaError(f"schema '{schema}' takes exactly {k} {noun}")
    return args


def tree_instantiate(schema: str, *args) -> Formula:
    """Build one instance of a named axiom schema, one branch per schema.

    Plain schemas take formulas: K(a, b), 4(a), T(a), U(a), C(a), D().
    Tangle schemas take a member set first: Fix(members, gamma=None),
    Ind(members, a), 4t(members), Tt(members).  Gn takes n+1 formulas
    (default: atoms p0..pn); G1d is the derivative-language variant.
    """
    if schema == "K":
        a, b = _tree_formulas(args, 2, schema)
        return Implies(Box(Implies(a, b)), Implies(Box(a), Box(b)))
    if schema == "4":
        (a,) = _tree_formulas(args, 1, schema)
        return Implies(Dia(Dia(a)), Dia(a))
    if schema == "T":
        (a,) = _tree_formulas(args, 1, schema)
        return Implies(Box(a), a)
    if schema == "D":
        if args:
            raise SchemaError("schema 'D' takes no arguments")
        return Dia(Top())
    if schema == "U":
        (a,) = _tree_formulas(args, 1, schema)
        return Implies(Forall(a), Box(a))
    if schema == "C":
        (a,) = _tree_formulas(args, 1, schema)
        return Implies(
            Forall(disj([box_star(a), box_star(Neg(a))])),
            disj([Forall(a), Forall(Neg(a))]),
        )
    if schema == "Fix":
        members = _tree_members_arg(args, schema)
        t = Tangle(members)
        if len(args) == 2:
            gamma = args[1]
            if not isinstance(gamma, Formula):
                raise SchemaError("schema 'Fix' wants a single member formula second")
            return Implies(t, Dia(And(gamma, t)))
        if len(args) != 1:
            raise SchemaError("schema 'Fix' takes a member set and optionally one member")
        return conj([Implies(t, Dia(And(g, t))) for g in t.members])
    if schema == "Ind":
        members = _tree_members_arg(args, schema)
        if len(args) != 2 or not isinstance(args[1], Formula):
            raise SchemaError("schema 'Ind' takes a member set and one formula")
        phi = args[1]
        t = Tangle(members)
        step = Implies(phi, conj([Dia(And(g, phi)) for g in t.members]))
        return Implies(box_star(step), Implies(phi, t))
    if schema == "4t":
        members = _tree_members_arg(args, schema)
        if len(args) != 1:
            raise SchemaError("schema '4t' takes just a member set")
        t = Tangle(members)
        return Implies(Dia(t), t)
    if schema == "Tt":
        members = _tree_members_arg(args, schema)
        if len(args) != 1:
            raise SchemaError("schema 'Tt' takes just a member set")
        t = Tangle(members)
        return Implies(conj(t.members), t)

    m = _tree_G_RE.match(schema)
    if m:
        n = int(m.group(1))
        derivative = bool(m.group(2))
        if derivative and n != 1:
            raise SchemaError("only G1 has a derivative-language form")
        parts: tuple[Formula, ...]
        if args:
            parts = _tree_formulas(args, n + 1, schema)
        else:
            parts = tuple(Atom(f"p{i}") for i in range(n + 1))
        qs = [_tree_exclusive(parts, i) for i in range(n + 1)]
        if derivative:
            return Implies(
                BoxD(disj([Box(q) for q in qs])),
                disj([BoxD(_tree_neg(q)) for q in qs]),
            )
        return Implies(
            conj([Dia(q) for q in qs]),
            Dia(conj([dia_star(_tree_neg(q)) for q in qs])),
        )
    raise SchemaError(f"unknown schema '{schema}'")


def tree_to_mu(phi: Formula) -> Formula:
    """Replace every tangle by its greatest-fixpoint encoding, one
    recursive call per node of the tree."""
    fresh = fresh_names(all_names(phi))

    def walk(f: Formula) -> Formula:
        if isinstance(f, (Tangle, TangleD)):
            q = next(fresh)
            step = Dia if isinstance(f, Tangle) else DiaD
            body = conj(step(And(walk(m), Atom(q))) for m in f.members)
            return Nu(q, body)
        subs = []
        for sub in immediate_subformulas(f):
            subs.append(walk(sub))
        return rebuild(f, subs)

    return walk(phi)


_TREE_STAR_FRAGMENT = (Atom, Top, Bot, Neg, And, Or, Implies, Iff, Mu, Nu)


def tree_star(phi: Formula) -> Formula:
    """Reflexive-transitive rewriting of the box/fixpoint fragment, one
    recursive call per node of the tree."""
    fresh = fresh_names(all_names(phi))

    def walk(f: Formula) -> Formula:
        if isinstance(f, Box):
            q = next(fresh)
            return Nu(q, And(walk(f.sub), Box(Atom(q))))
        if isinstance(f, Dia):
            # diamond is the negated box of the negation
            return Neg(walk(Box(Neg(f.sub))))
        if not isinstance(f, _TREE_STAR_FRAGMENT):
            raise TranslationError(
                f"operator outside the box/fixpoint fragment: {f}"
            )
        subs = []
        for sub in immediate_subformulas(f):
            subs.append(walk(sub))
        return rebuild(f, subs)

    return walk(phi)
