"""Filtration of finite transitive models and the untangling construction.

The standard filtration collapses worlds that agree on every formula of a
subformula-closed set, then takes the transitive closure of the induced
relation.  The refined variant additionally separates worlds that see
different collections of maximal clusters, which keeps the quotient locally
n-connected when the source is.

Untangling breaks each quotient cluster into a nucleus plus degenerate
satellites so that tangle formulas become true exactly where they were true
in the source.  The nucleus is chosen through a critical point: a source
world whose false tangles each have a member avoided by everything the
world sees inside the cluster.  On finite transitive inputs a critical
point always exists, so a failed search signals a broken precondition.

The characteristic-formula toolkit builds, for a finite atom alphabet, the
formulas that describe atomic types, maximal clusters, which clusters a
world sees, and path components of successor sets.  Their defining
properties are checked on the given model in one compiled program, as
comparisons of world masks; the sharp forms only hold when distinct
maximal clusters carry distinct type sets, so the report records which
checks were applicable.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_

from .formula import (
    And,
    Atom,
    ClosureSet,
    Dia,
    Formula,
    Neg,
    Top,
    box_star,
    conj,
    dia_star,
    disj,
    pretty,
)
from .kripke import (
    Evaluator,
    Frame,
    KripkeModel,
    NonTransitiveError,
    _bits,
    _columns,
    _first,
    _local_components,
    _maximal_clusters,
    _Pairs,
    _picked,
    _row_owners,
    _transitive_rows,
    _union,
    min_local_connectedness,
    path_components,
    relation_properties,
)


class CriticalPointError(ValueError):
    """No world of a quotient cluster satisfied the avoidance condition."""


# ---------------------------------------------------------------------------
# Filtration


@dataclass(frozen=True)
class FiltrationResult:
    """Quotient of a finite transitive model by agreement on a closure set.

    ``classes[i]`` lists the source worlds mapped to ``quotient_worlds[i]``;
    ``r_phi`` is the transitive closure of the induced relation ``r_lambda``;
    :func:`filtrate` keeps both as rows, spelled out as pairs on first read.
    ``maximal_clusters`` describes the source model and is recorded in both
    modes; only refined mode folds the worlds that see each maximal cluster
    into the quotient signature.  The quotient frame and the mask views
    (``_image``, ``_preimages``, ``_truth`` and ``_realized``, which
    :meth:`realized` reads) are computed from these fields on first use, so a
    ``dataclasses.replace`` copy sees its own fields.  ``source`` is the
    model it was built from; the constructions that take the model again
    refuse any other.
    """

    mode: str
    closure: ClosureSet
    quotient_worlds: tuple[str, ...]
    classes: tuple[tuple[str, ...], ...]
    quotient_map: dict[str, str]
    r_lambda: frozenset[tuple[str, str]] = _Pairs()
    r_phi: frozenset[tuple[str, str]] = _Pairs()
    quotient_val: dict[str, tuple[str, ...]]
    source_truth: dict[Formula, frozenset[str]]
    maximal_clusters: tuple[frozenset[str], ...]
    source: KripkeModel

    @cached_property
    def _frame(self) -> Frame:
        return Frame(self.quotient_worlds, self.r_phi)

    @cached_property
    def _image(self) -> list[int]:
        """Per world of the source frame, the bit of its quotient world's
        position in ``quotient_worlds``."""
        bit = {w: 1 << i for i, w in enumerate(self.quotient_worlds)}
        return [bit[self.quotient_map[x]] for x in self.source.frame.worlds]

    @cached_property
    def _preimages(self) -> tuple[int, ...]:
        """Per quotient world, the mask of the source worlds mapped there."""
        return _columns(self._image, len(self.quotient_worlds))

    @cached_property
    def _truth(self) -> dict[Formula, int]:
        """Per closure member, the mask of the source worlds that make it true."""
        mask = self.source.frame.mask
        return {f: mask(ws) for f, ws in self.source_truth.items()}

    @cached_property
    def _realized(self) -> dict[Formula, int]:
        """Per closure member, the mask over ``quotient_worlds`` of the
        quotient worlds some member of whose class makes it true."""
        return {f: _union(self._image, t) for f, t in self._truth.items()}

    def filtered_frame(self) -> Frame:
        return self._frame

    def filtered_model(self) -> KripkeModel:
        return KripkeModel(self.filtered_frame(), self.quotient_val)

    def realized(self, phi: Formula) -> frozenset[str]:
        """Quotient worlds whose class members make ``phi`` true."""
        if phi not in self.source_truth:
            raise KeyError(pretty(phi))
        return frozenset(_picked(self.quotient_worlds, self._realized[phi]))


def filtrate(
    m: KripkeModel, closure: ClosureSet, mode: str = "standard"
) -> FiltrationResult:
    """Collapse ``m`` by agreement on ``closure``.

    In ``standard`` mode two worlds are identified when they make exactly
    the same closure members true.  In ``refined`` mode they must also see
    exactly the same maximal clusters.  The quotient relation is the
    transitive closure of the image of the source relation, so the result
    is always transitive.  Open fixpoint variables in closure members are
    read as atoms, false wherever the valuation is silent.
    """
    if mode not in ("standard", "refined"):
        raise ValueError(f"unknown filtration mode {mode!r}")
    frame = m.frame
    if not frame.transitive:
        raise NonTransitiveError("filtration needs a transitive source model")

    ev = Evaluator(frame)
    ordered = closure.sorted()
    exts = ev.extensions(ordered, ev.valuation_masks(m.val))
    maximal = _maximal_clusters(frame)
    # A world's signature is its column of the splitting masks: the extensions,
    # and in refined mode the worlds that see each maximal cluster.
    n = len(frame.worlds)
    splitters = list(exts)
    if mode == "refined":
        splitters += [frame.pred[_first(mask)] for _, mask in maximal]
    ids: dict[int, int] = {}
    class_of = [ids.setdefault(sig, len(ids)) for sig in _columns(splitters, n)]

    quotient_worlds = tuple(f"c{k}" for k in range(len(ids)))
    parts = tuple(_row_owners(class_of).values())
    image_bit = [1 << k for k in class_of]
    r_lambda_rows = [_union(image_bit, _union(frame.succ, part)) for part in parts]
    quotient = Frame.from_rows(quotient_worlds, _transitive_rows(r_lambda_rows))
    realized = {f: _union(image_bit, e) for f, e in zip(ordered, exts)}
    fr = FiltrationResult(
        mode=mode,
        closure=closure,
        quotient_worlds=quotient_worlds,
        classes=tuple(tuple(_picked(frame.worlds, p)) for p in parts),
        quotient_map=dict(zip(frame.worlds, map(quotient_worlds.__getitem__, class_of))),
        r_lambda=Frame.from_rows(quotient_worlds, r_lambda_rows),
        r_phi=quotient,
        quotient_val={
            a: tuple(_picked(quotient_worlds, realized[Atom(a)])) for a in sorted(closure.atoms)
        },
        source_truth={f: frame.unmask(e) for f, e in zip(ordered, exts)},
        maximal_clusters=tuple(frame.unmask(mask) for _, mask in maximal),
        source=m,
    )
    fr.__dict__.update(
        _frame=quotient, _image=image_bit, _preimages=parts, _truth=dict(zip(ordered, exts)),
        _realized=realized,
    )
    return fr


def _check_inputs(fr: FiltrationResult, m: KripkeModel, closure: ClosureSet) -> None:
    if m is not fr.source and m != fr.source:
        raise ValueError("filtration was built from a different model")
    if closure.formulas != fr.closure.formulas:
        raise ValueError("filtration was built from a different closure set")


# ---------------------------------------------------------------------------
# Untangling


@dataclass(frozen=True)
class UntangleResult:
    """Refinement of the quotient relation that restores tangle truth.

    ``clusters``, ``critical_points`` and ``nuclei`` are aligned: entry i
    holds one quotient cluster, the source world chosen for it, and the
    quotient worlds the critical point sees inside it.  Degenerate clusters
    always get an empty nucleus.  In ``reflexive_mode`` the worlds outside
    each nucleus keep their self-loop instead of becoming degenerate.
    :func:`untangle` keeps ``r_t`` as rows, spelled out as pairs on first read.
    ``filtration`` is the filtration it was built from; the constructions
    that take the filtration again refuse any other.  It is compared but
    not hashed, since a filtration holds dicts.
    """

    reflexive_mode: bool
    quotient_worlds: tuple[str, ...]
    clusters: tuple[frozenset[str], ...]
    critical_points: tuple[str, ...]
    nuclei: tuple[frozenset[str], ...]
    r_t: frozenset[tuple[str, str]] = _Pairs()
    filtration: FiltrationResult = field(hash=False)

    @cached_property
    def _frame(self) -> Frame:
        return Frame(self.quotient_worlds, self.r_t)

    def untangled_frame(self) -> Frame:
        return self._frame

    def untangled_model(self, fr: FiltrationResult) -> KripkeModel:
        _check_untangling(fr, self)
        return KripkeModel(self.untangled_frame(), fr.quotient_val)


def _check_untangling(fr: FiltrationResult, ut: UntangleResult) -> None:
    if ut.filtration is not fr and ut.filtration != fr:
        raise ValueError("untangling was built from a different filtration")


def untangle(
    fr: FiltrationResult,
    m: KripkeModel,
    closure: ClosureSet,
    reflexive_mode: bool = False,
) -> UntangleResult:
    """Split each quotient cluster into a nucleus and satellites.

    For every cluster of the filtered frame the search walks the source
    worlds mapped into it, in model order, and keeps the first critical
    point: a world such that each tangle member of the closure that is
    false at it has some member formula realised at none of the quotient
    worlds it sees inside the cluster.  The nucleus collects exactly those
    seen quotient worlds, and the new relation keeps all inter-cluster
    pairs, relates the whole cluster to its nucleus, and nothing else,
    except that ``reflexive_mode`` keeps self-loops outside the nucleus.
    """
    _check_inputs(fr, m, closure)
    frame, quotient = m.frame, fr.filtered_frame()
    clusters = quotient.cluster_masks
    image, preimages = fr._image, fr._preimages
    tangles = [(fr._truth[f], [fr._realized[g] for g in f.members]) for f in closure.tangle_members]

    rows = list(quotient.succ)
    critical: list[str] = []
    nuclei: list[frozenset[str]] = []
    for cluster in clusters:
        for y in _bits(_union(preimages, cluster)):
            inside = _union(image, frame.succ[y]) & cluster
            if all(
                any(not realized & inside for realized in members)
                for truth, members in tangles
                if not truth >> y & 1
            ):
                break
        else:
            raise CriticalPointError(
                "no critical point for cluster {"
                + ", ".join(sorted(quotient.unmask(cluster))) + "}; "
                "the source model is not a transitive model of this closure"
            )
        critical.append(frame.worlds[y])
        nuclei.append(quotient.unmask(inside))
        for i in _bits(cluster):
            keep = ~cluster | inside | (1 << i if reflexive_mode else 0)
            rows[i] &= keep
    untangled = Frame.from_rows(quotient.worlds, rows)
    ut = UntangleResult(
        reflexive_mode=reflexive_mode,
        quotient_worlds=fr.quotient_worlds,
        clusters=tuple(map(quotient.unmask, clusters)),
        critical_points=tuple(critical),
        nuclei=tuple(nuclei),
        r_t=untangled,
        filtration=fr,
    )
    ut.__dict__["_frame"] = untangled
    return ut


# ---------------------------------------------------------------------------
# Reduction checks


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of replaying the closure on the untangled quotient.

    ``failure`` holds the first mismatch as (formula, source world,
    truth in the source, truth at its quotient image); ``checked`` counts
    the world-formula pairs examined before stopping.
    """

    ok: bool
    checked: int
    failure: tuple[Formula, str, bool, bool] | None


def verify_reduction(
    fr: FiltrationResult,
    ut: UntangleResult,
    m: KripkeModel,
    closure: ClosureSet,
) -> ReductionReport:
    """Check that closure members are true on the untangled model exactly
    at the images of the source worlds where they are true."""
    _check_inputs(fr, m, closure)
    frame, model_t = m.frame, ut.untangled_model(fr)
    ev = Evaluator(model_t.frame)
    ordered = closure.sorted()
    exts = ev.extensions(ordered, ev.valuation_masks(model_t.val))
    checked = 0
    for f, ext in zip(ordered, exts):
        expected = fr._truth[f]
        wrong = expected ^ _union(fr._preimages, ext)
        if wrong:
            i = _first(wrong)
            truth = bool(expected >> i & 1)
            return ReductionReport(False, checked + i + 1, (f, frame.worlds[i], truth, not truth))
        checked += len(frame.worlds)
    return ReductionReport(True, checked, None)


def reduction_conditions(
    fr: FiltrationResult, m: KripkeModel, closure: ClosureSet
) -> list[str]:
    """Violations of the quotient bookkeeping conditions, as messages.

    Checks the valuation agreement, class coherence, relation image,
    truth transfer along the quotient relation, the cardinality bound,
    and that quotient cluster mates realise the same tangle and diamond
    members.  An empty list means the construction is sound.
    """
    _check_inputs(fr, m, closure)
    out: list[str] = []
    frame = m.frame
    worlds = frame.worlds
    truth = fr._truth
    quotient = fr.filtered_frame()
    # per source world, the source worlds whose images its image sees
    seen = [_union(fr._preimages, _union(quotient.succ, bit)) for bit in fr._image]

    for a in sorted(closure.atoms):
        held = frozenset(fr.quotient_val.get(a, ()))
        wrong = truth[Atom(a)] ^ frame.mask(x for x in worlds if fr.quotient_map[x] in held)
        for i in _bits(wrong):
            out.append(f"valuation of {a} disagrees between {worlds[i]} and its class")
    profile = [truth[f] for f in closure.sorted()]
    for cls in fr.classes:
        members = frame.mask(cls)
        if any(t & members not in (0, members) for t in profile):
            out.append(f"class of {cls[0]} mixes worlds with different profiles")
    for i, row in enumerate(frame.succ):
        for j in _bits(row & ~seen[i]):
            out.append(f"edge {worlds[i]}->{worlds[j]} is lost in the quotient")

    # truth transfer: tangles seen across the quotient relation stay true
    # at the earlier world, and so do diamonds whose body holds later
    tangles = [(f, truth[f]) for f in closure.tangle_members]
    diamonds = [
        (f, truth[f], truth[f] | truth[f.sub])
        for f in closure.diamond_members
        if isinstance(f, Dia)
    ]
    for i, x in enumerate(worlds):
        late = [(f, seen[i] & t) for f, t in tangles if not t >> i & 1]
        bodies = [(f, seen[i] & body) for f, t, body in diamonds if not t >> i & 1]
        for j in _bits(reduce(or_, (ys for _, ys in late + bodies), 0)):
            y = worlds[j]
            for f, ys in late:
                if ys >> j & 1:
                    out.append(
                        f"{pretty(f)} holds at {y} but not at {x} across the quotient"
                    )
            for f, ys in bodies:
                if ys >> j & 1:
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

    watched = [fr._realized[f] for f in (*closure.tangle_members, *closure.diamond_members)]
    for cluster in quotient.cluster_masks:
        if any(r & cluster not in (0, cluster) for r in watched):
            out.append(
                f"cluster of {min(quotient.unmask(cluster))} mixes worlds realising"
                " different tangle or diamond members"
            )
    return out


# ---------------------------------------------------------------------------
# Characteristic formulas


@dataclass(frozen=True)
class CharacteristicReport:
    """Which defining properties of the characteristic formulas held.

    The type-level checks hold on every finite transitive model.  The
    sharp checks identify clusters rather than type sets and are only
    meaningful when distinct maximal clusters have distinct type sets;
    the component check additionally needs every reachable world to have
    a successor, otherwise a world with no successors falsifies every
    diamond that is supposed to locate its component.  Inapplicable
    checks are reported as None and explained in ``notes``.
    """

    types_distinct: bool
    reachable_serial: bool
    type_description_ok: bool
    maximal_membership_by_type: bool
    cluster_scope_by_type: bool
    component_cover_ok: bool
    maximal_membership_sharp: bool | None
    cluster_scope_sharp: bool | None
    class_formula_sharp: bool | None
    component_formula_sharp: bool | None
    notes: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """True when every applicable check passed."""
        values = (
            self.type_description_ok,
            self.maximal_membership_by_type,
            self.cluster_scope_by_type,
            self.component_cover_ok,
            self.maximal_membership_sharp,
            self.cluster_scope_sharp,
            self.class_formula_sharp,
            self.component_formula_sharp,
        )
        return all(v is not False for v in values)


@dataclass(frozen=True)
class AtomicTypeData:
    """Atomic types of a model and the formulas they induce.

    The alphabet holds the closure atoms plus one diamond tracking whether
    a world has any successor.  ``type_of`` maps each world to the
    alphabet members true there.  ``cluster_formula[i]`` is true at a
    maximal world exactly when its cluster realises the same type set as
    maximal cluster i; ``sees_cluster_formula[i]`` locates the worlds that
    see some cluster with that type set.  ``class_formula[x]`` conjoins
    the closure profile of x with its view of the maximal clusters, and
    ``component_formulas[x]`` pairs each path component of the successor
    set of x with the disjunction intended to define it there.
    """

    alphabet: tuple[Formula, ...]
    type_of: dict[str, frozenset[Formula]]
    cluster_types: tuple[frozenset[frozenset[Formula]], ...]
    maximal_clusters: tuple[int, ...]
    sees_maximal: dict[str, tuple[int, ...]]
    cluster_formula: dict[int, Formula]
    sees_cluster_formula: dict[int, Formula]
    profile_formula: dict[str, Formula]
    class_formula: dict[str, Formula]
    component_formulas: dict[str, tuple[tuple[frozenset[str], Formula], ...]]
    report: CharacteristicReport


def _subsets(alphabet: tuple[Formula, ...]) -> Iterable[frozenset[Formula]]:
    return (frozenset(_picked(alphabet, bits)) for bits in range(1 << len(alphabet)))


def characteristic_formulas(m: KripkeModel, closure: ClosureSet) -> AtomicTypeData:
    """Build the type alphabet of ``m`` over ``closure`` and its formulas.

    The construction is exponential in the alphabet, which is capped at
    ten members.  All defining properties are evaluated on ``m`` in one
    program and the outcomes collected in the report; nothing is raised
    for a failed check, since the sharp ones can legitimately fail when two
    maximal clusters carry the same type set.
    """
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

    worlds, succ, pred = frame.worlds, frame.succ, frame.pred
    ev = Evaluator(frame)
    val = ev.valuation_masks(m.val)
    ordered = closure.sorted()
    exts = ev.extensions((*alphabet, *ordered), val)
    truth = exts[len(alphabet):]
    # types[t] holds alphabet[k] iff bit k of t is set; code[i] is the
    # type of world i and of_type[t] the mask of the worlds of type t, for
    # each type some world has
    types = list(_subsets(alphabet))
    code = _columns(exts[:len(alphabet)], len(worlds))
    of_type = _row_owners(code)
    type_of = dict(zip(worlds, map(types.__getitem__, code)))
    cluster_types = tuple(
        frozenset(types[code[i]] for i in _bits(c)) for c in frame.cluster_masks
    )
    found = _maximal_clusters(frame)
    maximal = tuple(c for c, _ in found)
    # per maximal cluster, the worlds that see it all, as they see its first
    sees = [pred[_first(mask)] for _, mask in found]
    sees_maximal = {
        w: tuple(c for c, s in zip(maximal, sees) if s >> i & 1) for i, w in enumerate(worlds)
    }

    chi = [conj(a if a in s else Neg(a) for a in alphabet) for s in types]
    reach = [dia_star(f) for f in chi]
    cluster_formula = {
        i: conj(r if s in cluster_types[i] else Neg(r) for s, r in zip(types, reach))
        for i in maximal
    }
    sees_cluster_formula = {i: Dia(box_star(f)) for i, f in cluster_formula.items()}
    views = [sees_cluster_formula[i] for i in maximal]
    profile_formula = {
        w: conj(f if t >> i & 1 else Neg(f) for f, t in zip(ordered, truth))
        for i, w in enumerate(worlds)
    }
    class_formula = {
        w: And(profile_formula[w], conj(v if s >> i & 1 else Neg(v) for v, s in zip(views, sees)))
        for i, w in enumerate(worlds)
    }
    # path components of each successor set, using only edges inside it
    parts = {
        row: [
            (comp, disj(v for v, (_, c) in zip(views, found) if c & ~comp == 0))
            for comp in comps
        ]
        for row, comps in _local_components(frame)
    }
    named = {row: tuple((frame.unmask(c), f) for c, f in ps) for row, ps in parts.items()}
    component_formulas = {x: named.get(row, ()) for x, row in zip(worlds, succ)}

    # A class formula spells out the closure profile and the view of the
    # maximal clusters, so worlds share one iff they share both.
    classes = _row_owners(class_formula.values())
    checked = tuple(dict.fromkeys((
        *chi, *cluster_formula.values(), *views, *classes,
        *(f for ps in parts.values() for _, f in ps),
    )))
    ext = dict(zip(checked, ev.extensions(checked, val)))

    # per type set of maximal clusters: their worlds, and the worlds that
    # see one of them
    by_type: dict[frozenset, tuple[int, int]] = {}
    for (i, mask), s in zip(found, sees):
        have, see = by_type.get(cluster_types[i], (0, 0))
        by_type[cluster_types[i]] = (have | mask, see | s)
    maximal_worlds = reduce(or_, (mask for _, mask in found), 0)
    serial = sum(1 << i for i, row in enumerate(succ) if row)
    types_distinct = len(by_type) == len(maximal)
    reachable_serial = all(row & ~serial == 0 for row in succ)
    member = [(ext[cluster_formula[i]] & maximal_worlds, i, mask) for i, mask in found]
    scope = [(ext[sees_cluster_formula[i]], i, s) for (i, _), s in zip(found, sees)]
    located = [(ext[f] & row, comp) for row, ps in parts.items() for comp, f in ps]

    notes = []
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

    def sharp(holds: bool, applicable: bool = True) -> bool | None:
        return holds if types_distinct and applicable else None

    report = CharacteristicReport(
        types_distinct=types_distinct,
        reachable_serial=reachable_serial,
        type_description_ok=all(ext[f] == of_type.get(t, 0) for t, f in enumerate(chi)),
        maximal_membership_by_type=all(
            got == by_type[cluster_types[i]][0] for got, i, _ in member
        ),
        cluster_scope_by_type=all(got == by_type[cluster_types[i]][1] for got, i, _ in scope),
        component_cover_ok=all(not comp & serial & ~got for got, comp in located),
        maximal_membership_sharp=sharp(all(got == mask for got, _, mask in member)),
        cluster_scope_sharp=sharp(all(got == s for got, _, s in scope)),
        class_formula_sharp=sharp(all(ext[f] == mask for f, mask in classes.items())),
        component_formula_sharp=sharp(
            all(got == comp for got, comp in located), reachable_serial
        ),
        notes=tuple(notes),
    )
    return AtomicTypeData(
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
        report=report,
    )


def defining_formula(
    fr: FiltrationResult, data: AtomicTypeData, subset: Iterable[str]
) -> Formula:
    """Formula true at a source world iff its image lies in ``subset``.

    Standard mode only needs the closure profiles; refined mode also pins
    the view of the maximal clusters, which is exact when the report says
    ``class_formula_sharp``.  The empty subset yields falsum.
    """
    chosen = frozenset(subset)
    stray = chosen - frozenset(fr.quotient_worlds)
    if stray:
        raise ValueError(f"not a quotient world: {sorted(stray)[0]}")
    table = (
        data.class_formula if fr.mode == "refined" else data.profile_formula
    )
    reps = [
        fr.classes[i][0]
        for i, w in enumerate(fr.quotient_worlds)
        if w in chosen
    ]
    return disj(table[r] for r in reps)


# ---------------------------------------------------------------------------
# Preservation


@dataclass(frozen=True)
class FrameProfile:
    """Structural summary of one frame."""

    serial: bool
    reflexive: bool
    connected: bool
    path_component_count: int
    local_connectedness: int


def _profile(frame: Frame) -> FrameProfile:
    props = relation_properties(frame)
    comps = path_components(frame)
    return FrameProfile(
        serial=props.serial,
        reflexive=props.reflexive,
        connected=len(comps) == 1,
        path_component_count=len(comps),
        local_connectedness=min_local_connectedness(frame),
    )


@dataclass(frozen=True)
class PreservationReport:
    """How much frame structure survived filtration and untangling.

    The ``*_preserved`` fields are None when the source lacks the
    property.  ``path_components_equal`` and ``common_successor_ok``
    compare the filtered and untangled frames and are None when the
    closure misses the successor-tracking diamond, since the guarantees
    ride on it; the reason is then listed in ``warnings``.
    """

    source: FrameProfile
    filtered: FrameProfile
    untangled: FrameProfile
    serial_preserved: bool | None
    reflexive_preserved: bool | None
    connected_preserved: bool | None
    sees_reflexive: bool | None
    path_components_equal: bool | None
    common_successor_ok: bool | None
    warnings: tuple[str, ...]


def preservation_report(
    fr: FiltrationResult, ut: UntangleResult, m: KripkeModel
) -> PreservationReport:
    _check_inputs(fr, m, fr.closure)
    _check_untangling(fr, ut)
    filtered_frame = fr.filtered_frame()
    untangled_frame = ut.untangled_frame()
    source = _profile(m.frame)
    filtered = _profile(filtered_frame)
    untangled = _profile(untangled_frame)
    warnings: list[str] = []

    tracks_successors = Dia(Top()) in fr.closure
    if not tracks_successors:
        warnings.append(
            "closure lacks <>true, so path components and joins of the"
            " two quotients need not match"
        )
    if fr.mode != "refined":
        warnings.append(
            "standard mode does not keep distinct maximal clusters apart,"
            " so local connectedness may degrade"
        )
    missing = {
        a for a in m.val if m.val[a]
    } - fr.closure.atoms
    if missing:
        warnings.append(
            "closure misses valued atoms ("
            + ", ".join(sorted(missing))
            + "), so the type alphabet cannot separate all maximal clusters"
        )

    rt = untangled_frame.succ
    serial_preserved = None
    sees_reflexive = None
    if source.serial:
        serial_preserved = filtered.serial and untangled.serial
        reflexive = sum(row & 1 << i for i, row in enumerate(rt))
        sees_reflexive = all(row & reflexive for row in rt)
    reflexive_preserved = None
    if source.reflexive:
        reflexive_preserved = filtered.reflexive and untangled.reflexive
    connected_preserved = None
    if source.connected:
        connected_preserved = filtered.connected and untangled.connected

    path_components_equal = None
    common_successor_ok = None
    if tracks_successors:
        path_components_equal = set(path_components(filtered_frame)) == set(
            path_components(untangled_frame)
        )
        # pairs related by the quotient but by neither direction of the
        # untangled relation still need a common untangled successor
        common_successor_ok = all(
            rt[u] & rt[v] or rt[v] >> u & 1
            for u, row in enumerate(filtered_frame.succ)
            for v in _bits(row & ~rt[u])
        )

    return PreservationReport(
        source=source,
        filtered=filtered,
        untangled=untangled,
        serial_preserved=serial_preserved,
        reflexive_preserved=reflexive_preserved,
        connected_preserved=connected_preserved,
        sees_reflexive=sees_reflexive,
        path_components_equal=path_components_equal,
        common_successor_ok=common_successor_ok,
        warnings=tuple(warnings),
    )
