"""Translations between the tangle language, the mu-calculus, and the
derivative fragment.

``to_mu`` rewrites each tangle into its greatest-fixpoint unfolding: a fresh
variable ``q`` and the conjunction, over the member formulas, of ``<>(member
& q)`` (with ``<d>`` in place of ``<>`` for the derivative tangle).  The
result is equivalent on every transitive Kripke model and on every
topological model.

``to_d`` eliminates the closure modalities in favour of derivative ones:
``[]phi`` becomes ``phi & [d]phi``, ``<>phi`` becomes ``phi | <d>phi`` and
``<t>{D}`` becomes ``conj(D) | <d>conj(D) | <dt>{D}`` (members translated).
The result is equivalent on reflexive Kripke models, and on a topological
space exactly when every point derivative is closed.

``star`` is the reflexive-transitive reading of the box-and-fixpoint
fragment: ``[]phi`` becomes ``nu q. (phi & []q)``.  Evaluating the result
over a frame equals evaluating the input over the frame's
reflexive-transitive closure.

Fresh variables are ``_g0, _g1, ...``, skipping every identifier of the
input formula, allocated one per rewritten node in depth-first pre-order:
an outer tangle or box takes its name before the ones nested inside it.
So ``to_mu`` and ``star`` rewrite a subformula that hands out names once
per occurrence, with an explicit stack, and return one that hands out
none as it is; ``to_d`` rewrites each distinct subformula once.
"""

from __future__ import annotations

from .formula import (
    And,
    Atom,
    Bot,
    Box,
    BoxD,
    Dia,
    DiaD,
    Formula,
    Iff,
    Implies,
    Mu,
    Neg,
    Nu,
    Or,
    Tangle,
    TangleD,
    Top,
    _TANGLES,
    all_names,
    conj,
    fresh_names,
    immediate_subformulas,
    post_order,
    rebuild,
)


class TranslationError(ValueError):
    """The input lies outside the fragment a translation is defined on."""


def _rewrite(phi: Formula, keep, name, build) -> Formula:
    """Rewrite ``phi`` in pre-order, without recursion.  A node built only
    from kinds that pass ``keep`` stays as it is.  Any other node ``f``
    takes the fresh name ``q = name(f)``, which may be None, before its
    children are rewritten; then ``build(f, q, subs)`` rewrites a named
    node from its children's rewrites, and ``rebuild`` any other."""
    kept: set[Formula] = set()
    for f in post_order(phi):
        if keep(type(f)) and kept.issuperset(immediate_subformulas(f)):
            kept.add(f)
    out: list[Formula] = []
    stack: list = [phi]
    while stack:
        f = stack.pop()
        if type(f) is tuple:  # the children of f are rewritten
            f, q, cut = f
            subs = out[cut:]
            out[cut:] = [rebuild(f, subs) if q is None else build(f, q, subs)]
        elif f in kept:
            out.append(f)
        else:
            stack += [(f, name(f), len(out)), *reversed(immediate_subformulas(f))]
    return out[0]


def to_mu(phi: Formula) -> Formula:
    """Replace every tangle by its greatest-fixpoint encoding."""
    fresh = fresh_names(all_names(phi))

    def build(f: Formula, q: str, subs: list[Formula]) -> Formula:
        step = Dia if type(f) is Tangle else DiaD
        return Nu(q, conj(step(And(m, Atom(q))) for m in subs))

    return _rewrite(
        phi,
        lambda kind: kind not in _TANGLES,
        lambda f: next(fresh) if type(f) in _TANGLES else None,
        build,
    )


def to_d(phi: Formula) -> Formula:
    """Rewrite closure modalities into derivative ones, each distinct
    subformula once."""
    done: dict[Formula, Formula] = {}
    for f in post_order(phi):
        subs = [done[sub] for sub in immediate_subformulas(f)]
        if isinstance(f, Box):
            out = And(subs[0], BoxD(subs[0]))
        elif isinstance(f, Dia):
            out = Or(subs[0], DiaD(subs[0]))
        elif isinstance(f, Tangle):
            body = conj(subs)
            out = Or(Or(body, DiaD(body)), TangleD(tuple(subs)))
        else:
            out = rebuild(f, subs)
        done[f] = out
    return done[phi]


# the connectives ``star`` passes through unchanged
_STAR_FRAGMENT = (Atom, Top, Bot, Neg, And, Or, Implies, Iff, Mu, Nu)


def star(phi: Formula) -> Formula:
    """Reflexive-transitive rewriting of the box/fixpoint fragment.

    Defined on formulas built from atoms, constants, boolean connectives,
    the plain box and diamond, and the fixpoint binders; anything else
    raises :class:`TranslationError`.
    """
    fresh = fresh_names(all_names(phi))

    def name(f: Formula) -> str | None:
        if type(f) is Box or type(f) is Dia:
            return next(fresh)
        if type(f) not in _STAR_FRAGMENT:
            raise TranslationError(
                f"operator outside the box/fixpoint fragment: {f}"
            )
        return None

    def build(f: Formula, q: str, subs: list[Formula]) -> Formula:
        # a diamond is the negated box of the negation
        if type(f) is Box:
            return Nu(q, And(subs[0], Box(Atom(q))))
        return Neg(Nu(q, And(Neg(subs[0]), Box(Atom(q)))))

    return _rewrite(phi, _STAR_FRAGMENT.__contains__, name, build)
