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
    all_names,
    conj,
    fresh_names,
    immediate_subformulas,
    post_order,
    rebuild,
)


class TranslationError(ValueError):
    """The input lies outside the fragment a translation is defined on."""


def to_mu(phi: Formula) -> Formula:
    """Replace every tangle by its greatest-fixpoint encoding."""
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

    def walk(f: Formula) -> Formula:
        if isinstance(f, Box):
            q = next(fresh)
            return Nu(q, And(walk(f.sub), Box(Atom(q))))
        if isinstance(f, Dia):
            # diamond is the negated box of the negation
            return Neg(walk(Box(Neg(f.sub))))
        if not isinstance(f, _STAR_FRAGMENT):
            raise TranslationError(
                f"operator outside the box/fixpoint fragment: {f}"
            )
        subs = []
        for sub in immediate_subformulas(f):
            subs.append(walk(sub))
        return rebuild(f, subs)

    return walk(phi)
