"""Slow reference implementations that the fast paths are checked against.

``tree_extension`` is the recursive evaluator the compiled programs of
``kripke.Evaluator`` replaced: it walks the formula as a tree, evaluating a
shared subformula once per occurrence and a fixpoint body in full on every
round.  ``tree_frame_validates`` and ``tree_bounded_sat`` are the validity
sweep and the bounded search written on it.
"""

from __future__ import annotations

from typing import Mapping

from tangles import (
    And,
    Atom,
    BudgetExceededError,
    Bot,
    Box,
    BoxD,
    Dia,
    DiaD,
    Evaluator,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    KripkeModel,
    Mu,
    Neg,
    NonTransitiveError,
    Nu,
    Or,
    Tangle,
    TangleD,
    Top,
    ValidityReport,
    enumerate_frames,
    free_atoms,
)
from tangles.logics import SEARCH_BUDGET, VALUATION_BUDGET, _masks_to_val, _valuation_masks


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
        succ = ev.succ if isinstance(phi, Tangle) else ev.dsucc
        if not ev.frame.transitive:
            raise NonTransitiveError("tangle formulas require a transitive frame")
        masks = [tree_extension(ev, m, val) for m in phi.members]
        good = 0
        for cluster, rows in ev._cluster_rows(succ):
            if all(row & mask for row in rows for mask in masks):
                good |= cluster
        return ev.dia(good, succ)
    if isinstance(phi, (Mu, Nu)):
        current = 0 if isinstance(phi, Mu) else ev.full
        for _ in range(ev.n + 2):
            step = tree_extension(ev, phi.body, {**val, phi.var: current})
            if step == current:
                return current
            current = step
        raise RuntimeError("fixpoint iteration failed to stabilize")
    raise TypeError(f"not a formula: {phi!r}")


def tree_frame_validates(frame, phi: Formula, budget: int = VALUATION_BUDGET) -> ValidityReport:
    atoms = sorted(free_atoms(phi))
    n = len(frame.worlds)
    space = 1 << (len(atoms) * n)
    if space > budget:
        raise BudgetExceededError(f"{space} valuations exceed the budget of {budget}")
    ev = Evaluator(frame)
    checked = 0
    for masks in _valuation_masks(atoms, n):
        checked += 1
        ext = tree_extension(ev, phi, masks)
        if ext != ev.full:
            bad = next(i for i in range(n) if not ext >> i & 1)
            return ValidityReport(
                valid=False,
                checked=checked,
                witness_valuation=_masks_to_val(masks, frame.worlds),
                witness_world=frame.worlds[bad],
            )
    return ValidityReport(valid=True, checked=checked)


def tree_bounded_sat(phi: Formula, profile, max_worlds: int, budget: int = SEARCH_BUDGET):
    atoms = sorted(free_atoms(phi))
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
                raise BudgetExceededError(f"search budget {budget} exhausted on {n}-world frames")
            ev = Evaluator(frame)
            for masks in _valuation_masks(atoms, n):
                if tree_extension(ev, phi, masks):
                    return KripkeModel(frame, _masks_to_val(masks, frame.worlds))
    return None
