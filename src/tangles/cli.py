"""Command line front end.

One subcommand per capability, stable machine output under
``--format structured`` (JSON with sorted keys), DOT export where a model or
frame is produced.  Exit codes: 0 success or "true", 1 a counterexample or
"false" or "not found", 2 usage errors of any kind, 3 a search budget or the
print limit of ``translate`` exceeded.  All diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .filtration import (
    FiltrationResult,
    UntangleResult,
    filtrate,
    preservation_report,
    untangle,
    verify_reduction,
)
from .formula import (
    Formula,
    free_atoms,
    parse,
    parse_members,
    pretty,
    printed_length,
    subformula_closure,
)
from .kripke import (
    Frame,
    KripkeModel,
    _row_pairs,
    cluster_decomposition,
    min_local_connectedness,
    model_check,
    model_from_dict,
    model_to_dict,
    path_components,
    relation_properties,
    to_dot,
)
from .logics import (
    BudgetExceededError,
    bounded_sat,
    figure3_constraints,
    figure3_model,
    frame_validates,
    instantiate,
    parse_profile,
)
from .topo import space_predicates, topo_model_check, topo_model_from_dict
from .translate import star, to_d, to_mu


# ---------------------------------------------------------------------------
# Input helpers.  The formula is always parsed before any model file is
# opened, so grammar mistakes surface first.


def _formula_text(args) -> str:
    inline = getattr(args, "formula", None)
    path = getattr(args, "formula_file", None)
    if (inline is None) == (path is None):
        raise ValueError("give a formula inline or via --formula-file, not both")
    if inline is not None:
        return inline
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _one_formula(args) -> Formula:
    return parse(_formula_text(args))


def _root_formulas(args) -> list[Formula]:
    """Closure roots: inline arguments, or one formula per nonblank line."""
    inline = getattr(args, "formulas", None)
    path = getattr(args, "formula_file", None)
    if bool(inline) == bool(path):
        raise ValueError("give formulas inline or via --formula-file, not both")
    if inline:
        return [parse(text) for text in inline]
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    roots = [parse(line) for line in lines if line]
    if not roots:
        raise ValueError(f"no formulas in {path}")
    return roots


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_model(path: str) -> KripkeModel:
    return model_from_dict(_load_json(path))


def _load_frame(path: str) -> Frame:
    return _load_model(path).frame


# ---------------------------------------------------------------------------
# Output helpers


def _emit_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _model_lines(model: KripkeModel) -> list[str]:
    frame = model.frame
    order = frame.index
    rel = _row_pairs(frame.worlds, frame.succ)
    lines = ["worlds: " + " ".join(frame.worlds)]
    lines.append("rel: " + " ".join(f"{u}->{v}" for u, v in rel))
    for atom, ws in sorted(model.val.items()):
        if ws:
            lines.append(f"{atom}: " + " ".join(sorted(ws, key=order.get)))
    return lines


def _print_model(model: KripkeModel, fmt: str) -> None:
    if fmt == "structured":
        _emit_json(model_to_dict(model))
    elif fmt == "dot":
        print(to_dot(model))
    else:
        print("\n".join(_model_lines(model)))


def _print_answer(
    args, phi: Formula, ext: frozenset[str], frame: Frame, model: KripkeModel | None = None
) -> int:
    """Print where ``phi`` holds among the worlds of ``frame``, or draw
    ``model``; exit 0 when it holds at ``--world``, or everywhere when no
    world is named, else 1."""
    if args.world is not None and args.world not in frame.index:
        raise ValueError(f"unknown world '{args.world}'")
    everywhere = ext == frozenset(frame.worlds)
    if args.format == "structured":
        _emit_json(
            {
                "formula": pretty(phi),
                "extension": sorted(ext, key=frame.index.get),
                "holds_everywhere": everywhere,
            }
        )
    elif args.format == "dot":
        print(to_dot(model))
    else:
        for w in frame.worlds:
            print(f"{w}: {'true' if w in ext else 'false'}")
    holds = everywhere if args.world is None else args.world in ext
    return 0 if holds else 1


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_fmt(args) -> int:
    phi = _one_formula(args)
    if args.format == "structured":
        _emit_json({"formula": pretty(phi), "atoms": sorted(free_atoms(phi))})
    else:
        print(pretty(phi))
    return 0


def _cmd_mc(args) -> int:
    phi = _one_formula(args)
    model = _load_model(args.model)
    return _print_answer(args, phi, model_check(model, phi), model.frame, model)


def _cmd_tmc(args) -> int:
    phi = _one_formula(args)
    model = topo_model_from_dict(_load_json(args.space))
    return _print_answer(args, phi, topo_model_check(model, phi), model.space.frame)


_TRANSLATIONS = {"mu": to_mu, "d": to_d, "star": star}
#: Longest translation ``translate`` prints.  ``to_d`` shares each rewritten
#: child twice, so its printed form can double with every nested box.
_PRINT_LIMIT = 1 << 24


def _cmd_translate(args) -> int:
    phi = _one_formula(args)
    out = _TRANSLATIONS[args.mode](phi)
    size = printed_length(out)
    if size > _PRINT_LIMIT:
        raise BudgetExceededError(
            f"the translation would print {size} characters, over the limit of {_PRINT_LIMIT}"
        )
    if args.format == "structured":
        _emit_json({"input": pretty(phi), "mode": args.mode, "output": pretty(out)})
    else:
        print(pretty(out))
    return 0


def _cmd_analyze(args) -> int:
    frame = _load_frame(args.model)
    props = relation_properties(frame)
    comps = path_components(frame)
    local = min_local_connectedness(frame)
    report = {
        "worlds": len(frame.worlds),
        "reflexive": props.reflexive,
        "transitive": props.transitive,
        "serial": props.serial,
        "path_components": len(comps),
        "connected": len(comps) == 1,
        "min_local_connectedness": local,
        "locally_1_connected": local <= 1,
    }
    if props.transitive:
        dec = cluster_decomposition(frame)
        report["clusters"] = [
            {
                "worlds": sorted(c),
                "degenerate": dec.degenerate[i],
                "rank": dec.rank[i],
            }
            for i, c in enumerate(dec.clusters)
        ]
    if args.format == "structured":
        _emit_json(report)
    elif args.format == "dot":
        print(to_dot(frame))
    else:
        clusters = report.pop("clusters", [])
        for key, value in report.items():
            print(f"{key}: {value}")
        for c in clusters:
            tag = " degenerate" if c["degenerate"] else ""
            print(f"cluster rank {c['rank']}: {' '.join(c['worlds'])}{tag}")
    return 0


def _filtration_data(fr: FiltrationResult) -> dict:
    return {
        "mode": fr.mode,
        "classes": {
            q: sorted(cls) for q, cls in zip(fr.quotient_worlds, fr.classes)
        },
    }


def _cmd_filtrate(args) -> int:
    roots = _root_formulas(args)
    model = _load_model(args.model)
    closure = subformula_closure(roots)
    fr = filtrate(model, closure, mode=args.mode)
    if args.format == "structured":
        _emit_json(_filtration_data(fr) | {"model": model_to_dict(fr.filtered_model())})
    elif args.format == "dot":
        print(to_dot(fr.filtered_model()))
    else:
        print(f"mode: {fr.mode}")
        print(f"closure: {len(closure.formulas)} formulas")
        for q, cls in zip(fr.quotient_worlds, fr.classes):
            print(f"{q} <- {' '.join(cls)}")
        print("\n".join(_model_lines(fr.filtered_model())))
    return 0


def _untangle_data(fr: FiltrationResult, ut: UntangleResult) -> dict:
    return {
        "reflexive_mode": ut.reflexive_mode,
        "clusters": [sorted(c) for c in ut.clusters],
        "critical_points": list(ut.critical_points),
        "nuclei": [sorted(nu) for nu in ut.nuclei],
        "model": model_to_dict(ut.untangled_model(fr)),
    }


def _cmd_untangle(args) -> int:
    roots = _root_formulas(args)
    model = _load_model(args.model)
    closure = subformula_closure(roots)
    fr = filtrate(model, closure, mode=args.mode)
    ut = untangle(fr, model, closure, reflexive_mode=args.reflexive)
    rep = verify_reduction(fr, ut, model, closure)
    if args.format == "structured":
        data = _filtration_data(fr) | _untangle_data(fr, ut)
        data["reduction_ok"] = rep.ok
        if rep.failure:
            phi, world, want, got = rep.failure
            data["reduction_failure"] = {
                "formula": pretty(phi),
                "source_world": world,
                "source_truth": want,
                "quotient_truth": got,
            }
        _emit_json(data)
    elif args.format == "dot":
        print(to_dot(ut.untangled_model(fr)))
    else:
        print(f"mode: {fr.mode}" + (" reflexive" if ut.reflexive_mode else ""))
        for i, c in enumerate(ut.clusters):
            crit, nucleus = ut.critical_points[i], ut.nuclei[i]
            print(f"cluster {{{' '.join(sorted(c))}}} critical {crit} nucleus {{{' '.join(sorted(nucleus))}}}")
        print("\n".join(_model_lines(ut.untangled_model(fr))))
        print(f"reduction: {'ok' if rep.ok else 'FAILED'} ({rep.checked} checks)")
    if not rep.ok:
        phi, world, want, got = rep.failure
        print(
            f"reduction failed: {pretty(phi)} at {world}: source {want}, quotient {got}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_sat(args) -> int:
    phi = _one_formula(args)
    profile = parse_profile(args.profile)
    kwargs = {} if args.budget is None else {"budget": args.budget}
    model = bounded_sat(phi, profile, args.max, **kwargs)
    if model is None:
        print(
            f"no {profile.name} model within {args.max} worlds",
            file=sys.stderr,
        )
        return 1
    _print_model(model, args.format)
    return 0


def _cmd_validate(args) -> int:
    phi = _one_formula(args)
    frame = _load_frame(args.frame)
    kwargs = {} if args.budget is None else {"budget": args.budget}
    report = frame_validates(frame, phi, **kwargs)
    if args.format == "structured":
        data = {"valid": report.valid, "checked": report.checked}
        if not report.valid:
            data["witness_valuation"] = {
                a: list(ws) for a, ws in sorted(report.witness_valuation.items())
            }
            data["witness_world"] = report.witness_world
        _emit_json(data)
    elif report.valid:
        print(f"valid ({report.checked} valuations)")
    else:
        val = ", ".join(
            f"{a}={{{' '.join(ws)}}}" for a, ws in sorted(report.witness_valuation.items())
        )
        print(f"fails at {report.witness_world} under {val}")
    return 0 if report.valid else 1


def _cmd_axioms(args) -> int:
    sets = [parse_members(text) for text in args.set]
    formulas = [parse(text) for text in args.args]
    phi = instantiate(args.schema, *sets, *formulas)
    if args.format == "structured":
        _emit_json({"schema": args.schema, "formula": pretty(phi)})
    else:
        print(pretty(phi))
    return 0


def _cmd_fixture(args) -> int:
    model = figure3_model(args.m)
    constraints = figure3_constraints(args.m // 3) if args.constraints else None
    if constraints is not None and args.format == "structured":
        _emit_json({"model": model_to_dict(model), "constraints": [pretty(f) for f in constraints]})
        return 0
    _print_model(model, args.format)
    if args.format == "text":
        for f in constraints or ():
            print(pretty(f))
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_format(sub, *, dot: bool) -> None:
    choices = ["text", "structured"] + (["dot"] if dot else [])
    sub.add_argument("--format", choices=choices, default="text")


def _add_formula(sub) -> None:
    sub.add_argument("formula", nargs="?", help="formula text")
    sub.add_argument("--formula-file", help="read the formula from a file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared by every
    later one: parsing reads it and changes nothing in it."""
    parser = argparse.ArgumentParser(
        prog="tangles",
        description="Model checking, translations, filtration and bounded search "
        "for modal logics with tangled closure operators.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fmt", help="parse and pretty print a formula")
    _add_formula(p)
    _add_format(p, dot=False)
    p.set_defaults(handler=_cmd_fmt)

    p = subs.add_parser("mc", help="evaluate a formula on a Kripke model")
    p.add_argument("model", help="model JSON file")
    _add_formula(p)
    p.add_argument("--world", help="exit by the truth value at this world")
    _add_format(p, dot=True)
    p.set_defaults(handler=_cmd_mc)

    p = subs.add_parser("tmc", help="evaluate a formula on a finite topological space")
    p.add_argument("space", help="space JSON file")
    _add_formula(p)
    p.add_argument("--world", help="exit by the truth value at this point")
    _add_format(p, dot=False)
    p.set_defaults(handler=_cmd_tmc)

    p = subs.add_parser("translate", help="rewrite a formula into another fragment")
    p.add_argument("--mode", choices=sorted(_TRANSLATIONS), required=True)
    _add_formula(p)
    _add_format(p, dot=False)
    p.set_defaults(handler=_cmd_translate)

    p = subs.add_parser("analyze", help="structural report on a frame or model")
    p.add_argument("model", help="model or frame JSON file")
    _add_format(p, dot=True)
    p.set_defaults(handler=_cmd_analyze)

    p = subs.add_parser("filtrate", help="quotient a model by a subformula closure")
    p.add_argument("model", help="model JSON file")
    p.add_argument("formulas", nargs="*", help="closure root formulas")
    p.add_argument("--formula-file", help="read root formulas, one per line")
    p.add_argument("--mode", choices=["standard", "refined"], default="standard")
    _add_format(p, dot=True)
    p.set_defaults(handler=_cmd_filtrate)

    p = subs.add_parser("untangle", help="filtrate, then rebuild the quotient relation")
    p.add_argument("model", help="model JSON file")
    p.add_argument("formulas", nargs="*", help="closure root formulas")
    p.add_argument("--formula-file", help="read root formulas, one per line")
    p.add_argument("--mode", choices=["standard", "refined"], default="standard")
    p.add_argument("--reflexive", action="store_true", help="keep self loops outside nuclei")
    _add_format(p, dot=True)
    p.set_defaults(handler=_cmd_untangle)

    p = subs.add_parser("sat", help="bounded satisfiability search")
    p.add_argument("--profile", required=True, help="logic name, e.g. K4t or S4t.UC")
    p.add_argument("--max", type=int, required=True, help="largest frame size to try")
    p.add_argument("--budget", type=int, help="work budget override")
    _add_formula(p)
    _add_format(p, dot=True)
    p.set_defaults(handler=_cmd_sat)

    p = subs.add_parser("validate", help="exhaustive validity on one frame")
    p.add_argument("--frame", required=True, help="frame or model JSON file")
    p.add_argument("--budget", type=int, help="valuation budget override")
    _add_formula(p)
    _add_format(p, dot=False)
    p.set_defaults(handler=_cmd_validate)

    p = subs.add_parser("axioms", help="instantiate an axiom schema")
    p.add_argument("--schema", required=True, help="schema id, e.g. 4, Fix, G2")
    p.add_argument("-s", "--set", action="append", default=[], help="member set, e.g. 'p, q'")
    p.add_argument("-f", "--formula", dest="args", action="append", default=[],
                   help="formula argument (repeatable)")
    _add_format(p, dot=False)
    p.set_defaults(handler=_cmd_axioms)

    p = subs.add_parser("fixture", help="built-in example models")
    p.add_argument("name", choices=["figure3"])
    p.add_argument("--m", type=int, required=True, help="length of the segment")
    p.add_argument("--constraints", action="store_true",
                   help="also print the separation constraints the fixture satisfies")
    _add_format(p, dot=True)
    p.set_defaults(handler=_cmd_fixture)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
