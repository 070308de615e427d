"""Command line front end.

One subcommand per capability, stable machine output under
``--format structured`` (JSON with sorted keys), DOT export where a model or
frame is produced.  Exit codes: 0 success or "true", 1 a counterexample or
"false" or "not found", 2 usage errors of any kind, 3 a search budget, the
print limit of ``translate``, or the world limit of a frame or space (36,635
worlds or points) exceeded.  All diagnostics go to stderr.

The handlers that need ``filtration``, ``logics`` or ``topo`` import it
themselves, so a process loads only what its subcommand uses.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Sequence

from .formula import (
    Formula,
    Tangle,
    TangleD,
    free_atoms,
    parse,
    parse_members,
    post_order,
    pretty,
    printed_length,
    subformula_closure,
)
from .kripke import (
    SEARCH_BUDGET,
    VALUATION_BUDGET,
    BudgetExceededError,
    Frame,
    KripkeModel,
    cluster_decomposition,
    model_check,
    model_from_dict,
    model_to_dict,
    to_dot,
)
from .translate import star, to_d, to_mu


# ---------------------------------------------------------------------------
# Input helpers.  The formula is always parsed before any model file is
# opened, so grammar mistakes surface first.


def _one_formula(args) -> Formula:
    inline, path = args.formula, args.formula_file
    if (inline is None) == (path is None):
        raise ValueError("give a formula inline or via --formula-file, not both")
    if inline is not None:
        return parse(inline)
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _root_formulas(args) -> list[Formula]:
    """Closure roots: inline arguments, or one formula per nonblank line."""
    inline, path = args.formulas, args.formula_file
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


# ---------------------------------------------------------------------------
# Output


_ENCODE = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, with each newline
    followed by ``indent``'s spaces: a nested value's lines start at its
    parent's indent.  Strings, ints, bools, None, lists and string-keyed
    dicts are written here, with type checks and joins run in C, so a
    relation's pairs cost no bytecode each; anything else goes to
    ``json.dumps``."""
    kind = type(value)
    if kind is str:
        return _ENCODE(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return _CONSTANTS[value]
    if (kind is list or kind is dict) and not value:
        return "[]" if kind is list else "{}"
    inner = indent + "  "
    if kind is dict and set(map(type, value)) == {str}:
        items = [_ENCODE(k) + ": " + _json_text(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list:
        kinds = set(map(type, value))
        if kinds == {list} and set(map(len, value)) == {2}:
            firsts, seconds = zip(*value)
            if set(map(type, firsts)) | set(map(type, seconds)) == {str}:
                # a pair of strings spans four lines: "[", first, second, "]"
                pair = inner + "  "
                cells = map(("," + pair).join, zip(map(_ENCODE, firsts), map(_ENCODE, seconds)))
                rows = (inner + "]," + inner + "[" + pair).join(cells)
                return "[" + inner + "[" + pair + rows + inner + "]" + indent + "]"
        items = map(_ENCODE, value) if kinds == {str} else [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    # tuples, floats, subclasses and non-string keys; the encoder escapes
    # every newline inside a string, so each newline left starts a line
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", indent)


def _emit(args, structured, text, dot=None) -> None:
    """Print a result in the form ``--format`` asks for: the JSON of
    ``structured()`` through ``_json_text``, the lines of ``text()``, or the
    model or frame ``dot`` in DOT.  Only the asked-for form is built."""
    if args.format == "structured":
        print(_json_text(structured()))
    elif args.format == "dot":
        print(to_dot(dot))
    else:
        for line in text():
            print(line)


def _model_lines(model: KripkeModel) -> list[str]:
    data = model_to_dict(model)
    lines = ["worlds: " + " ".join(data["worlds"])]
    lines.append("rel: " + " ".join(f"{u}->{v}" for u, v in data["rel"]))
    return lines + [f"{atom}: " + " ".join(ws) for atom, ws in data["val"].items()]


def _print_answer(
    args, phi: Formula, ext: frozenset[str], frame: Frame, model: KripkeModel | None = None
) -> int:
    """Print where ``phi`` holds among the worlds of ``frame``, or draw
    ``model``; exit 0 when it holds at ``--world``, or everywhere when no
    world is named, else 1."""
    if args.world is not None and args.world not in frame.index:
        raise ValueError(f"unknown world '{args.world}'")
    everywhere = ext == frozenset(frame.worlds)
    _emit(
        args,
        lambda: {
            "formula": pretty(phi),
            "extension": sorted(ext, key=frame.index.get),
            "holds_everywhere": everywhere,
        },
        lambda: [f"{w}: {'true' if w in ext else 'false'}" for w in frame.worlds],
        model,
    )
    holds = everywhere if args.world is None else args.world in ext
    return 0 if holds else 1


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_fmt(args) -> int:
    phi = _one_formula(args)
    _emit(
        args,
        lambda: {"formula": pretty(phi), "atoms": sorted(free_atoms(phi))},
        lambda: [pretty(phi)],
    )
    return 0


def _cmd_mc(args) -> int:
    phi = _one_formula(args)
    model = _load_model(args.model)
    return _print_answer(args, phi, model_check(model, phi), model.frame, model)


def _cmd_tmc(args) -> int:
    from .topo import topo_model_check, topo_model_from_dict

    phi = _one_formula(args)
    model = topo_model_from_dict(_load_json(args.space))
    return _print_answer(args, phi, topo_model_check(model, phi), model.space.frame)


_TRANSLATIONS = {"mu": to_mu, "d": to_d, "star": star}
#: Longest formula ``translate`` and ``axioms`` print.  ``to_d`` shares each
#: rewritten child twice, so its printed form can double with every nested
#: box, and the ``G_n`` instances grow quadratically in n.
_PRINT_LIMIT = 1 << 24


def _within_limit(size: int, what: str, at_least: bool = False) -> None:
    """Refuse to print ``what``, ``size`` characters long, or at least that
    long, if that is over the limit."""
    if size > _PRINT_LIMIT:
        amount = f"at least {size}" if at_least else size
        raise BudgetExceededError(f"{what} would print {amount} characters, over the limit of {_PRINT_LIMIT}")


def _cmd_translate(args) -> int:
    phi = _one_formula(args)
    if args.mode == "d":
        # ``to_d`` orders a tangle's translated members by their printed
        # text, and each member's text is part of the output: a member too
        # long to print is refused before that text is built.  Inner
        # tangles come first, so the members checked hold none too long.
        for f in post_order(phi):
            if isinstance(f, (Tangle, TangleD)) and len(f.members) > 1:
                for member in f.members:
                    _within_limit(printed_length(to_d(member)), "the translation", at_least=True)
    out = _TRANSLATIONS[args.mode](phi)
    _within_limit(printed_length(out), "the translation")
    _emit(
        args,
        lambda: {"input": pretty(phi), "mode": args.mode, "output": pretty(out)},
        lambda: [pretty(out)],
    )
    return 0


def _cmd_analyze(args) -> int:
    from .filtration import _profile

    frame = _load_model(args.model).frame
    profile = _profile(frame)
    report = {
        "worlds": len(frame.worlds),
        "reflexive": profile.reflexive,
        "transitive": frame.transitive,
        "serial": profile.serial,
        "path_components": profile.path_component_count,
        "connected": profile.connected,
        "min_local_connectedness": profile.local_connectedness,
        "locally_1_connected": profile.local_connectedness <= 1,
    }
    if frame.transitive:
        dec = cluster_decomposition(frame)
        report["clusters"] = [
            {
                "worlds": sorted(c),
                "degenerate": dec.degenerate[i],
                "rank": dec.rank[i],
            }
            for i, c in enumerate(dec.clusters)
        ]

    def text() -> list[str]:
        lines = [f"{key}: {value}" for key, value in report.items() if key != "clusters"]
        for c in report.get("clusters", ()):
            tag = " degenerate" if c["degenerate"] else ""
            lines.append(f"cluster rank {c['rank']}: {' '.join(c['worlds'])}{tag}")
        return lines

    _emit(args, lambda: report, text, frame)
    return 0


def _filtration(args):
    """The model, the closure of the root formulas, and its filtration."""
    from .filtration import filtrate

    roots = _root_formulas(args)
    model = _load_model(args.model)
    closure = subformula_closure(roots)
    return model, closure, filtrate(model, closure, mode=args.mode)


def _filtration_data(fr, quotient: KripkeModel) -> dict:
    return {
        "mode": fr.mode,
        "classes": {
            q: sorted(cls) for q, cls in zip(fr.quotient_worlds, fr.classes)
        },
        "model": model_to_dict(quotient),
    }


def _cmd_filtrate(args) -> int:
    _, closure, fr = _filtration(args)
    quotient = fr.filtered_model()

    def text() -> list[str]:
        lines = [f"mode: {fr.mode}", f"closure: {len(closure.formulas)} formulas"]
        lines += [f"{q} <- {' '.join(cls)}" for q, cls in zip(fr.quotient_worlds, fr.classes)]
        return lines + _model_lines(quotient)

    _emit(args, lambda: _filtration_data(fr, quotient), text, quotient)
    return 0


def _cmd_untangle(args) -> int:
    from .filtration import untangle, verify_reduction

    model, closure, fr = _filtration(args)
    ut = untangle(fr, model, closure, reflexive_mode=args.reflexive)
    rep = verify_reduction(fr, ut, model, closure)
    quotient = ut.untangled_model(fr)

    def structured() -> dict:
        data = _filtration_data(fr, quotient) | {
            "reflexive_mode": ut.reflexive_mode,
            "clusters": [sorted(c) for c in ut.clusters],
            "critical_points": list(ut.critical_points),
            "nuclei": [sorted(nu) for nu in ut.nuclei],
            "reduction_ok": rep.ok,
        }
        if rep.failure:
            phi, world, want, got = rep.failure
            data["reduction_failure"] = {
                "formula": pretty(phi),
                "source_world": world,
                "source_truth": want,
                "quotient_truth": got,
            }
        return data

    def text() -> list[str]:
        lines = [f"mode: {fr.mode}" + (" reflexive" if ut.reflexive_mode else "")]
        for c, crit, nucleus in zip(ut.clusters, ut.critical_points, ut.nuclei):
            lines.append(f"cluster {{{' '.join(sorted(c))}}} critical {crit} "
                         f"nucleus {{{' '.join(sorted(nucleus))}}}")
        lines += _model_lines(quotient)
        lines.append(f"reduction: {'ok' if rep.ok else 'FAILED'} ({rep.checked} checks)")
        return lines

    _emit(args, structured, text, quotient)
    if rep.ok:
        return 0
    phi, world, want, got = rep.failure
    print(f"reduction failed: {pretty(phi)} at {world}: source {want}, quotient {got}",
          file=sys.stderr)
    return 1


def _cmd_sat(args) -> int:
    from .logics import bounded_sat, parse_profile

    phi = _one_formula(args)
    profile = parse_profile(args.profile)
    model = bounded_sat(phi, profile, args.max, args.budget)
    if model is None:
        print(
            f"no {profile.name} model within {args.max} worlds",
            file=sys.stderr,
        )
        return 1
    _emit(args, lambda: model_to_dict(model), lambda: _model_lines(model), model)
    return 0


def _cmd_validate(args) -> int:
    from .logics import frame_validates

    phi = _one_formula(args)
    report = frame_validates(_load_model(args.frame).frame, phi, args.budget)

    def structured() -> dict:
        data = {"valid": report.valid, "checked": report.checked}
        if not report.valid:
            data["witness_valuation"] = {
                a: list(ws) for a, ws in sorted(report.witness_valuation.items())
            }
            data["witness_world"] = report.witness_world
        return data

    def text() -> list[str]:
        if report.valid:
            return [f"valid ({report.checked} valuations)"]
        val = ", ".join(
            f"{a}={{{' '.join(ws)}}}" for a, ws in sorted(report.witness_valuation.items())
        )
        return [f"fails at {report.witness_world} under {val}"]

    _emit(args, structured, text)
    return 0 if report.valid else 1


def _cmd_axioms(args) -> int:
    from .logics import _gn_length, instantiate

    sets = [parse_members(text) for text in args.set]
    formulas = [parse(text) for text in args.args]
    if not sets and not formulas:  # G_n has about n² nodes: sized from n before it is built
        _within_limit(_gn_length(args.schema), "the instance")
    phi = instantiate(args.schema, *sets, *formulas)
    _within_limit(printed_length(phi), "the instance")
    _emit(args, lambda: {"schema": args.schema, "formula": pretty(phi)}, lambda: [pretty(phi)])
    return 0


def _cmd_fixture(args) -> int:
    from .logics import _figure3_length, figure3_constraints, figure3_model

    # DOT draws the model alone.  The model has about 4m pairs and the
    # constraints about m²/18: the output is sized from m before they are built
    listed = args.constraints and args.format != "dot"
    _within_limit(_figure3_length(args.m, listed), "the fixture", at_least=True)
    model = figure3_model(args.m)
    constraints = [pretty(f) for f in figure3_constraints(args.m // 3)] if listed else None

    def structured() -> dict:
        data = model_to_dict(model)
        return data if constraints is None else {"model": data, "constraints": constraints}

    _emit(args, structured, lambda: _model_lines(model) + (constraints or []), model)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_output(sub, handler, *, dot: bool) -> None:
    """Close a subcommand's arguments with ``--format`` and name its handler."""
    choices = ["text", "structured"] + (["dot"] if dot else [])
    sub.add_argument("--format", choices=choices, default="text")
    sub.set_defaults(handler=handler)


def _add_formula(sub) -> None:
    sub.add_argument("formula", nargs="?", help="formula text")
    sub.add_argument("--formula-file", help="read the formula from a file")


def _add_closure(sub) -> None:
    sub.add_argument("model", help="model JSON file")
    sub.add_argument("formulas", nargs="*", help="closure root formulas")
    sub.add_argument("--formula-file", help="read root formulas, one per line")
    sub.add_argument("--mode", choices=["standard", "refined"], default="standard")


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
    _add_output(p, _cmd_fmt, dot=False)

    p = subs.add_parser("mc", help="evaluate a formula on a Kripke model")
    p.add_argument("model", help="model JSON file")
    _add_formula(p)
    p.add_argument("--world", help="exit by the truth value at this world")
    _add_output(p, _cmd_mc, dot=True)

    p = subs.add_parser("tmc", help="evaluate a formula on a finite topological space")
    p.add_argument("space", help="space JSON file")
    _add_formula(p)
    p.add_argument("--world", help="exit by the truth value at this point")
    _add_output(p, _cmd_tmc, dot=False)

    p = subs.add_parser("translate", help="rewrite a formula into another fragment")
    p.add_argument("--mode", choices=sorted(_TRANSLATIONS), required=True)
    _add_formula(p)
    _add_output(p, _cmd_translate, dot=False)

    p = subs.add_parser("analyze", help="structural report on a frame or model")
    p.add_argument("model", help="model or frame JSON file")
    _add_output(p, _cmd_analyze, dot=True)

    p = subs.add_parser("filtrate", help="quotient a model by a subformula closure")
    _add_closure(p)
    _add_output(p, _cmd_filtrate, dot=True)

    p = subs.add_parser("untangle", help="filtrate, then rebuild the quotient relation")
    _add_closure(p)
    p.add_argument("--reflexive", action="store_true", help="keep self loops outside nuclei")
    _add_output(p, _cmd_untangle, dot=True)

    p = subs.add_parser("sat", help="bounded satisfiability search")
    p.add_argument("--profile", required=True, help="logic name, e.g. K4t or S4t.UC")
    p.add_argument("--max", type=int, required=True, help="largest frame size to try")
    p.add_argument("--budget", type=int, default=SEARCH_BUDGET, help="work budget override")
    _add_formula(p)
    _add_output(p, _cmd_sat, dot=True)

    p = subs.add_parser("validate", help="exhaustive validity on one frame")
    p.add_argument("--frame", required=True, help="frame or model JSON file")
    p.add_argument("--budget", type=int, default=VALUATION_BUDGET, help="valuation budget override")
    _add_formula(p)
    _add_output(p, _cmd_validate, dot=False)

    p = subs.add_parser("axioms", help="instantiate an axiom schema")
    p.add_argument("--schema", required=True, help="schema id, e.g. 4, Fix, G2")
    p.add_argument("-s", "--set", action="append", default=[], help="member set, e.g. 'p, q'")
    p.add_argument("-f", "--formula", dest="args", action="append", default=[],
                   help="formula argument (repeatable)")
    _add_output(p, _cmd_axioms, dot=False)

    p = subs.add_parser("fixture", help="built-in example models")
    p.add_argument("name", choices=["figure3"])
    p.add_argument("--m", type=int, required=True, help="length of the segment")
    p.add_argument("--constraints", action="store_true",
                   help="also print the separation constraints the fixture satisfies")
    _add_output(p, _cmd_fixture, dot=True)

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
