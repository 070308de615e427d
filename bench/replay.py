"""Traced replay of a job through the library calls its subcommand makes.

Each replay function mirrors one handler of ``tangles.cli``: it parses the
same argv with the CLI's own parser, makes the same public calls in the same
order, and prints the same bytes, so the recorded stdout digest checks the
replay too.  Every call into a layer runs inside a span; spans and counts
stay in memory until the run ends.
"""

from __future__ import annotations

import io
import json
from collections import defaultdict
from time import perf_counter

from tangles import (
    BudgetExceededError,
    bounded_sat,
    cluster_decomposition,
    enumerate_frames,
    filtrate,
    frame_validates,
    free_atoms,
    immediate_subformulas,
    min_local_connectedness,
    model_check,
    model_from_dict,
    model_to_dict,
    parse,
    parse_profile,
    path_components,
    pretty,
    relation_properties,
    star,
    subformula_closure,
    to_d,
    to_mu,
    topo_model_check,
    topo_model_from_dict,
    untangle,
    verify_reduction,
)
from tangles.cli import build_parser
from tangles.logics import SEARCH_BUDGET


class Tracer:
    """Spans as ``[name, start, end, parent index, job]`` plus per-name counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.parent = -1
        self.job = None

    def call(self, name, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self.parent, self.job]
        self.parent = len(self.spans)
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self.parent = rec[3]

    def count(self, name, value) -> None:
        self.counts[name] += value


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name: duration minus the direct children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += end - start - child[i]
    return out


# ---------------------------------------------------------------------------
# Layer calls that bundle more than one library function


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_model(path):
    return model_from_dict(_read_json(path))


def _load_space(path):
    return topo_model_from_dict(_read_json(path))


def _emit_json(buf, data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True), file=buf)


def _emit_model_json(buf, model) -> None:
    _emit_json(buf, model_to_dict(model))


def _formula_text(args) -> str:
    if args.formula is not None:
        return args.formula
    with open(args.formula_file, encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Subcommands


def _parse(t, text):
    t.count("formula.chars", len(text))
    phi = t.call("formula.parse", parse, text)
    t.facts.setdefault("formulas", []).append(phi)
    return phi


def _loaded(t, model):
    t.count("kripke.worlds", len(model.frame.worlds))
    t.count("kripke.pairs", len(model.frame.rel))
    return model


def _extension_output(t, buf, args, phi, ext, points) -> int:
    if args.format == "structured":
        order = {w: i for i, w in enumerate(points)}
        data = {
            "formula": t.call("formula.print", pretty, phi),
            "extension": sorted(ext, key=order.get),
            "holds_everywhere": ext == frozenset(points),
        }
        t.call("cli.output", _emit_json, buf, data)
    else:
        lines = [f"{w}: {'true' if w in ext else 'false'}" for w in points]
        t.call("cli.output", print, "\n".join(lines), file=buf)
    return 0 if ext == frozenset(points) else 1


def _mc(t, args, buf) -> int:
    phi = _parse(t, _formula_text(args))
    model = _loaded(t, t.call("kripke.load", _load_model, args.model))
    ext = t.call("kripke.eval", model_check, model, phi)
    return _extension_output(t, buf, args, phi, ext, model.frame.worlds)


def _tmc(t, args, buf) -> int:
    phi = _parse(t, _formula_text(args))
    model = t.call("topo.load", _load_space, args.space)
    t.count("topo.opens", len(model.space.opens))
    ext = t.call("topo.eval", topo_model_check, model, phi)
    return _extension_output(t, buf, args, phi, ext, model.space.points)


_TRANSLATIONS = {"mu": to_mu, "d": to_d, "star": star}


def _translate(t, args, buf) -> int:
    phi = _parse(t, _formula_text(args))
    out = t.call("translate.translate", _TRANSLATIONS[args.mode], phi)
    if args.format == "structured":
        data = {"input": t.call("formula.print", pretty, phi), "mode": args.mode,
                "output": t.call("formula.print", pretty, out)}
        t.call("cli.output", _emit_json, buf, data)
    else:
        t.call("cli.output", print, t.call("formula.print", pretty, out), file=buf)
    return 0


def _analyze(t, args, buf) -> int:
    frame = _loaded(t, t.call("kripke.load", _load_model, args.model)).frame
    props = t.call("kripke.relation_properties", relation_properties, frame)
    comps = t.call("kripke.path_components", path_components, frame)
    local = t.call("kripke.local_connectedness", min_local_connectedness, frame)
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
        dec = t.call("kripke.cluster_decomposition", cluster_decomposition, frame)
        report["clusters"] = [
            {"worlds": sorted(c), "degenerate": dec.degenerate[i], "rank": dec.rank[i]}
            for i, c in enumerate(dec.clusters)
        ]
    t.call("cli.output", _emit_json, buf, report)
    return 0


def _untangle_json(buf, fr, ut, rep) -> None:
    # as in the CLI, the untangled model replaces the filtered one
    data = {
        "mode": fr.mode,
        "classes": {q: sorted(cls) for q, cls in zip(fr.quotient_worlds, fr.classes)},
        "model": model_to_dict(fr.filtered_model()),
    }
    data |= {
        "reflexive_mode": ut.reflexive_mode,
        "clusters": [sorted(c) for c in ut.clusters],
        "critical_points": list(ut.critical_points),
        "nuclei": [sorted(nu) for nu in ut.nuclei],
        "model": model_to_dict(ut.untangled_model(fr)),
    }
    data["reduction_ok"] = rep.ok
    if rep.failure:
        phi, world, want, got = rep.failure
        data["reduction_failure"] = {"formula": pretty(phi), "source_world": world,
                                     "source_truth": want, "quotient_truth": got}
    _emit_json(buf, data)


def _untangle(t, args, buf) -> int:
    roots = [_parse(t, text) for text in args.formulas]
    model = _loaded(t, t.call("kripke.load", _load_model, args.model))
    closure = t.call("formula.closure", subformula_closure, roots)
    fr = t.call("filtration.filtrate", filtrate, model, closure, mode=args.mode)
    ut = t.call("filtration.untangle", untangle, fr, model, closure,
                reflexive_mode=args.reflexive)
    rep = t.call("filtration.verify", verify_reduction, fr, ut, model, closure)
    t.count("filtration.source_worlds", len(model.frame.worlds))
    t.count("filtration.quotient_worlds", len(fr.quotient_worlds))
    t.count("filtration.verify_checked", rep.checked)
    t.call("cli.output", _untangle_json, buf, fr, ut, rep)
    return 0 if rep.ok else 1


def _sat(t, args, buf) -> int:
    phi = _parse(t, _formula_text(args))
    profile = t.call("logics.sat", parse_profile, args.profile)
    kwargs = {} if args.budget is None else {"budget": args.budget}
    model = None
    try:
        model = t.call("logics.sat", bounded_sat, phi, profile, args.max, **kwargs)
    finally:
        t.facts["sat"] = (phi, profile, args.max, args.budget, model)
    if model is None:
        return 1
    t.call("cli.output", _emit_model_json, buf, model)
    return 0


def _validate(t, args, buf) -> int:
    phi = _parse(t, _formula_text(args))
    frame = _loaded(t, t.call("kripke.load", _load_model, args.frame)).frame
    kwargs = {} if args.budget is None else {"budget": args.budget}
    report = t.call("logics.validate", frame_validates, frame, phi, **kwargs)
    t.count("logics.validate_jobs", 1)
    t.count("logics.refuted", 0 if report.valid else 1)
    t.count("logics.valuations_checked", report.checked)
    data = {"valid": report.valid, "checked": report.checked}
    if not report.valid:
        data["witness_valuation"] = {
            a: list(ws) for a, ws in sorted(report.witness_valuation.items())
        }
        data["witness_world"] = report.witness_world
    t.call("cli.output", _emit_json, buf, data)
    return 0 if report.valid else 1


_REPLAYS = {
    "mc": _mc,
    "tmc": _tmc,
    "translate": _translate,
    "analyze": _analyze,
    "untangle": _untangle,
    "sat": _sat,
    "validate": _validate,
}


def _replay(t, args, buf) -> int:
    try:
        return _REPLAYS[args.command](t, args, buf)
    except BudgetExceededError:
        return 3
    except (ValueError, OSError):
        return 2


def replay(t: Tracer, job_index: int, argv) -> tuple[int, str]:
    """Run one job through the library under the ``cli.job`` root span;
    returns the exit code and stdout.  ``t.facts`` keeps the job's parsed
    formulas and search arguments for :func:`job_counts`."""
    t.job = job_index
    t.facts = {}
    buf = io.StringIO()
    args = build_parser().parse_args(argv)
    code = t.call("cli.job", _replay, t, args, buf)
    out = buf.getvalue()
    t.count("cli.stdout_bytes", len(out.encode("utf-8")))
    return code, out


# ---------------------------------------------------------------------------
# Counts too costly to take inside the timed replay


def _node_counts(formulas) -> tuple[int, int]:
    """Tree nodes with multiplicity, and structurally distinct subformulas."""
    size: dict[int, int] = {}
    key_of: dict[int, int] = {}
    interned: dict[tuple, int] = {}
    stack = [(f, False) for f in formulas]
    while stack:
        f, done = stack.pop()
        if id(f) in key_of:
            continue
        kids = immediate_subformulas(f)
        if not done:
            stack.append((f, True))
            stack.extend((k, False) for k in kids if id(k) not in key_of)
            continue
        size[id(f)] = 1 + sum(size[id(k)] for k in kids)
        label = (type(f).__name__, getattr(f, "name", None), getattr(f, "var", None))
        key = (label, tuple(key_of[id(k)] for k in kids))
        key_of[id(f)] = interned.setdefault(key, len(interned))
    return sum(size[id(f)] for f in formulas), len(interned)


def frames_enumerated(phi, profile, max_worlds, budget, witness) -> int:
    """Frames ``bounded_sat`` looked at before it stopped, by the same walk."""
    budget = SEARCH_BUDGET if budget is None else budget
    per_world = len(free_atoms(phi))
    spent = count = 0
    for n in range(1, max_worlds + 1):
        for frame in enumerate_frames(
            n, serial=profile.serial, reflexive=profile.reflexive,
            connected=profile.connected, local_connectedness=profile.local_connectedness,
        ):
            count += 1
            spent += 1 << (per_world * n)
            if spent > budget or (witness is not None and frame == witness.frame):
                return count
    return count


def job_counts(facts) -> dict[str, int]:
    tree, distinct = _node_counts(facts.get("formulas", []))
    out = {"formula.tree_nodes": tree, "formula.distinct_nodes": distinct}
    if "sat" in facts:
        out["logics.frames_enumerated"] = frames_enumerated(*facts["sat"])
    return out
