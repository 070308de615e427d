"""Correctness checks for one job, independent of the code path the job ran.

Each check gets the job record, its exit code and its stdout, and returns
None when the job passed or a one-line reason when it failed.  The recorded
exit code and stdout digest are checked for every job; the semantic checks
below recompute the answer another way.
"""

from __future__ import annotations

import functools
import json

from tangles import (
    Frame,
    KripkeModel,
    locally_n_connected,
    model_check,
    model_from_dict,
    parse,
    parse_profile,
    path_components,
    relation_properties,
    to_mu,
)

from gen import digest, parseable

@functools.cache
def _model(path: str) -> KripkeModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def _extension(job, out: str) -> frozenset[str]:
    """The extension a model-checking job printed, in either format."""
    if "--format" in job["argv"]:
        return frozenset(json.loads(out)["extension"])
    return frozenset(line.split(": ")[0] for line in out.splitlines() if line.endswith(": true"))


def _strict(model: KripkeModel) -> KripkeModel:
    frame = model.frame
    return KripkeModel(Frame(frame.worlds, {(u, v) for u, v in frame.rel if u != v}), model.val)


def semantic(job, code: int, out: str) -> str | None:
    kind, data = job["kind"], job["check"]
    if kind == "mc":
        model = _model(data["model"])
        phi = parse(data["formula"])
        # mc jobs on phi are checked against to_mu(phi), and jobs on a
        # translation of phi against phi itself
        want = model_check(model, to_mu(phi) if data["type"] == "mc_mu" else phi)
        if _extension(job, out) != want:
            return "extension differs from the equivalent formula's"
    elif kind == "tmc":
        # McKinsey-Tarski: on the up-set topology of a preorder, closure is
        # the diamond of the preorder and the derivative the diamond of its
        # strict part
        model = _model(data["frame"])
        if data["derivative"]:
            model = _strict(model)
        if _extension(job, out) != model_check(model, parse(data["formula"])):
            return "topological extension differs from the Kripke one"
    elif kind == "translate":
        text = json.loads(out)["output"] if data["structured"] else out.strip()
        model = _model(data["model"])
        if model_check(model, parse(parseable(text))) != model_check(model, parse(data["formula"])):
            return "translation changes the extension"
    elif kind == "analyze":
        report = json.loads(out)
        shape = data["shape"]
        got = {frozenset(c["worlds"]): c["degenerate"] for c in report["clusters"]}
        want = {frozenset(c): len(c) == 1 and not refl
                for c, refl in zip(shape["clusters"], shape["reflexive"])}
        if got != want or not report["transitive"]:
            return "cluster report differs from the generated clusters"
    elif kind == "untangle":
        if not json.loads(out).get("reduction_ok"):
            return "reduction_ok is false"
    elif kind == "validate":
        return _check_validate(job, code, out)
    elif kind == "sat":
        return _check_sat(job, code, out)
    return None


def _check_validate(job, code: int, out: str) -> str | None:
    schema = job["check"]["schema"]
    frame = _model(job["argv"][job["argv"].index("--frame") + 1]).frame
    props = relation_properties(frame)
    if schema.startswith("G"):
        want = locally_n_connected(frame, int(schema[1:]))
    elif schema == "T":
        want = props.reflexive
    elif schema == "D":
        want = props.serial
    elif schema == "C":
        want = len(path_components(frame)) == 1
    else:  # 4, Fix, Ind, 4t and U hold on every transitive frame
        want = props.transitive
    valid = json.loads(out)["valid"]
    if valid != want or code != (0 if want else 1):
        return f"{schema} validity {valid} disagrees with the frame condition"
    return None


def _check_sat(job, code: int, out: str) -> str | None:
    answer = job["check"]["answer"]
    want = {"sat": 0, "unsat": 1, "budget": 3}[answer]
    if code != want:
        return f"exit {code}, expected {want} for a {answer} formula"
    if answer == "sat":
        witness = model_from_dict(json.loads(out))
        if not model_check(witness, parse(job["argv"][-1])):
            return "witness does not satisfy the formula"
        if not parse_profile(job["check"]["profile"]).frame_ok(witness.frame):
            return "witness frame is outside the profile's class"
    return None


def check(job, code: int, out: str) -> str | None:
    """None if the job passed every check, else the first failure."""
    expect = job["expect"]
    if expect["exit"] is None:
        return "no recorded expectation for this job"
    if code != expect["exit"]:
        return f"exit {code}, recorded {expect['exit']}"
    if digest(out) != expect["digest"]:
        return "stdout digest differs from the recorded one"
    return checked_semantic(job, code, out)


def checked_semantic(job, code: int, out: str) -> str | None:
    """:func:`semantic`, with output that does not parse as the failure."""
    try:
        return semantic(job, code, out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"output does not parse: {exc}"
