"""Command line behaviour: output formats, exit codes, error routing."""

import copy
import enum
import functools
import hashlib
import json
import operator
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from tangles import Atom, Neg, instantiate, parse, pretty, star, to_mu
from tangles import cli, logics
from tangles.cli import main
from tangles.formula import MAX_DEPTH
from gen import random_formula

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def chain_model(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "worlds": ["w0", "w1", "w2"],
        "rel": [["w0", "w1"], ["w1", "w2"], ["w0", "w2"]],
        "val": {"p": ["w0", "w1"]},
    }))
    return str(path)


@pytest.fixture
def fork_model(tmp_path):
    path = tmp_path / "fork.json"
    path.write_text(json.dumps({
        "worlds": ["r", "x", "y"],
        "rel": [["r", "x"], ["r", "y"], ["x", "x"], ["y", "y"]],
    }))
    return str(path)


@pytest.fixture
def sierpinski_space(tmp_path):
    path = tmp_path / "sierpinski.json"
    path.write_text(json.dumps({
        "points": ["x", "y"],
        "opens": [[], ["x"], ["x", "y"]],
        "val": {"p": ["x"]},
    }))
    return str(path)


# ---------------------------------------------------------------------------
# fmt


def test_fmt_normalizes(capsys):
    code, out, _ = run(capsys, "fmt", "((p)) & (q | r)")
    assert code == 0
    assert out.strip() == "p & (q | r)"


def test_fmt_structured(capsys):
    code, out, _ = run(capsys, "fmt", "--format", "structured", "[]p -> q")
    assert code == 0
    assert json.loads(out) == {"atoms": ["p", "q"], "formula": "[]p -> q"}


def test_fmt_parse_error(capsys):
    code, out, err = run(capsys, "fmt", "p &")
    assert code == 2
    assert not out
    assert err.startswith("error:")


def test_formula_file(capsys, tmp_path):
    path = tmp_path / "phi.txt"
    path.write_text("[]p -> p\n")
    code, out, _ = run(capsys, "fmt", "--formula-file", str(path))
    assert code == 0
    assert out.strip() == "[]p -> p"
    # inline and file together, or neither, are usage errors
    assert run(capsys, "fmt", "p", "--formula-file", str(path))[0] == 2
    assert run(capsys, "fmt")[0] == 2


def test_no_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# mc


def test_mc_text_and_exit(capsys, chain_model):
    code, out, _ = run(capsys, "mc", chain_model, "<>p")
    assert code == 1  # not true everywhere
    assert out.splitlines() == ["w0: true", "w1: false", "w2: false"]
    assert run(capsys, "mc", chain_model, "true")[0] == 0


def test_mc_world_exit(capsys, chain_model):
    assert run(capsys, "mc", chain_model, "<>p", "--world", "w0")[0] == 0
    assert run(capsys, "mc", chain_model, "<>p", "--world", "w1")[0] == 1
    assert run(capsys, "mc", chain_model, "<>p", "--world", "nope")[0] == 2


def test_mc_structured_deterministic(capsys, chain_model):
    code, first, _ = run(capsys, "mc", "--format", "structured", chain_model, "<>p")
    _, second, _ = run(capsys, "mc", "--format", "structured", chain_model, "<>p")
    assert first == second
    data = json.loads(first)
    assert data == {
        "extension": ["w0"],
        "formula": "<>p",
        "holds_everywhere": False,
    }


def test_mc_parses_formula_before_opening_model(capsys, tmp_path):
    missing = str(tmp_path / "never-written.json")
    code, _, err = run(capsys, "mc", missing, "p &")
    assert code == 2
    assert "No such file" not in err


def test_mc_rejects_bad_model_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "worlds": ["w0"], "rel": [], "val": {"p": ["ghost"]},
    }))
    code, _, err = run(capsys, "mc", str(path), "p")
    assert code == 2
    assert "ghost" in err or "valuation" in err


@pytest.mark.parametrize("val", [{"p": 3}, ["p"]])
@pytest.mark.parametrize("command", ["mc", "tmc", "analyze"])
def test_loaders_reject_bad_valuation_types(capsys, tmp_path, command, val):
    path = tmp_path / "bad.json"
    if command == "tmc":
        data = {"points": ["x"], "opens": [[], ["x"]], "val": val}
    else:
        data = {"worlds": ["w0"], "rel": [], "val": val}
    path.write_text(json.dumps(data))
    argv = [command, str(path)] + ([] if command == "analyze" else ["p"])
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: malformed")
    assert "Traceback" not in err


SPLIT_STRINGS = {
    "worlds": ("analyze", {"worlds": "ab", "rel": []}),
    "rel": ("analyze", {"worlds": ["a", "b"], "rel": ""}),
    "pair": ("mc", {"worlds": ["a", "b"], "rel": ["ab"]}),
    "val": ("mc", {"worlds": ["a", "b"], "rel": [], "val": {"p": "b"}}),
    "points": ("tmc", {"points": "xy", "opens": [[], ["x"], ["x", "y"]]}),
    "opens": ("tmc", {"points": ["x", "y"], "opens": ["", "x", "xy"]}),
    "space-val": ("tmc", {"points": ["x"], "opens": [[], ["x"]], "val": {"p": "x"}}),
}


@pytest.mark.parametrize("position", sorted(SPLIT_STRINGS))
def test_loaders_reject_strings_where_lists_belong(capsys, tmp_path, position):
    # iterating a string would read "ab" as the worlds a and b
    command, data = SPLIT_STRINGS[position]
    path = tmp_path / "strings.json"
    path.write_text(json.dumps(data))
    argv = [command, str(path)] + ([] if command == "analyze" else ["p"])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed")
    assert "expected a list" in err


SPLIT_OBJECTS = {
    "worlds": ("analyze", {"worlds": {"a": 1, "b": 2}, "rel": []}),
    "pair": ("mc", {"worlds": ["a", "b"], "rel": [{"a": 0, "b": 1}], "val": {"p": ["b"]}}),
    "val": ("mc", {"worlds": ["a", "b"], "rel": [], "val": {"p": {"b": 0}}}),
    "points": ("tmc", {"points": {"x": 1}, "opens": [[], ["x"]]}),
    "opens": ("tmc", {"points": ["x"], "opens": [[], {"x": 0}]}),
    "space-val": ("tmc", {"points": ["x"], "opens": [[], ["x"]], "val": {"p": {"x": 0}}}),
}


@pytest.mark.parametrize("position", sorted(SPLIT_OBJECTS))
def test_loaders_reject_objects_where_lists_belong(capsys, tmp_path, position):
    # iterating an object would read {"a": 0, "b": 1} as the pair a, b
    command, data = SPLIT_OBJECTS[position]
    path = tmp_path / "objects.json"
    path.write_text(json.dumps(data))
    argv = [command, str(path)] + ([] if command == "analyze" else ["p"])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed")
    assert "expected a list" in err


def test_mc_dot(capsys, chain_model):
    code, out, _ = run(capsys, "mc", "--format", "dot", chain_model, "p")
    assert out.startswith("digraph")


# ---------------------------------------------------------------------------
# tmc


def test_tmc(capsys, sierpinski_space):
    code, out, _ = run(capsys, "tmc", sierpinski_space, "<d>p")
    assert code == 1
    assert out.splitlines() == ["x: false", "y: true"]
    assert run(capsys, "tmc", sierpinski_space, "<d>p", "--world", "y")[0] == 0
    _, out, _ = run(capsys, "tmc", "--format", "structured", sierpinski_space, "<>p")
    assert json.loads(out)["extension"] == ["x", "y"]


def test_tmc_rejects_non_topology(capsys, tmp_path):
    path = tmp_path / "notopo.json"
    path.write_text(json.dumps({"points": ["a", "b"], "opens": [["a"]]}))
    assert run(capsys, "tmc", str(path), "p")[0] == 2


# ---------------------------------------------------------------------------
# translate


def test_translate_modes(capsys):
    _, out, _ = run(capsys, "translate", "--mode", "mu", "<t>{p}")
    assert out.strip() == "nu _g0. <>(p & _g0)"
    _, out, _ = run(capsys, "translate", "--mode", "d", "[]p")
    assert out.strip() == "p & [d]p"
    _, out, _ = run(capsys, "translate", "--mode", "star", "[]p")
    assert out.strip() == "nu _g0. p & []_g0"
    code, out, _ = run(
        capsys, "translate", "--mode", "mu", "--format", "structured", "<t>{p}"
    )
    assert json.loads(out) == {
        "input": "<t>{p}", "mode": "mu", "output": "nu _g0. <>(p & _g0)",
    }


def test_translate_fragment_error(capsys):
    code, _, err = run(capsys, "translate", "--mode", "star", "<t>{p}")
    assert code == 2
    assert "fragment" in err


@pytest.mark.parametrize(
    "text", ["~" * 3000 + "p", "(" * 3000 + "p" + ")" * 3000], ids=["negations", "parens"]
)
@pytest.mark.parametrize("command", ["mc", "tmc", "translate"])
def test_deep_formula_exits_2(capsys, chain_model, sierpinski_space, command, text):
    # exit 1 would read as "false"; a formula too deep to handle is bad input
    before = {"mc": [chain_model], "tmc": [sierpinski_space], "translate": ["--mode", "mu"]}
    code, out, err = run(capsys, command, *before[command], text)
    assert code == 2
    assert out == ""
    assert err == "error: formula nested too deeply\n"


@pytest.mark.parametrize(
    "mode,text",
    [("star", "~" * (MAX_DEPTH - 1) + "<>p"), ("mu", "[]" * (MAX_DEPTH - 2) + "<t>{p, <>q}")],
    ids=["star", "mu"],
)
def test_translate_takes_the_deepest_formula_parse_accepts(capsys, mode, text):
    # both inputs nest MAX_DEPTH deep, with the one node that takes a
    # fresh name at the bottom: a walk that recursed once per level would
    # run out of stack here
    code, out, err = run(capsys, "translate", "--mode", mode, text)
    assert (code, err) == (0, "")
    assert out == pretty({"star": star, "mu": to_mu}[mode](parse(text))) + "\n"


def test_translate_star_nests_999_binders_in_linear_time(capsys):
    # every level takes a fresh binder whose positivity check stays where
    # its variable is free
    text = "<>" * 999 + "p"
    start = time.perf_counter()
    code, out, err = run(capsys, "translate", "--mode", "star", text)
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert out == pretty(star(parse(text))) + "\n"


def test_deep_json_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"worlds": ["w"], "rel": [], "val": {"p": ' + "[" * 100000 + "]" * 100000 + "}}")
    code, _, err = run(capsys, "mc", str(path), "p")
    assert code == 2
    assert err == f"error: {path}: JSON nested too deeply\n"


_FUZZ_TOKENS = [
    "~", "[]", "<>", "[d]", "<d>", "<t>", "<dt>", "{", "}", ",", "(", ")",
    "&", "|", "->", "<->", ".", "mu", "nu", "x", "A", "E", "true", "false", "p", " ",
]
_FUZZ_CHARS = "#$%!?;:=+*/\\`'\"[]<>{}\t\n\x00é→"
_FUZZ_NESTING = [("~", ""), ("<>", ""), ("[]", ""), ("(", ")"), ("<t>{", "}"), ("mu x. <>", "")]


def _mutate(rng: random.Random, text: str) -> str:
    kind = rng.randrange(4)
    if kind == 0:  # spliced tokens
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(0, len(text))
            text = text[:i] + rng.choice(_FUZZ_TOKENS) + text[i:]
    elif kind == 1:  # truncation
        text = text[: rng.randint(0, len(text))]
    elif kind == 2:  # stray characters
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(0, len(text))
            text = text[:i] + rng.choice(_FUZZ_CHARS) + text[i:]
    else:  # deep nesting
        opener, closer = rng.choice(_FUZZ_NESTING)
        k = rng.choice([30, 400, 3000])
        text = opener * k + text + closer * k
    return text


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("command", ["mc", "tmc", "translate"])
def test_fuzzed_formulas_keep_the_exit_code_contract(
    capsys, chain_model, sierpinski_space, command, seed
):
    # 0/1 are answers and 2 is bad input; no input may end in a traceback
    rng = random.Random(7100 + seed)
    for _ in range(12):
        phi = random_formula(
            rng, rng.randint(0, 3), ("p", "q"), universal=True, derivative=True
        )
        text = _mutate(rng, pretty(phi))
        before = {
            "mc": [chain_model],
            "tmc": [sierpinski_space],
            # not --mode d: its output doubles with each nested box or diamond
            "translate": ["--mode", rng.choice(["mu", "star"])],
        }[command]
        code, _, err = run(capsys, command, *before, "--", text)
        assert code in (0, 1, 2), (text, err)
        assert "Traceback" not in err


def test_translate_d_prints_shared_output_in_full(capsys):
    # to_d doubles the printed form with each nested diamond: 2^21 - 7 characters
    code, out, _ = run(capsys, "translate", "--mode", "d", "<>" * 18 + "p")
    assert code == 0
    assert len(out) == 2_097_145
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6a3cc3e5f0b699924566051a009ccd3837419d4dcdc27b7f864e2b91e5e49ad6"
    )


@pytest.mark.parametrize(
    "text,size",
    [("<>" * 40 + "p", 8796093022200), ("mu x. " + "<>" * 40 + "x", 8796093022206)],
    ids=["diamonds", "binder"],
)
def test_translate_output_over_the_limit_exits_3(capsys, text, size):
    start = time.perf_counter()
    code, out, err = run(capsys, "translate", "--mode", "d", text)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert err == f"error: the translation would print {size} characters, over the limit of 16777216\n"


@pytest.mark.parametrize(
    "text,size",
    [
        ("<t>{" + "[]" * 26 + "p, q}", 536870904),
        ("<t>{<t>{" + "[]" * 24 + "p, q}, r}", 134217720),
        ("<dt>{" + "[]" * 26 + "p, q}", 536870904),
    ],
    ids=["member", "inner", "derivative"],
)
def test_translate_d_refuses_a_long_tangle_member_before_building_it(
    capsys, monkeypatch, text, size
):
    # to_d orders a tangle's translated members by their printed text, which
    # doubles with each box; a member's text is part of the output, so one
    # too long to print is refused before any translated tangle is built
    def built(*args):
        raise AssertionError("a translated tangle was built")

    monkeypatch.setattr("tangles.translate.TangleD", built)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "translate", "--mode", "d", text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert err == (
        f"error: the translation would print at least {size} characters,"
        f" over the limit of {cli._PRINT_LIMIT}\n"
    )
    assert peak < 1 << 20


def test_translate_d_measures_the_whole_output_when_each_member_fits(capsys):
    code, out, err = run(capsys, "translate", "--mode", "d", "<t>{" + "[]" * 20 + "p, q}")
    assert (code, out) == (3, "")
    assert err == "error: the translation would print 25165828 characters, over the limit of 16777216\n"


@pytest.mark.parametrize("seed", range(12))
def test_fuzzed_formulas_keep_the_exit_code_contract_in_mode_d(capsys, seed):
    # 3 means the output would exceed the print limit
    rng = random.Random(7300 + seed)
    for _ in range(12):
        phi = random_formula(
            rng, rng.randint(0, 3), ("p", "q"), universal=True, derivative=True
        )
        text = _mutate(rng, pretty(phi))
        code, _, err = run(capsys, "translate", "--mode", "d", "--", text)
        assert code in (0, 1, 2, 3), (text, err)
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_fork(capsys, fork_model):
    code, out, _ = run(capsys, "analyze", fork_model, "--format", "structured")
    assert code == 0
    data = json.loads(out)
    assert data["worlds"] == 3
    assert data["transitive"] is True
    assert data["reflexive"] is False
    assert data["serial"] is True
    assert data["connected"] is True
    assert data["path_components"] == 1
    assert data["locally_1_connected"] is False
    assert data["min_local_connectedness"] == 2
    by_worlds = {tuple(c["worlds"]): c for c in data["clusters"]}
    assert by_worlds[("r",)]["degenerate"] is True
    assert by_worlds[("x",)]["rank"] == 1
    assert by_worlds[("r",)]["rank"] == 2


def test_analyze_text_and_dot(capsys, fork_model):
    _, out, _ = run(capsys, "analyze", fork_model)
    assert "locally_1_connected: False" in out
    assert "cluster rank 2: r degenerate" in out
    _, out, _ = run(capsys, "analyze", fork_model, "--format", "dot")
    assert out.startswith("digraph")


# ---------------------------------------------------------------------------
# filtrate / untangle


def test_filtrate(capsys, chain_model):
    code, out, _ = run(capsys, "filtrate", chain_model, "<>p")
    assert code == 0
    assert "mode: standard" in out
    code, out, _ = run(
        capsys, "filtrate", chain_model, "<>p", "--mode", "refined",
        "--format", "structured",
    )
    data = json.loads(out)
    assert data["mode"] == "refined"
    assert len(data["classes"]) == 3
    assert set(data["model"]) == {"worlds", "rel", "val"}


def test_untangle_ok(capsys, chain_model):
    code, out, _ = run(capsys, "untangle", chain_model, "<t>{p}")
    assert code == 0
    assert "reduction: ok" in out


def test_untangle_reflexive_mode_failure(capsys, chain_model):
    code, out, err = run(
        capsys, "untangle", chain_model, "<t>{p}", "<>true", "--reflexive",
        "--format", "structured",
    )
    assert code == 1
    assert "reduction failed" in err
    data = json.loads(out)
    assert data["reduction_ok"] is False
    assert data["reduction_failure"]["formula"] == "<t>{p}"
    assert data["reduction_failure"]["source_truth"] is False


def test_untangle_roots_from_file(capsys, chain_model, tmp_path):
    roots = tmp_path / "roots.txt"
    roots.write_text("<t>{p}\n<>true\n")
    code, out, _ = run(
        capsys, "untangle", chain_model, "--formula-file", str(roots)
    )
    assert code == 0
    assert "reduction: ok" in out
    # roots both inline and from a file is a usage error
    assert run(
        capsys, "untangle", chain_model, "p", "--formula-file", str(roots)
    )[0] == 2
    assert run(capsys, "untangle", chain_model)[0] == 2


def test_roots_file_of_blank_lines_is_an_input_error(capsys, chain_model, tmp_path):
    roots = tmp_path / "blank.txt"
    roots.write_text("\n  \n\t\n")
    for command in ("filtrate", "untangle"):
        code, out, err = run(capsys, command, chain_model, "--formula-file", str(roots))
        assert code == 2 and not out
        assert f"no formulas in {roots}" in err


# ---------------------------------------------------------------------------
# sat / validate


def test_sat_found(capsys):
    code, out, _ = run(
        capsys, "sat", "--profile", "K4t", "--max", "2",
        "--format", "structured", "<t>{p, ~p}",
    )
    assert code == 0
    data = json.loads(out)
    assert data["worlds"] == ["w0", "w1"]
    assert sorted(map(tuple, data["rel"])) == [
        ("w0", "w0"), ("w0", "w1"), ("w1", "w0"), ("w1", "w1"),
    ]
    assert data["val"] == {"p": ["w0"]}


def test_sat_not_found_and_budget(capsys):
    code, _, err = run(
        capsys, "sat", "--profile", "K4", "--max", "3", "<>true & []false"
    )
    assert code == 1
    assert "no K4 model within 3 worlds" in err
    code, _, err = run(
        capsys, "sat", "--profile", "K4", "--max", "6", "--budget", "100",
        "<>true & []false",
    )
    assert code == 3
    assert "exhausted" in err
    assert run(capsys, "sat", "--profile", "K9", "--max", "2", "p")[0] == 2


def test_validate(capsys, fork_model, chain_model):
    g1 = pretty(instantiate("G1", Atom("p"), Neg(Atom("p"))))
    code, out, _ = run(capsys, "validate", "--frame", fork_model, g1)
    assert code == 1
    assert out.strip() == "fails at r under p={x}"
    code, out, _ = run(capsys, "validate", "--frame", fork_model, "<><>p -> <>p")
    assert code == 0
    assert out.strip() == "valid (8 valuations)"
    code, out, _ = run(
        capsys, "validate", "--frame", fork_model, "--format", "structured", g1
    )
    data = json.loads(out)
    assert data == {
        "checked": 3,
        "valid": False,
        "witness_valuation": {"p": ["x"]},
        "witness_world": "r",
    }
    code, _, err = run(
        capsys, "validate", "--frame", chain_model, "--budget", "2",
        "p | q | ~p",
    )
    assert code == 3


# ---------------------------------------------------------------------------
# axioms / fixture


def test_axioms(capsys):
    _, out, _ = run(capsys, "axioms", "--schema", "4", "-f", "p")
    assert out.strip() == "<><>p -> <>p"
    _, out, _ = run(capsys, "axioms", "--schema", "Tt", "-s", "p, q")
    assert out.strip() == "p & q -> <t>{p, q}"
    _, braced, _ = run(capsys, "axioms", "--schema", "Tt", "-s", "{p, q}")
    assert braced == out
    _, out, _ = run(capsys, "axioms", "--schema", "Ind", "-s", "p", "-f", "q")
    assert "<t>{p}" in out
    code, out, _ = run(
        capsys, "axioms", "--schema", "G1", "--format", "structured"
    )
    assert json.loads(out)["schema"] == "G1"
    assert run(capsys, "axioms", "--schema", "Z")[0] == 2
    assert run(capsys, "axioms", "--schema", "Fix")[0] == 2


def test_axioms_over_the_print_limit_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_PRINT_LIMIT", 50)
    code, out, err = run(capsys, "axioms", "--schema", "G3")
    size = len(pretty(instantiate("G3")))
    assert (code, out) == (3, "")
    assert err == f"error: the instance would print {size} characters, over the limit of 50\n"
    assert run(capsys, "axioms", "--schema", "4", "-f", "p")[:2] == (0, "<><>p -> <>p\n")


@pytest.mark.parametrize("n", [100_000, 99_999_999_999])
def test_axioms_refuse_a_large_gn_before_building_it(capsys, monkeypatch, n):
    # the instance has about n² nodes, so it is sized from n alone
    size = logics._gn_length(f"G{n}")

    def built(*args):
        raise AssertionError("the instance was built")

    monkeypatch.setattr(logics, "instantiate", built)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "axioms", "--schema", f"G{n}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert err == f"error: the instance would print {size} characters, over the limit of {cli._PRINT_LIMIT}\n"
    assert peak < 1 << 20


def test_recursion_error_exits_2(capsys, monkeypatch):
    # the parser refuses deep nesting itself; this is the last line of
    # defence should a walker still run out of stack
    def too_deep(text):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "parse", too_deep)
    assert run(capsys, "fmt", "p") == (2, "", "error: formula nested too deeply\n")


def test_fixture_figure3(capsys):
    code, out, _ = run(capsys, "fixture", "figure3", "--m", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "worlds: a0 b0 b1"
    assert any(line.startswith("p0:") for line in lines)
    code, out, _ = run(capsys, "fixture", "figure3", "--m", "0", "--constraints")
    assert code == 0
    assert "E (<>p0 & <>r & <>g)" in out
    code, out, _ = run(
        capsys, "fixture", "figure3", "--m", "4", "--constraints",
        "--format", "structured",
    )
    data = json.loads(out)
    assert set(data) == {"model", "constraints"}
    assert len(data["constraints"]) == 6  # indices up to 4 // 3 == 1
    assert run(capsys, "fixture", "figure3", "--m", "-1")[0] == 2


@pytest.mark.parametrize("fmt", ["text", "structured", "dot"])
def test_fixture_length_bound_holds_in_every_format(capsys, fmt):
    # the bound the fixture is refused by is never above what it prints;
    # DOT prints no constraints, so their bound is not added
    from tangles.logics import _figure3_length

    for m in [*range(40), 99, 100, 101, 333]:
        for flags in ([], ["--constraints"]):
            code, out, _ = run(capsys, "fixture", "figure3", "--m", str(m), "--format", fmt, *flags)
            assert code == 0
            assert _figure3_length(m, bool(flags) and fmt != "dot") <= len(out), (m, flags)
    # the pair constraints dominate, and the bound counts them all
    if fmt == "text":
        code, out, _ = run(capsys, "fixture", "figure3", "--m", "300", "--constraints")
        assert (len(out), _figure3_length(300, True)) == (118120, 103477)


@pytest.mark.parametrize("argv, size", [
    (["--m", "100000000000"], 11900000000194),
    (["--m", "4000", "--constraints"], 18298902),
    (["--m", "4000", "--constraints", "--format", "structured"], 18298902),
])
def test_fixture_refuses_an_output_over_the_limit_before_building_it(
    capsys, monkeypatch, argv, size
):
    def built(*args):
        raise AssertionError("the fixture was built")

    monkeypatch.setattr("tangles.logics.figure3_model", built)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "fixture", "figure3", *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert err == (
        f"error: the fixture would print at least {size} characters,"
        f" over the limit of {cli._PRINT_LIMIT}\n"
    )
    assert peak < 1 << 20


@pytest.fixture(scope="module")
def oversized(tmp_path_factory):
    """A model of 100,003 worlds and no pairs, and a space of as many points
    with only the empty and the whole set open, past the world limit."""
    names = [f"w{i}" for i in range(100_003)]
    folder = tmp_path_factory.mktemp("oversized")
    (folder / "model.json").write_text(json.dumps({"worlds": names, "rel": []}))
    (folder / "space.json").write_text(json.dumps({"points": names, "opens": [[], names]}))
    return {"MODEL": str(folder / "model.json"), "SPACE": str(folder / "space.json")}


@pytest.mark.parametrize("argv, what, n", [
    (["fixture", "figure3", "--m", "200000"], "a frame of 400003 worlds", 400_003),
    (["mc", "MODEL", "p"], "a frame of 100003 worlds", 100_003),
    (["analyze", "MODEL"], "a frame of 100003 worlds", 100_003),
    (["tmc", "SPACE", "p"], "a space of 100003 points", 100_003),
])
def test_an_oversized_frame_or_space_is_refused_before_its_bit_table(
    capsys, oversized, argv, what, n
):
    from tangles.kripke import _WORLD_LIMIT

    tracemalloc.start()
    try:
        code, out, err = run(capsys, *[oversized.get(arg, arg) for arg in argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert err == f"error: {what} is over the limit of {_WORLD_LIMIT}\n"
    # linear in the input, a few hundred bytes a world, where the table of
    # world bits alone would take n²/15 bytes for n worlds
    assert peak < 512 * n < n * n // 15 // 8


def test_fixture_dot_builds_no_constraints(capsys, monkeypatch):
    # DOT draws the model alone, so --constraints builds none
    plain = run(capsys, "fixture", "figure3", "--m", "30", "--format", "dot")
    assert plain[0] == 0

    def built(*args):
        raise AssertionError("the constraints were built")

    monkeypatch.setattr("tangles.logics.figure3_constraints", built)
    assert run(capsys, "fixture", "figure3", "--m", "30", "--constraints", "--format", "dot") == plain


def test_axioms_member_set_errors_exit_2(capsys):
    # a -s text is one member set, and error positions count from it
    code, out, err = run(capsys, "axioms", "--schema", "G1", "-s", "{p} & q")
    assert (code, out, err) == (2, "", "error: trailing input '&' (at position 4)\n")
    code, out, err = run(capsys, "axioms", "--schema", "Tt", "-s", "p, $")
    assert (code, out, err) == (2, "", "error: unexpected character '$' (at position 3)\n")


def test_negative_budget_exits_2(capsys, chain_model):
    code, _, err = run(capsys, "validate", "--frame", chain_model, "--budget", "-1", "p")
    assert (code, err) == (2, "error: the budget must not be negative, got -1\n")
    code, _, err = run(capsys, "sat", "--profile", "K4", "--max", "2", "--budget", "-5", "p")
    assert (code, err) == (2, "error: the budget must not be negative, got -5\n")
    # a budget of 0 is a search cut short
    assert run(capsys, "validate", "--frame", chain_model, "--budget", "0", "p")[0] == 3
    assert run(capsys, "sat", "--profile", "K4", "--max", "2", "--budget", "0", "p")[0] == 3


def _exit_code(capsys, argv):
    """main's exit code, also when argparse exits, with stdout and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("seed", range(12))
def test_fuzzed_formula_arguments_keep_the_exit_code_contract(capsys, tmp_path, seed):
    # formula arguments of fmt, axioms, validate and sat; 3 is a budget used up
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps({"worlds": ["a", "b"], "rel": [["a", "b"], ["b", "b"]]}))
    rng = random.Random(7500 + seed)
    for _ in range(12):
        phi = random_formula(rng, rng.randint(0, 3), ("p", "q"), universal=True, derivative=True)
        text = _mutate(rng, pretty(phi))
        argv = rng.choice([
            ["fmt", "--format", rng.choice(["text", "structured"]), "--", text],
            ["axioms", "--schema", rng.choice(["Tt", "4t", "Fix"]), f"--set={text}"],
            ["axioms", "--schema", "Ind", "-s", "p, q", f"--formula={text}"],
            ["axioms", "--schema", rng.choice(["4", "T", "U"]), f"--formula={text}"],
            ["validate", "--frame", str(frame), "--budget", "4096", "--", text],
            ["sat", "--profile", rng.choice(["K4", "S4"]), "--max", "2", "--budget", "4096",
             "--", text],
        ])
        code, _, err = _exit_code(capsys, argv)
        assert code in (0, 1, 2, 3), (argv, err)
        assert "Traceback" not in err


_INTRANSITIVE_CHAIN = {
    "worlds": ["a", "b", "c"],
    "rel": [["a", "b"], ["b", "c"], ["c", "c"]],
    "val": {"p": ["c"]},
}


@pytest.mark.parametrize("command", [["mc"], ["validate", "--frame"]])
def test_tangles_on_an_intransitive_frame_exit_2(capsys, tmp_path, command):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(_INTRANSITIVE_CHAIN))
    for text in ("<t>{p}", "<dt>{p}"):
        code, out, err = run(capsys, *command, str(path), text)
        assert (code, out, err) == (2, "", "error: tangle formulas require a transitive frame\n")
    # a formula without tangles still gets its answer on the same frame
    code, out, err = run(capsys, *command, str(path), "<>p")
    assert (code, err) == (1, "")
    assert out


# A transitive model: a sees the cluster {b, c}, which sees the reflexive
# endpoint d; and a space whose specialization order is the chain x, y, z.
_FUZZ_MODEL = {
    "worlds": ["a", "b", "c", "d"],
    "rel": [["a", "b"], ["a", "c"], ["a", "d"], ["b", "b"], ["b", "c"], ["b", "d"],
            ["c", "b"], ["c", "c"], ["c", "d"], ["d", "d"]],
    "val": {"p": ["b", "d"], "q": ["c"]},
}
_FUZZ_SPACE = {
    "points": ["x", "y", "z"],
    "opens": [[], ["x"], ["x", "y"], ["x", "y", "z"]],
    "val": {"p": ["x", "y"]},
}
# Per command: the arguments around the input file, the input, the exit code
# on the unmutated input and the output formats the command accepts.
# <t>{p, q} fails only at d, which sees no cluster with both.  <t>{p} holds
# at every point of the space, since each sees x, a p-point that is a
# cluster of its own, while <dt>{p} holds nowhere, since a finite T0 space
# has no dense-in-itself part.  A tangle implies the diamond of each member,
# and the reduction holds.
_FORMATS = ("text", "structured")
_FORMATS_DOT = (*_FORMATS, "dot")
_FUZZ_JOBS = {
    "mc": (["mc"], ["<t>{p, q}"], _FUZZ_MODEL, 1, _FORMATS_DOT),
    "tmc": (["tmc"], ["<t>{p} & ~<dt>{p}"], _FUZZ_SPACE, 0, _FORMATS),
    "analyze": (["analyze"], [], _FUZZ_MODEL, 0, _FORMATS_DOT),
    "filtrate": (["filtrate"], ["<t>{p, q}", "<>true"], _FUZZ_MODEL, 0, _FORMATS_DOT),
    "untangle": (["untangle"], ["<t>{p, q}", "<>true"], _FUZZ_MODEL, 0, _FORMATS_DOT),
    "validate": (["validate", "--frame"], ["<t>{p} -> <>p"], _FUZZ_MODEL, 0, _FORMATS),
}


def _json_positions(data, path=()):
    """The paths to every value below the top of ``data``."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _json_positions(value, path + (key,))


def _mutate_json(rng: random.Random, data):
    """A copy of ``data`` with one position changed: an entry or key
    dropped, a world swapped for an unknown one, or a list or object turned
    into a string or the other container."""
    data = copy.deepcopy(data)
    *parents, last = rng.choice(list(_json_positions(data)))
    parent = functools.reduce(operator.getitem, parents, data)
    value = parent[last]
    if rng.random() < 0.4:
        del parent[last]
    elif isinstance(value, str):
        parent[last] = "nowhere"
    elif isinstance(value, list):
        parent[last] = rng.choice(["x", {"x": ["x"]}])
    else:
        parent[last] = rng.choice(["x", ["x"]])
    return data


@pytest.mark.parametrize("command", sorted(_FUZZ_JOBS))
def test_fuzzed_inputs_keep_the_exit_code_contract(capsys, tmp_path, command):
    # 0/1 are answers, 2 is bad input and 3 a budget used up, whatever the
    # output format; an exit of 2 or 3 prints one error line, and no input
    # may end in a traceback
    before, after, data, oracle, formats = _FUZZ_JOBS[command]
    path = tmp_path / "input.json"

    def codes(given):
        """The exit codes on the input ``given`` under every format, each
        checked against the contract."""
        path.write_text(json.dumps(given))
        found = set()
        for fmt in formats:
            code, _, err = run(capsys, *before, str(path), *after, "--format", fmt)
            assert code in (0, 1, 2, 3), (fmt, given, err)
            assert "Traceback" not in err
            if code in (2, 3):
                assert err.startswith("error: ") and err.count("\n") == 1, (fmt, given, err)
            found.add(code)
        return found

    assert codes(data) == {oracle}
    rng = random.Random(7700 + sorted(_FUZZ_JOBS).index(command))
    for _ in range(60):
        mutated = _mutate_json(rng, data)
        # the format changes what is printed, not the answer
        assert len(codes(mutated)) == 1, mutated


def _env() -> dict:
    """The environment with this checkout's sources first on the path."""
    path = [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


_REPEATED_ARGV = [
    ["fmt", "((p)) & (q | r)"],
    ["fmt"],
    ["mc"],
    ["--help"],
    ["axioms", "--help"],
    ["translate", "--mode", "x", "p"],
    ["axioms", "--schema", "Tt", "-s", "q, p"],
    ["axioms", "--schema", "Tt", "-s", "p", "-s", "{q}"],
    ["axioms", "--schema", "Ind", "-s", "p", "-f", "q", "--format", "structured"],
    ["axioms", "--schema", "G1", "-s", "{p} & q"],
    ["sat", "--profile", "K4", "--max", "2", "--budget", "-5", "p"],
]


def test_repeated_calls_match_fresh_processes(capsys, monkeypatch):
    # the parser is built once per process, so a call must leave nothing
    # behind in it: each call prints and exits as a fresh process does
    monkeypatch.setenv("COLUMNS", "80")
    fresh = []
    for argv in _REPEATED_ARGV:
        proc = subprocess.run([sys.executable, "-m", "tangles.cli", *argv], env=_env(),
                              capture_output=True, text=True, timeout=60)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    for _ in range(2):
        for argv, want in zip(_REPEATED_ARGV, fresh):
            assert _exit_code(capsys, argv) == want, argv


def test_importing_the_cli_builds_no_parser():
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import tangles.cli\n"
        "print(len(built))\n"
        "tangles.cli.build_parser()\n"
        "tangles.cli.main(['fmt', 'p'])\n"
        "print(len(built))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    # nothing at import; the parser and its eleven subparsers once
    assert proc.stdout.split() == ["0", "p", "12"]


_WATCHED_MODULES = ("tangles.filtration", "tangles.logics", "tangles.topo",
                    "dataclasses", "inspect", "typing")
# the filtration's results are records like the rest, so no subcommand
# loads dataclasses (or inspect, which it loads)
_FILTRATION = ["tangles.filtration"]


@pytest.mark.parametrize("argvs, loaded", [
    ([], []),
    ([["fmt", "p & q"], ["mc", "chain.json", "<t>{p} -> <>p"],
      ["translate", "--mode", "d", "<t>{p}"]], []),
    ([["tmc", "sierpinski.json", "<dt>{p} -> <d>p"]], ["tangles.topo"]),
    ([["analyze", "chain.json"]], _FILTRATION),
    ([["filtrate", "chain.json", "<>p"]], _FILTRATION),
    ([["untangle", "chain.json", "<t>{p}"]], _FILTRATION),
    ([["sat", "--profile", "K4", "--max", "2", "<>p"]], ["tangles.logics"]),
    ([["validate", "--frame", "chain.json", "[]p -> [][]p"]], ["tangles.logics"]),
    ([["axioms", "--schema", "4", "-f", "p"]], ["tangles.logics"]),
    ([["fixture", "figure3", "--m", "3"]], ["tangles.logics"]),
], ids=["import", "fmt-mc-translate", "tmc", "analyze", "filtrate", "untangle", "sat",
        "validate", "axioms", "fixture"])
def test_subcommands_load_only_the_modules_they_use(tmp_path, chain_model, sierpinski_space,
                                                    argvs, loaded):
    """In a fresh interpreter, ``import tangles, tangles.cli`` loads none of
    ``filtration``, ``logics`` and ``topo``; a subcommand loads the one it
    uses, and ``fmt``, ``mc`` and ``translate`` none.  Nothing loads
    ``dataclasses``, ``inspect`` or ``typing``.  The probe runs without ``site``, whose path files may load
    ``typing`` before the package does."""
    probe = (
        "import contextlib, io, sys\n"
        "import tangles, tangles.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [tangles.cli.main(argv) for argv in {argvs!r}]\n"
        "print(codes)\n"
        f"print([m for m in {_WATCHED_MODULES!r} if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", probe], cwd=tmp_path, env=_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == [str([0] * len(argvs)), str(loaded)]


def test_stray_pair_is_named_in_file_order(tmp_path):
    # the first pair outside the world set in the file, whatever the hash seed
    path = tmp_path / "stray.json"
    path.write_text(json.dumps({
        "worlds": ["a"],
        "rel": [["a", "x1"], ["a", "x2"], ["y3", "a"], ["z4", "a"]],
    }))
    for seed in ("1", "4"):
        proc = subprocess.run([sys.executable, "-m", "tangles.cli", "analyze", str(path)],
                              env=_env() | {"PYTHONHASHSEED": seed},
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: relation pair ('a', 'x1') outside the world set\n"
        ), seed


# ---------------------------------------------------------------------------
# Structured output: cli._json_text against json.dumps


class _Level(enum.IntEnum):
    LOW = 1


class _Name(str):
    pass


# quote, backslash, newline, control characters, DEL, non-ASCII, an astral
# character and both halves of a surrogate pair on their own
_AWKWARD = ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "𝔭", "\ud835", "\udd2d", "a", " ", "/"]


def _random_string(rng: random.Random) -> str:
    return "".join(rng.choice(_AWKWARD) for _ in range(rng.randrange(5)))


def _random_leaf(rng: random.Random):
    return rng.choice([
        lambda: _random_string(rng),
        lambda: rng.randrange(-5, 5),
        lambda: rng.randrange(-10 ** 300, 10 ** 300),
        lambda: rng.choice([True, False, None]),
        # written by json.dumps
        lambda: rng.choice([0.5, -1e300, float("nan"), _Level.LOW, _Name(_random_string(rng))]),
    ])()


def _random_pairs(rng: random.Random) -> list:
    pairs = [[_random_string(rng), _random_string(rng)] for _ in range(rng.randrange(1, 5))]
    spoil = rng.randrange(4)
    if spoil == 1:  # ragged
        pairs.append(rng.choice([[], ["x"], ["x", "y", "z"]]))
    elif spoil == 2:  # a member that is not a string
        pairs[rng.randrange(len(pairs))][rng.randrange(2)] = rng.choice([3, None, ["x"]])
    rng.shuffle(pairs)
    return pairs


def _random_json(rng: random.Random, depth: int):
    """A value of depth at most ``depth`` made of the CLI's output types and
    of the ones that the writer hands to ``json.dumps``."""
    if depth == 0 or rng.random() < 0.25:
        return _random_leaf(rng)
    size = rng.randrange(4)
    return rng.choice([
        lambda: [_random_json(rng, depth - 1) for _ in range(size)],
        lambda: {_random_string(rng): _random_json(rng, depth - 1) for _ in range(size)},
        lambda: tuple(_random_json(rng, depth - 1) for _ in range(size)),
        lambda: {rng.randrange(-9, 9): _random_json(rng, depth - 1) for _ in range(size)},
        lambda: {_Name(_random_string(rng)): _random_json(rng, depth - 1) for _ in range(size)},
        lambda: [rng.choice([[], {}, [[]], {"": {}}]) for _ in range(size)],
        lambda: {_random_string(rng): rng.choice([[], {}, [{}], {"": []}]) for _ in range(size)},
        lambda: _random_pairs(rng),
        lambda: [_random_string(rng) for _ in range(size)],
    ])()


def test_json_text_matches_json_dumps():
    fixed = [
        {}, [], (), "", 0, -0, True, None, [[]], {"a": {}}, [{}, []],
        [["u", "v"]], [["u", "v"], ["w"]], [["u", 1], ["v", "w"]], [["u", None]],
        [("u", "v")], {"rel": [["a\"b", "new\nline"], ["é", "𝔭"]]},
        {2: "b", -1: "a"}, _Level.LOW, _Name("x"), [float("nan")],
        # empties nested in lists and dicts, written without json.dumps
        {"a": [[], {}], "b": {"c": [], "d": {}}}, [[[], [{}]], {"x": {"y": {"z": []}}}],
        [["u", "v"], []], {"rel": [], "val": {}, "worlds": ["w"]}, [{}, {"": []}, [[]]],
    ]
    rng = random.Random(20261019)
    for value in fixed + [_random_json(rng, 4) for _ in range(3000)]:
        assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True), value


_AWKWARD_NAMES = ['a"b', "back\\slash", "new\nline", "é", "𝔭"]
# a"b sees everything; back\slash, new\nline and é form a cluster above the
# reflexive endpoint 𝔭; every name also names an atom
_AWKWARD_MODEL = {
    "worlds": _AWKWARD_NAMES,
    "rel": [[_AWKWARD_NAMES[0], w] for w in _AWKWARD_NAMES[1:]]
    + [[u, v] for u in _AWKWARD_NAMES[1:4] for v in _AWKWARD_NAMES[1:]]
    + [[_AWKWARD_NAMES[4], _AWKWARD_NAMES[4]]],
    "val": {"p": _AWKWARD_NAMES[1:3], "q": _AWKWARD_NAMES[3:]}
    | {name: [name] for name in _AWKWARD_NAMES},
}
_AWKWARD_SPACE = {
    "points": _AWKWARD_NAMES,
    "opens": [[], _AWKWARD_NAMES[:1], _AWKWARD_NAMES[:3], _AWKWARD_NAMES],
    "val": {"p": _AWKWARD_NAMES[:2]} | {name: [name] for name in _AWKWARD_NAMES},
}
_STRUCTURED_ARGV = {
    "mc": ["mc", "model.json", "<>p"],
    "analyze": ["analyze", "model.json"],
    "filtrate": ["filtrate", "model.json", "<t>{p, q}", "<>true"],
    "untangle": ["untangle", "model.json", "<t>{p, q}", "<>true"],
    "validate": ["validate", "--frame", "model.json", "<t>{p} -> <>p"],
    "sat": ["sat", "--profile", "K4t", "--max", "2", "<t>{p, ~p}"],
    "tmc": ["tmc", "space.json", "<d>p"],
    "fmt": ["fmt", "[]p -> <t>{q, p}"],
    "translate": ["translate", "--mode", "mu", "<t>{p, q}"],
    "axioms": ["axioms", "--schema", "Tt", "-s", "q, p"],
    "fixture": ["fixture", "figure3", "--m", "4", "--constraints"],
}


@pytest.mark.parametrize("command", sorted(_STRUCTURED_ARGV))
def test_structured_output_round_trips_through_json(capsys, tmp_path, monkeypatch, command):
    # what every subcommand prints is what json.dumps prints for the same
    # data, also for world names that need escaping
    (tmp_path / "model.json").write_text(json.dumps(_AWKWARD_MODEL))
    (tmp_path / "space.json").write_text(json.dumps(_AWKWARD_SPACE))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *_STRUCTURED_ARGV[command], "--format", "structured")
    assert code in (0, 1) and not err.startswith("error:"), err
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
