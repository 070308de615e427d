"""Golden outputs: every subcommand in every format it accepts.

Each case runs ``tangles.cli.main`` on small fixed inputs and compares its
exit code, the sha256 of its stdout (first 16 hex digits) and its stderr with
values recorded from an earlier version of the command line.  Output is part
of the program's contract, so a refactor of the output code must keep these
unchanged; a deliberate change of output updates ``GOLDEN`` in the same
commit.  Argparse usage errors and ``--help`` are left out: their wording
varies between Python versions.
"""

import hashlib
import json

import pytest

from tangles.cli import build_parser, main

INPUTS = {
    "chain.json": {
        "worlds": ["w0", "w1", "w2"],
        "rel": [["w0", "w1"], ["w1", "w2"], ["w0", "w2"]],
        "val": {"p": ["w0", "w1"]},
    },
    # r sees everything; {a, b, d} is a proper cluster above the reflexive
    # endpoint c; e is an irreflexive endpoint.  a and d agree on p and q.
    "cluster.json": {
        "worlds": ["r", "a", "b", "d", "c", "e"],
        "rel": [["r", w] for w in "abdce"]
        + [[u, v] for u in "abd" for v in "abdc"]
        + [["c", "c"]],
        "val": {"p": ["a", "d", "c"], "q": ["b"]},
    },
    "line.json": {
        "worlds": ["u", "v", "w"],
        "rel": [["u", "v"], ["v", "w"]],
    },
    "fork.json": {
        "worlds": ["r", "x", "y"],
        "rel": [["r", "x"], ["r", "y"], ["x", "x"], ["y", "y"]],
    },
    "space.json": {
        "points": ["x", "y", "z"],
        "opens": [[], ["x"], ["x", "y"], ["x", "z"], ["x", "y", "z"]],
        "val": {"p": ["x"], "q": ["y"]},
    },
}

CASES = {
    "fmt-text": ["fmt", "((p)) & (q | r)"],
    "fmt-structured": ["fmt", "--format", "structured", "[]p -> <t>{q, p}"],
    "fmt-parse-error": ["fmt", "p &"],
    "fmt-file": ["fmt", "--formula-file", "formula.txt"],
    "mc-text": ["mc", "chain.json", "<>p"],
    "mc-text-world-true": ["mc", "chain.json", "<>p", "--world", "w0"],
    "mc-text-world-false": ["mc", "chain.json", "<>p", "--world", "w1"],
    "mc-text-world-unknown": ["mc", "chain.json", "<>p", "--world", "nope"],
    "mc-structured": ["mc", "--format", "structured", "cluster.json", "<t>{p, q}"],
    "mc-structured-world": ["mc", "--format", "structured", "cluster.json", "<t>{p, q}",
                            "--world", "r"],
    "mc-dot": ["mc", "--format", "dot", "cluster.json", "mu x. p | <>x"],
    "mc-dot-world": ["mc", "--format", "dot", "chain.json", "p", "--world", "w2"],
    "mc-missing-file": ["mc", "missing.json", "p"],
    "tmc-text": ["tmc", "space.json", "<d>p"],
    "tmc-text-world": ["tmc", "space.json", "<t>{p, q}", "--world", "y"],
    "tmc-structured": ["tmc", "--format", "structured", "space.json", "<>q"],
    "tmc-structured-world": ["tmc", "--format", "structured", "space.json", "[]p",
                             "--world", "x"],
    "translate-mu-text": ["translate", "--mode", "mu", "<t>{p, q}"],
    "translate-d-text": ["translate", "--mode", "d", "[]<>p"],
    "translate-star-structured": ["translate", "--mode", "star", "--format", "structured",
                                  "[]p -> <>q"],
    "translate-mu-structured": ["translate", "--mode", "mu", "--format", "structured",
                                "<t>{p, <t>{q}}"],
    "translate-fragment-error": ["translate", "--mode", "star", "<t>{p}"],
    "analyze-text": ["analyze", "cluster.json"],
    "analyze-text-line": ["analyze", "line.json"],
    "analyze-structured": ["analyze", "--format", "structured", "cluster.json"],
    "analyze-structured-line": ["analyze", "--format", "structured", "line.json"],
    "analyze-dot": ["analyze", "--format", "dot", "fork.json"],
    "filtrate-text": ["filtrate", "cluster.json", "<t>{p, q}", "<>p"],
    "filtrate-text-refined": ["filtrate", "cluster.json", "<t>{p, q}", "--mode", "refined"],
    "filtrate-structured": ["filtrate", "--format", "structured", "cluster.json", "<>q"],
    "filtrate-structured-refined": ["filtrate", "--format", "structured", "--mode", "refined",
                                    "cluster.json", "<t>{p, q}"],
    "filtrate-dot": ["filtrate", "--format", "dot", "chain.json", "<>p"],
    "filtrate-dot-refined": ["filtrate", "--format", "dot", "--mode", "refined",
                             "cluster.json", "<t>{p, q}"],
    "filtrate-file": ["filtrate", "chain.json", "--formula-file", "roots.txt"],
    "filtrate-no-roots": ["filtrate", "chain.json"],
    "untangle-text": ["untangle", "cluster.json", "<t>{p, q}", "<>p"],
    "untangle-text-refined": ["untangle", "cluster.json", "<t>{p, q}", "--mode", "refined"],
    "untangle-text-reflexive": ["untangle", "cluster.json", "<t>{p, q}", "--reflexive"],
    "untangle-text-reflexive-fails": ["untangle", "chain.json", "<t>{p}", "<>true",
                                      "--reflexive"],
    "untangle-structured": ["untangle", "--format", "structured", "cluster.json", "<t>{p, q}"],
    "untangle-structured-refined": ["untangle", "--format", "structured", "--mode", "refined",
                                    "cluster.json", "<t>{p, q}", "<>q"],
    "untangle-structured-reflexive-fails": ["untangle", "--format", "structured", "chain.json",
                                            "<t>{p}", "<>true", "--reflexive"],
    "untangle-dot": ["untangle", "--format", "dot", "cluster.json", "<t>{p, q}"],
    "untangle-dot-refined-reflexive": ["untangle", "--format", "dot", "--mode", "refined",
                                       "--reflexive", "cluster.json", "<t>{p, q}"],
    "untangle-file": ["untangle", "chain.json", "--formula-file", "roots.txt"],
    "sat-text": ["sat", "--profile", "K4t", "--max", "2", "<t>{p, ~p}"],
    "sat-structured": ["sat", "--profile", "K4t", "--max", "2", "--format", "structured",
                       "<t>{p, ~p}"],
    "sat-dot": ["sat", "--profile", "S4", "--max", "2", "--format", "dot", "<>p & <>~p"],
    "sat-not-found": ["sat", "--profile", "K4", "--max", "3", "<>true & []false"],
    "sat-budget": ["sat", "--profile", "K4", "--max", "6", "--budget", "100",
                   "<>true & []false"],
    "sat-budget-structured": ["sat", "--profile", "K4", "--max", "6", "--budget", "100",
                              "--format", "structured", "<>true & []false"],
    "sat-bad-profile": ["sat", "--profile", "K9", "--max", "2", "p"],
    "validate-text-valid": ["validate", "--frame", "chain.json", "<><>p -> <>p"],
    "validate-text-fails": ["validate", "--frame", "line.json", "<><>p -> <>p"],
    "validate-structured-valid": ["validate", "--frame", "fork.json", "--format", "structured",
                                  "[]p -> [][]p"],
    "validate-structured-fails": ["validate", "--frame", "cluster.json", "--format",
                                  "structured", "<>p -> <>(p & q)"],
    "validate-budget": ["validate", "--frame", "cluster.json", "--budget", "10",
                        "<>p -> <>q"],
    "validate-budget-structured": ["validate", "--frame", "cluster.json", "--budget", "10",
                                   "--format", "structured", "<>p -> <>q"],
    "axioms-text": ["axioms", "--schema", "4", "-f", "p"],
    "axioms-text-set": ["axioms", "--schema", "Tt", "-s", "p, q"],
    "axioms-structured": ["axioms", "--schema", "Fix", "-s", "{p, q}", "--format",
                          "structured"],
    "fixture-text": ["fixture", "figure3", "--m", "3"],
    "fixture-text-constraints": ["fixture", "figure3", "--m", "6", "--constraints"],
    "fixture-structured": ["fixture", "figure3", "--m", "3", "--format", "structured"],
    "fixture-structured-constraints": ["fixture", "figure3", "--m", "6", "--constraints",
                                       "--format", "structured"],
    "fixture-dot": ["fixture", "figure3", "--m", "3", "--format", "dot"],
    "fixture-dot-constraints": ["fixture", "figure3", "--m", "6", "--constraints",
                                "--format", "dot"],
}

#: case -> (exit code, sha256 of stdout truncated to 16 hex digits, stderr)
GOLDEN = {
    'analyze-dot': (0, '159112440f8ecb69', ''),
    'analyze-structured': (0, '594fabf8ddc041c3', ''),
    'analyze-structured-line': (0, '77beda86f75a3f56', ''),
    'analyze-text': (0, '8ddece959752c401', ''),
    'analyze-text-line': (0, '9743ac5ad597bb7f', ''),
    'axioms-structured': (0, '8ae310fd7c8ef19f', ''),
    'axioms-text': (0, '735de481f6962599', ''),
    'axioms-text-set': (0, '81b3920e94e63118', ''),
    'filtrate-dot': (0, 'a444f65342d616b1', ''),
    'filtrate-dot-refined': (0, '75e2fc7ab597ca59', ''),
    'filtrate-file': (0, '39dbafe58618ccc3', ''),
    'filtrate-no-roots': (2, 'e3b0c44298fc1c14', 'error: give formulas inline or via --formula-file, not both\n'),
    'filtrate-structured': (0, '0abc28d877bb3115', ''),
    'filtrate-structured-refined': (0, '2f3ebf13b4ef7b01', ''),
    'filtrate-text': (0, 'c7c408a15ed7ef9b', ''),
    'filtrate-text-refined': (0, '04210a0c7b02009c', ''),
    'fixture-dot': (0, '74c200402d5c463e', ''),
    'fixture-dot-constraints': (0, '648c924bd10b6c6f', ''),
    'fixture-structured': (0, '5a74d3a00c213b16', ''),
    'fixture-structured-constraints': (0, '7fea287785e8bb91', ''),
    'fixture-text': (0, 'ee8add236ef51874', ''),
    'fixture-text-constraints': (0, '7ecf575fd171db2d', ''),
    'fmt-file': (0, 'a98113988c18ae50', ''),
    'fmt-parse-error': (2, 'e3b0c44298fc1c14', "error: unexpected 'end of input' (at position 3)\n"),
    'fmt-structured': (0, 'da245bb46d86e46a', ''),
    'fmt-text': (0, 'df8a22f308639c9b', ''),
    'mc-dot': (1, '9e483a92cb9e0d18', ''),
    'mc-dot-world': (1, '95d6cfedfdec498b', ''),
    'mc-missing-file': (2, 'e3b0c44298fc1c14', "error: [Errno 2] No such file or directory: 'missing.json'\n"),
    'mc-structured': (1, 'fd84e6ad1a638765', ''),
    'mc-structured-world': (0, 'fd84e6ad1a638765', ''),
    'mc-text': (1, '997ea2108dfaaa4e', ''),
    'mc-text-world-false': (1, '997ea2108dfaaa4e', ''),
    'mc-text-world-true': (0, '997ea2108dfaaa4e', ''),
    'mc-text-world-unknown': (2, 'e3b0c44298fc1c14', "error: unknown world 'nope'\n"),
    'sat-bad-profile': (2, 'e3b0c44298fc1c14', "error: cannot parse logic name 'K9'\n"),
    'sat-budget': (3, 'e3b0c44298fc1c14', 'error: search budget 100 exhausted on 4-world frames\n'),
    'sat-budget-structured': (3, 'e3b0c44298fc1c14', 'error: search budget 100 exhausted on 4-world frames\n'),
    'sat-dot': (0, '2412ec13f7b4a00a', ''),
    'sat-not-found': (1, 'e3b0c44298fc1c14', 'no K4 model within 3 worlds\n'),
    'sat-structured': (0, '71ef3f420612136c', ''),
    'sat-text': (0, '304162784812e5c8', ''),
    'tmc-structured': (1, 'a2ced6a6affc6238', ''),
    'tmc-structured-world': (0, 'd52fe90b75cef6ac', ''),
    'tmc-text': (1, '469ee83b4debb24a', ''),
    'tmc-text-world': (1, '605f1070ce1a63a5', ''),
    'translate-d-text': (0, '595fa1e1677def69', ''),
    'translate-fragment-error': (2, 'e3b0c44298fc1c14', 'error: operator outside the box/fixpoint fragment: <t>{p}\n'),
    'translate-mu-structured': (0, '88cd9bac3bb68ff3', ''),
    'translate-mu-text': (0, '91ec79c49e97ef3a', ''),
    'translate-star-structured': (0, '206e15ff489b128f', ''),
    'untangle-dot': (0, '75e2fc7ab597ca59', ''),
    'untangle-dot-refined-reflexive': (0, '75e2fc7ab597ca59', ''),
    'untangle-file': (0, '2e6338f311d8f3e9', ''),
    'untangle-structured': (0, '4eb94eb84cd60a81', ''),
    'untangle-structured-refined': (0, 'b71e157fc081caf0', ''),
    'untangle-structured-reflexive-fails': (1, 'bf7ebc95cd545fb8', 'reduction failed: <t>{p} at w0: source False, quotient True\n'),
    'untangle-text': (0, '68bf20fd08be02c6', ''),
    'untangle-text-refined': (0, '995c8702f5681d1b', ''),
    'untangle-text-reflexive': (0, 'd398b7606b1ed34c', ''),
    'untangle-text-reflexive-fails': (1, '9356405f748fe824', 'reduction failed: <t>{p} at w0: source False, quotient True\n'),
    'validate-budget': (3, 'e3b0c44298fc1c14', 'error: 4096 valuations exceed the budget of 10\n'),
    'validate-budget-structured': (3, 'e3b0c44298fc1c14', 'error: 4096 valuations exceed the budget of 10\n'),
    'validate-structured-fails': (1, '32c380192b4e3ebe', ''),
    'validate-structured-valid': (0, '9eac2c9765576e37', ''),
    'validate-text-fails': (1, '8e229d7e30bb3f0a', ''),
    'validate-text-valid': (0, '597c530a9b777ac9', ''),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for name, data in INPUTS.items():
        (root / name).write_text(json.dumps(data), encoding="utf-8")
    (root / "roots.txt").write_text("<t>{p}\n\n<>true\n", encoding="utf-8")
    (root / "formula.txt").write_text("[]p\n  -> q\n", encoding="utf-8")
    return root


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, inputs, capsys, monkeypatch):
    # relative paths keep file names in error messages independent of
    # where the inputs were written
    monkeypatch.chdir(inputs)
    code = main(CASES[case])
    captured = capsys.readouterr()
    assert (code, _digest(captured.out), captured.err) == GOLDEN[case]


def test_cases_cover_every_subcommand_and_format():
    parser = build_parser()
    subs = next(a for a in parser._actions if a.dest == "command")
    want = set()
    for command, sub in subs.choices.items():
        fmt = next(a for a in sub._actions if a.dest == "format")
        want |= {(command, choice) for choice in fmt.choices}
    got = set()
    for argv in CASES.values():
        args = parser.parse_args(argv)
        got.add((args.command, args.format))
    assert got == want
    assert len(want) == 28
