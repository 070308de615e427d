"""The python examples of README.md run, in order and in one namespace,
and each result they state in a comment is the one they give; the
command-line tour runs on the examples' own model and space."""

import ast
import io
import json
import re
import shlex
import tokenize
from pathlib import Path

from tangles import cli, model_to_dict, parse, space_to_dict
from tangles.formula import FormulaError

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    """The statements of README's python blocks, each with the comment on
    its last line (or None)."""
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"^```python\n(.*?)^```", text, re.M | re.S):
        comments = {
            tok.start[0]: tok.string[1:].strip()
            for tok in tokenize.generate_tokens(io.StringIO(block).readline)
            if tok.type == tokenize.COMMENT
        }
        for stmt in ast.parse(block).body:
            yield stmt, comments.get(stmt.end_lineno)


def _stated(comment):
    """What a comment states as a result: a Python literal, as
    ``("value", v)``, or a printed formula, as ``("formula", text)``; None
    for prose."""
    try:
        return "value", eval(comment, {"__builtins__": {}, "frozenset": frozenset})
    except (NameError, SyntaxError):
        pass
    try:
        parse(comment)
    except FormulaError:
        return None
    return "formula", comment


def test_readme_examples_give_the_results_they_state():
    namespace: dict = {}
    checked = []
    for stmt, comment in _examples():
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        result = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        stated = comment and _stated(comment)
        if stated:
            kind, want = stated
            got = str(result) if kind == "formula" else result
            assert got == want, ast.unparse(stmt)
            checked.append(ast.unparse(stmt))
    # str(phi), model_check, topo_model_check, to_mu and to_d
    assert len(checked) == 5, checked


def test_readme_command_line_tour_runs(tmp_path, monkeypatch, capsys):
    # model.json is the Kripke example (worlds w0, w1), space.json the
    # Sierpinski space of the topological one; every line of the tour
    # answers (exit 0 or 1) without a traceback
    namespace: dict = {}
    for stmt, _ in _examples():
        exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    model, tm = namespace["model"], namespace["tm"]
    assert model.frame.worlds == ("w0", "w1")
    for name, data in (("model.json", model_to_dict(model)),
                       ("space.json", space_to_dict(tm.space, tm.val))):
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) == 12 and all(argv[0] == "tangles" for argv in commands)
    for argv in commands:
        code = cli.main(argv[1:])
        out, err = capsys.readouterr()
        assert code in (0, 1), (argv, err)
        assert "Traceback" not in out + err, argv
