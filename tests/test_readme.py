"""The python examples of README.md run, in order and in one namespace,
and each result they state in a comment is the one they give."""

import ast
import io
import re
import tokenize
from pathlib import Path

from tangles import parse
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
