"""Every certificate that ``src/`` can fail is named by some test.

An ``AxiomError`` names the law it certifies.  A name that no test
mentions is a certificate that no planted fault has been shown to reach,
so this static check parses ``src/`` and the tests with ``ast`` and asks
that each literal first argument of ``AxiomError(...)`` appears as a
string literal in some test file.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def raised_names():
    """{name: "module.py:line"} for each string literal passed as the first
    argument of an ``AxiomError(...)`` call in ``src/``."""
    names = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "AxiomError" and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                names.setdefault(node.args[0].value,
                                 f"{path.name}:{node.lineno}")
    return names


def literals_in_tests():
    """Every string literal in the other test files."""
    return {node.value for path in (ROOT / "tests").glob("*.py")
            if path.name != Path(__file__).name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_axiom_error_name_is_named_by_a_test():
    raised = raised_names()
    assert "coseparability-form" in raised and len(raised) >= 20
    named = literals_in_tests()
    assert {name: site for name, site in raised.items()
            if name not in named} == {}
