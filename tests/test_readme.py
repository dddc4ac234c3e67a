"""The README's python blocks run as written and give the values their comments state."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def run_python_blocks(text: str):
    """Exec every ```python block in one namespace, in order; return the
    namespace and the value of each bare expression statement."""
    namespace, values = {}, []
    for block in re.findall(r"^```python\n(.*?)^```", text, re.M | re.S):
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr):
                values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"),
                                   namespace))
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return namespace, values


def test_readme_quick_start_states_its_results():
    namespace, values = run_python_blocks(README.read_text())
    assert namespace["survivors"] == [0, 1, 2]
    assert namespace["out"].success_probability == pytest.approx(3 / 4, abs=1e-12)
    fidelity, nonlocal_pairs = values
    assert fidelity == pytest.approx(3 / 4, abs=1e-12)
    assert nonlocal_pairs == 3
    assert namespace["alc"].AllocationParams(7, 3).total_pairwise_gates == 21
