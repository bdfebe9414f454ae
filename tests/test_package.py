"""The package's public surface."""

import ast
import re
from pathlib import Path

import cvqkd_mon

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(cvqkd_mon.__file__).parent


def defined_names(module: str) -> set[str]:
    """Names a module binds at its top level itself, not by import."""
    names = set()
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_all_lists_exactly_the_imported_public_names():
    tree = ast.parse(Path(cvqkd_mon.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    public = {name for name in imported if not name.startswith("_")}
    assert len(cvqkd_mon.__all__) == len(set(cvqkd_mon.__all__))
    assert set(cvqkd_mon.__all__) == public


def test_top_level_is_the_calculator_and_its_two_exceptions():
    # the covariance toolkit stays in cvqkd_mon.gaussian, reached from there
    exceptions = {"UnphysicalStateError", "NumericalInstabilityError"}
    calculator = defined_names("schemes") | defined_names("finite_size")
    assert exceptions <= set(cvqkd_mon.__all__)
    assert set(cvqkd_mon.__all__) - exceptions <= calculator
    assert len(cvqkd_mon.__all__) == 23


def test_readme_library_use_runs():
    text = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["bd"].scheme == "passive_bs"
    assert namespace["d"] > 2.0
    assert abs(namespace["eta"] - 10 ** -0.3) < 1e-12
