"""The package's public surface."""

import ast
from pathlib import Path

import cvqkd_mon


def test_all_lists_exactly_the_imported_public_names():
    tree = ast.parse(Path(cvqkd_mon.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    public = {name for name in imported if not name.startswith("_")}
    assert len(cvqkd_mon.__all__) == len(set(cvqkd_mon.__all__))
    assert set(cvqkd_mon.__all__) == public
