"""The package's export list against the names its __init__ imports."""

import ast

import forcing_lab


def test_all_lists_every_name_the_package_imports_once():
    tree = ast.parse(open(forcing_lab.__file__, encoding="utf-8").read())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert len(forcing_lab.__all__) == len(set(forcing_lab.__all__))
    assert set(forcing_lab.__all__) == imported
    assert all(hasattr(forcing_lab, name) for name in imported)
