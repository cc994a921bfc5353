"""The package's export list against the names its __init__ imports, and
against the code that uses them."""

import ast
from pathlib import Path

import forcing_lab


def test_all_lists_every_name_the_package_imports_once():
    tree = ast.parse(open(forcing_lab.__file__, encoding="utf-8").read())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert len(forcing_lab.__all__) == len(set(forcing_lab.__all__))
    assert set(forcing_lab.__all__) == imported
    assert all(hasattr(forcing_lab, name) for name in imported)


ROOT = Path(forcing_lab.__file__).resolve().parents[2]


def _used_names():
    """The names that code outside the package's __init__ reads: in every
    module of the package, the demos and the benchmark, each loaded name,
    each attribute and each string constant (the benchmark patches methods
    by their names), and separately the attributes alone. A definition's
    own name is neither loaded nor an attribute, so it does not count."""
    files = [path for path in sorted((ROOT / "src" / "forcing_lab").glob("*.py"))
             if path.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    names, attributes = set(), set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names | attributes, attributes


def test_every_exported_name_is_used_outside_the_tests():
    used, _ = _used_names()
    assert sorted(set(forcing_lab.__all__) - used) == []


def test_every_public_group_method_is_used_as_an_attribute():
    """A bare name would not do: local variables such as verify.py's mul
    share the names of methods."""
    _, attributes = _used_names()
    public = {f"{cls.__name__}.{name}" for cls in (forcing_lab.FiniteGroup, forcing_lab.Subgroup)
              for name, value in vars(cls).items()
              if not name.startswith("_") and (callable(value) or isinstance(value, property))}
    assert sorted(name for name in public if name.split(".")[1] not in attributes) == []
