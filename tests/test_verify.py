"""What the verifier may read: its imports and the attributes of G it
touches, from its source, and the table check it makes itself."""

import ast
import sys

import pytest

from forcing_lab import FiniteGroup, PreconditionViolated, parse_group_spec, verify_certificate
from forcing_lab import verify

TREE = ast.parse(open(verify.__file__, encoding="utf-8").read())

# all that verify.py reads of a group
GROUP_ATTRIBUTES = {"mul_table", "order", "inv_table"}


def _guarded_nodes():
    """Every node under an `if TYPE_CHECKING:` block."""
    return {id(node) for block in ast.walk(TREE)
            if isinstance(block, ast.If) and isinstance(block.test, ast.Name)
            and block.test.id == "TYPE_CHECKING"
            for statement in block.body for node in ast.walk(statement)}


def _annotation_nodes():
    """Every node of a parameter, return or variable annotation."""
    roots = [node.annotation for node in ast.walk(TREE)
             if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None]
    roots += [node.returns for node in ast.walk(TREE)
              if isinstance(node, ast.FunctionDef) and node.returns is not None]
    return {id(node) for root in roots for node in ast.walk(root)}


def test_imports_only_numpy_errors_and_integer_arithmetic():
    guarded = _guarded_nodes()
    for node in ast.walk(TREE):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name == "numpy" or alias.name in sys.stdlib_module_names, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            assert node.module.split(".")[0] in sys.stdlib_module_names, node.module
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            assert (node.level, node.module) in ((1, "errors"), (1, "groups")), node.module
            if node.module == "groups":
                assert names <= {"prime_power", "is_prime"}, names


def test_names_imported_for_type_checking_appear_only_in_annotations():
    guarded = _guarded_nodes()
    imported = {alias.asname or alias.name for node in ast.walk(TREE)
                if id(node) in guarded and isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert {"FiniteGroup", "ForcingCertificate"} <= imported
    annotations = _annotation_nodes()
    used = {node.id for node in ast.walk(TREE)
            if isinstance(node, ast.Name) and id(node) not in annotations}
    assert not imported & used


def test_reads_only_the_table_order_and_inverses_of_a_group():
    # every name a group answers to: methods, properties, instance fields
    G = parse_group_spec("preset:Dihedral(8)")
    members = set(dir(FiniteGroup)) | set(vars(G))
    read = {node.attr for node in ast.walk(TREE) if isinstance(node, ast.Attribute)}
    assert read & members == GROUP_ATTRIBUTES


def test_wrong_inverse_table_is_refused_by_name(cert_of):
    G = parse_group_spec("preset:Dihedral(8)")
    # row 3 without the identity: the table's inverse of 3 is then wrong
    table = G.mul_table.copy()
    table[3, G.inv(3)] = 3
    bad = FiniteGroup(table, G.generators, spec=G.spec)
    with pytest.raises(PreconditionViolated, match=r"^inv_table\[3\] is not the inverse of 3$"):
        verify_certificate(bad, cert_of("preset:Dihedral(8)"))
    assert verify_certificate(G, cert_of("preset:Dihedral(8)")).all_passed
