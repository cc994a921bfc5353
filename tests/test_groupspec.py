import numpy as np
import pytest

from forcing_lab import (
    GroupSpecError,
    OrderCapExceeded,
    catalog_entries,
    direct_product,
    from_generators,
    parse_group_spec,
    spec_text,
    subgroup_as_group,
    sylow_decomposition,
)
from forcing_lab.groups import prime_power

from conftest import quotient_group


class TestPermSpecs:
    def test_parse_cyclic(self):
        G = parse_group_spec("perm:6:(0 1 2 3 4 5)")
        assert G.order == 6

    def test_parse_multiple_generators(self):
        G = parse_group_spec("perm:3:(0 1 2),(0 1)")
        assert G.order == 6
        assert not np.array_equal(G.mul_table, G.mul_table.T)

    def test_parse_multi_cycle_generator(self):
        G = parse_group_spec("perm:4:(0 1)(2 3)")
        assert G.order == 2

    def test_identity_spec(self):
        G = parse_group_spec("perm:3:()")
        assert G.order == 1
        assert spec_text(G) == "perm:3:()"

    def test_round_trip(self):
        for text in ["perm:6:(0 1 2 3 4 5)", "perm:3:(0 1 2),(0 1)",
                     "perm:8:(0 1 2 3),(1 3)(4 5 6 7)", "perm:6:(4 5)(1 2 0)"]:
            G = parse_group_spec(text)
            again = parse_group_spec(spec_text(G))
            assert again.order == G.order
            assert spec_text(again) == spec_text(G)
        # least point first inside each cycle, cycles in order of it
        assert spec_text(parse_group_spec("perm:6:(4 5)(1 2 0)")) == "perm:6:(0 1 2)(4 5)"
        # points no cycle moves are dropped, and the others keep their labels
        assert (spec_text(parse_group_spec("perm:50:(40 10)(3 7 5)(9),(49 0)"))
                == "perm:50:(3 7 5)(10 40),(0 49)")

    def test_canonical_text_keeps_distinct_moving_generators_first_seen(self):
        G = parse_group_spec("perm:4:(),(2 3),(0 1),(3 2),()")
        assert spec_text(G) == "perm:4:(2 3),(0 1)"
        assert spec_text(parse_group_spec("perm:4:(),()")) == "perm:4:()"

    def test_whitespace_tolerated(self):
        G = parse_group_spec("  perm:3:(0 1 2) , (0 1)  ")
        assert G.order == 6

    @pytest.mark.parametrize("bad", [
        "perm:3:",
        "perm:3:(0 1 2",
        "perm:3:(0 5)",
        "perm:3:(0 0 1)",
        "perm:0:()",
        "perm:x:(0 1)",
        "perm:3:(0 1)junk",
        "perm:3:(0 1)(1 2)",
        "nonsense",
        "perm",
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(GroupSpecError):
            parse_group_spec(bad)


class TestPresetSpecs:
    def test_known_presets_build(self):
        for text, order in [
            ("preset:Cyclic(12)", 12),
            ("preset:ElemAbelian(3,2)", 9),
            ("preset:Abelian(4,2,2)", 16),
            ("preset:Dihedral(8)", 8),
            ("preset:GenQuaternion(2)", 16),
            ("preset:SemiDihedral(16)", 16),
            ("preset:ModularMaximalCyclic(16)", 16),
            ("preset:Heisenberg(5)", 125),
            ("preset:Extraspecial(3,1)", 27),
        ]:
            assert parse_group_spec(text).order == order

    def test_spec_is_remembered(self):
        G = parse_group_spec("preset:Heisenberg(3)")
        assert spec_text(G) == "preset:Heisenberg(3)"

    @pytest.mark.parametrize("bad", [
        "preset:NoSuchGroup(3)",
        "preset:Cyclic()",
        "preset:Cyclic(2,3)",
        "preset:Cyclic(x)",
        "preset:Cyclic(0)",
        "preset:Dihedral(5)",
        "preset:Heisenberg(4)",
        "preset:Extraspecial(2,1)",
        "preset:GenQuaternion(0)",
        "preset:Cyclic",
    ])
    def test_malformed_presets_rejected(self, bad):
        with pytest.raises(GroupSpecError):
            parse_group_spec(bad)


class TestProductSpecs:
    def test_product_builds(self):
        G = parse_group_spec("product:preset:Cyclic(4)|preset:Cyclic(3)")
        assert G.order == 12
        assert spec_text(G) == "product:preset:Cyclic(4)|preset:Cyclic(3)"

    def test_three_factor_product(self):
        G = parse_group_spec(
            "product:preset:Cyclic(2)|preset:Cyclic(3)|preset:Cyclic(5)")
        assert G.order == 30

    def test_product_of_perm_parts(self):
        G = parse_group_spec("product:perm:2:(0 1)|perm:3:(0 1 2)")
        assert G.order == 6

    @pytest.mark.parametrize("bad", [
        "product:",
        "product:preset:Cyclic(2)",
        "product:preset:Cyclic(2)|",
        "product:product:preset:Cyclic(2)|preset:Cyclic(3)|preset:Cyclic(5)",
        "product:junk|preset:Cyclic(2)",
    ])
    def test_malformed_products_rejected(self, bad):
        with pytest.raises(GroupSpecError):
            parse_group_spec(bad)


def test_cap_enforced():
    with pytest.raises(OrderCapExceeded):
        parse_group_spec("preset:Cyclic(100)", cap=50)


def test_cap_boundary_inclusive():
    assert parse_group_spec("preset:Cyclic(50)", cap=50).order == 50


def _groups_built_without_a_spec():
    for entry in catalog_entries():
        G = parse_group_spec(entry.spec)
        if prime_power(G.order) is None:
            for p, sub in sylow_decomposition(G).items():
                yield f"{entry.spec} Sylow {p}", subgroup_as_group(sub)
    for spec in ["preset:Dihedral(16)", "preset:Heisenberg(3)", "preset:Abelian(4,2)",
                 "preset:SemiDihedral(16)", "perm:8:(0 1 2 3),(1 3)(4 5 6 7)"]:
        G = parse_group_spec(spec)
        yield f"{spec} center", subgroup_as_group(G.center())
        yield f"{spec} Frattini", subgroup_as_group(G.frattini())
        yield f"{spec} / center", quotient_group(G, G.center())
        yield f"{spec} trivial", subgroup_as_group(G.trivial_subgroup())
    yield "Dihedral(8) x Heisenberg(3)", direct_product(
        [parse_group_spec("preset:Dihedral(8)"), parse_group_spec("preset:Heisenberg(3)")])
    yield "raw rows", from_generators([(1, 0, 2, 3, 4), (0, 1, 3, 4, 2), (1, 0, 2, 3, 4)], 5)
    yield "raw identity", from_generators([(0, 1, 2)], 3)
    yield "no generators, degree 1", from_generators([], 1)
    yield "no generators, degree 4", from_generators([], 4)


def test_spec_text_of_a_group_without_a_spec_reparses_to_it():
    """spec_text of a group built without a spec is its right-regular
    representation, which parses to the identical table and generators."""
    for name, G in _groups_built_without_a_spec():
        assert G.spec is None, name
        text = spec_text(G)
        assert text.startswith(f"perm:{G.order}:"), name
        again = parse_group_spec(text)
        assert np.array_equal(again.mul_table, G.mul_table), name
        assert np.array_equal(again.inv_table, G.inv_table), name
        assert again.generators == G.generators, name
        assert spec_text(again) == text, name


def test_spec_text_of_a_sylow_factor_is_pinned():
    G = parse_group_spec("product:preset:Heisenberg(3)|preset:Cyclic(4)")
    K = subgroup_as_group(sylow_decomposition(G)[3])
    assert spec_text(K) == (
        "perm:27:(0 1 2)(3 14 22)(4 12 23)(5 13 21)(6 24 15)(7 25 16)(8 26 17)(9 10 11)"
        "(18 19 20),(0 3 6)(1 4 7)(2 5 8)(9 12 15)(10 13 16)(11 14 17)(18 21 24)"
        "(19 22 25)(20 23 26)")
