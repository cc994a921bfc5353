import pytest

from forcing_lab import (
    NotAPGroup,
    NotNilpotent,
    PNotDividing,
    count_order_p_subgroups,
    is_cyclic,
    is_elementary_abelian,
    is_generalized_quaternion,
    is_nilpotent,
    p_group_profile,
    subgroup_as_group,
    sylow_decomposition,
    sylow_factors,
)
from forcing_lab.groups import prime_power


class TestQuaternionDetector:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_quaternion_profile(self, group_of, n):
        G = group_of(f"preset:GenQuaternion({n})")
        assert G.order == 2 ** (n + 2)
        prof = p_group_profile(G)
        assert prof.p == 2
        assert prof.p_class == n + 1
        assert prof.rank == 2
        assert not prof.is_cyclic
        assert prof.quaternion_index == n
        assert len(G.center().members) == 2
        assert count_order_p_subgroups(G, 2) == 1

    def test_dihedral_is_not_quaternion(self, group_of):
        assert is_generalized_quaternion(group_of("preset:Dihedral(8)")) is None
        assert count_order_p_subgroups(group_of("preset:Dihedral(8)"), 2) == 5

    def test_semidihedral_and_modular_are_not_quaternion(self, group_of):
        assert is_generalized_quaternion(group_of("preset:SemiDihedral(16)")) is None
        assert is_generalized_quaternion(
            group_of("preset:ModularMaximalCyclic(16)")) is None

    def test_cyclic_two_group_is_not_quaternion(self, group_of):
        # C4 also has a unique involution; the detector must still say no
        assert is_generalized_quaternion(group_of("preset:Cyclic(4)")) is None
        assert is_generalized_quaternion(group_of("preset:Cyclic(8)")) is None

    def test_odd_group_is_not_quaternion(self, group_of):
        assert is_generalized_quaternion(group_of("preset:Heisenberg(3)")) is None


class TestProfiles:
    def test_cyclic_eight(self, group_of):
        prof = p_group_profile(group_of("preset:Cyclic(8)"))
        assert (prof.p, prof.n, prof.p_class, prof.rank) == (2, 3, 3, 1)
        assert prof.is_cyclic
        assert prof.quaternion_index is None

    def test_c2_x_c4(self, group_of):
        prof = p_group_profile(group_of("preset:Abelian(2,4)"))
        assert (prof.p, prof.n, prof.p_class, prof.rank) == (2, 3, 2, 2)
        assert not prof.is_cyclic

    def test_heisenberg(self, group_of):
        G = group_of("preset:Heisenberg(3)")
        prof = p_group_profile(G)
        assert (prof.p, prof.n, prof.p_class, prof.rank) == (3, 3, 2, 2)
        assert G.exponent() == 3

    def test_extraspecial_exponent_p(self, group_of):
        G = group_of("preset:Extraspecial(3,2)")
        prof = p_group_profile(G)
        assert (prof.p, prof.n, prof.p_class, prof.rank) == (3, 5, 2, 4)
        assert G.exponent() == 3
        assert len(G.center().members) == 3

    def test_elementary_abelian_has_class_one(self, group_of):
        prof = p_group_profile(group_of("preset:ElemAbelian(3,2)"))
        assert prof.p_class == 1
        assert prof.rank == 2

    def test_profile_rejects_non_p_group(self, group_of):
        with pytest.raises(NotAPGroup):
            p_group_profile(group_of("preset:Cyclic(6)"))

    def test_profile_rejects_trivial_group(self, group_of):
        with pytest.raises(NotAPGroup):
            p_group_profile(group_of("perm:3:()"))


class TestPredicates:
    def test_prime_power_of_the_order(self, group_of):
        assert prime_power(group_of("preset:Cyclic(8)").order) == (2, 3)
        assert prime_power(group_of("preset:Heisenberg(3)").order) == (3, 3)
        assert prime_power(group_of("preset:Cyclic(6)").order) is None
        assert prime_power(group_of("perm:3:()").order) is None

    def test_is_cyclic(self, group_of):
        assert is_cyclic(group_of("preset:Cyclic(12)"))
        assert not is_cyclic(group_of("preset:ElemAbelian(2,2)"))

    def test_is_elementary_abelian(self, group_of):
        assert is_elementary_abelian(group_of("preset:ElemAbelian(5,2)")) == (5, 2)
        assert is_elementary_abelian(group_of("preset:Cyclic(4)")) is None
        assert is_elementary_abelian(group_of("preset:Cyclic(3)")) == (3, 1)

    def test_rank_and_class(self, group_of):
        G = group_of("preset:Abelian(4,4)")
        assert G.generator_rank() == 2
        assert G.p_class() == 2

    def test_count_order_p_subgroups(self, group_of):
        assert count_order_p_subgroups(group_of("preset:ElemAbelian(2,2)"), 2) == 3
        assert count_order_p_subgroups(group_of("preset:Cyclic(4)"), 2) == 1
        assert count_order_p_subgroups(group_of("preset:GenQuaternion(1)"), 2) == 1
        assert count_order_p_subgroups(group_of("preset:ElemAbelian(3,2)"), 3) == 4

    def test_count_order_p_subgroups_requires_divisor(self, group_of):
        with pytest.raises(PNotDividing):
            count_order_p_subgroups(group_of("preset:Cyclic(4)"), 3)


class TestSylow:
    def test_c12_decomposes(self, group_of):
        G = group_of("product:preset:Cyclic(4)|preset:Cyclic(3)")
        factors = sylow_decomposition(G)
        assert sorted(factors) == [2, 3]
        assert len(factors[2].members) == 4
        assert len(factors[3].members) == 3

    def test_q8_x_c3_factors(self, group_of):
        G = group_of("product:preset:GenQuaternion(1)|preset:Cyclic(3)")
        factors = sylow_decomposition(G)
        two = subgroup_as_group(factors[2])
        assert is_generalized_quaternion(two) == 1
        three = subgroup_as_group(factors[3])
        assert is_cyclic(three)

    def test_s3_is_not_nilpotent(self, group_of):
        G = group_of("perm:3:(0 1 2),(0 1)")
        assert not is_nilpotent(G)
        with pytest.raises(NotNilpotent):
            sylow_decomposition(G)

    def test_factors_of_a_p_group_are_the_group_itself(self, group_of):
        G = group_of("preset:Heisenberg(3)")
        [(p, P)] = sylow_factors(G)
        assert p == 3 and P is G

    def test_factors_of_c6(self, group_of):
        factors = sylow_factors(group_of("preset:Cyclic(6)"))
        assert [(p, P.order) for p, P in factors] == [(2, 2), (3, 3)]

    def test_factors_of_q8_x_c3(self, group_of):
        (two, Q), (three, C) = sylow_factors(
            group_of("product:preset:GenQuaternion(1)|preset:Cyclic(3)"))
        assert (two, Q.order, is_generalized_quaternion(Q)) == (2, 8, 1)
        assert (three, C.order, is_cyclic(C)) == (3, 3, True)

    def test_trivial_group_has_no_factors(self, group_of):
        assert sylow_factors(group_of("perm:3:()")) == []

    def test_factors_of_s3_are_refused(self, group_of):
        with pytest.raises(NotNilpotent):
            sylow_factors(group_of("perm:3:(0 1 2),(0 1)"))

    def test_p_group_is_nilpotent(self, group_of):
        assert is_nilpotent(group_of("preset:Dihedral(8)"))
        assert not is_nilpotent(group_of("perm:4:(0 1 2 3),(0 1)"))
