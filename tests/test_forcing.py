import numpy as np
import pytest

from forcing_lab import (
    CyclicGroup,
    FiniteGroup,
    ForcingCertificate,
    ForcingStep,
    ForcingWitness,
    MalformedCertificate,
    NotAPGroup,
    PreconditionViolated,
    QuaternionGroup,
    Subgroup,
    TWISTED_C4_SPEC,
    build_forcing_sequence,
    central_step_witness,
    is_forcing,
    is_generalized_quaternion,
    p_group_profile,
    verify_certificate,
)

BUILDABLE = [
    "preset:Dihedral(8)",
    "preset:Abelian(2,4)",
    "preset:Abelian(4,4)",
    "preset:SemiDihedral(16)",
    "preset:ModularMaximalCyclic(16)",
    "preset:Heisenberg(3)",
    "preset:Extraspecial(3,2)",
    "preset:ElemAbelian(3,2)",
    TWISTED_C4_SPEC,
]


def _order_p_kernel(G, order):
    """First normal subgroup of the given prime order, by member tuple."""
    orders = G.orders()
    for m in range(1, G.order):
        if int(orders[m]) == order:
            H = G.subgroup_closure([m])
            if len(H.members) == order and G.is_normal(H):
                return H
    raise AssertionError("no such kernel")


class TestIsForcing:
    def test_elementary_abelian_quotient_is_forcing(self, group_of):
        E9 = group_of("preset:ElemAbelian(3,2)")
        q = E9.quotient(_order_p_kernel(E9, 3))
        witness = is_forcing(q)
        assert witness is not None
        assert witness.class_order == 3
        assert witness.checked_fiber_sizes == (3,)

    def test_c6_to_c3_is_not_forcing(self, group_of):
        C6 = group_of("preset:Cyclic(6)")
        q = C6.quotient(_order_p_kernel(C6, 2))
        assert q.target.order == 3
        assert is_forcing(q) is None

    def test_q8_to_klein_four_is_not_forcing(self, group_of):
        Q8 = group_of("preset:GenQuaternion(1)")
        q = Q8.quotient(Q8.center())
        assert q.target.order == 4
        assert is_forcing(q) is None

    def test_c4_to_c2_is_not_forcing(self, group_of):
        C4 = group_of("preset:Cyclic(4)")
        q = C4.quotient(_order_p_kernel(C4, 2))
        assert is_forcing(q) is None

    def test_d4_to_v4_is_forcing(self, group_of):
        D4 = group_of("preset:Dihedral(8)")
        q = D4.quotient(D4.center())
        witness = is_forcing(q)
        assert witness is not None
        assert witness.class_order == 2


class TestCentralStepWitness:
    def test_agrees_with_brute_force(self, group_of):
        """The targeted witness search and the exhaustive predicate must pick
        the same class on every central index-p quotient we build."""
        for spec in BUILDABLE:
            G = group_of(spec)
            cert = build_forcing_sequence(G)
            for i in range(1, len(cert.chain) - 1):
                lower = Subgroup(G, cert.chain[i + 1])
                upper_members = cert.chain[i]
                q_low = G.quotient(lower)
                src = q_low.target
                kernel = src.subgroup_closure(
                    sorted({int(q_low.project[m]) for m in upper_members}))
                inner = src.quotient(kernel)
                targeted = central_step_witness(inner)
                brute = is_forcing(inner)
                assert targeted is not None and brute is not None, spec
                assert targeted == brute, spec

    def test_rejects_non_prime_kernel(self, group_of):
        C8 = group_of("preset:Cyclic(8)")
        q = C8.quotient(C8.frattini())  # kernel order 4
        with pytest.raises(PreconditionViolated):
            central_step_witness(q)

    def test_rejects_non_central_kernel(self, group_of):
        G = group_of("product:perm:3:(0 1 2),(0 1)|preset:Cyclic(3)")
        orders = G.orders()
        kernel = None
        for m in range(1, G.order):
            if int(orders[m]) == 3:
                H = G.subgroup_closure([m])
                if G.is_normal(H) and not set(H.members) <= set(G.center().members):
                    kernel = H
                    break
        assert kernel is not None
        q = G.quotient(kernel)
        with pytest.raises(PreconditionViolated):
            central_step_witness(q)


class TestBuilder:
    @pytest.mark.parametrize("spec", BUILDABLE)
    def test_builds_and_verifies(self, group_of, cert_of, spec):
        G = group_of(spec)
        prof = p_group_profile(G)
        cert = cert_of(spec)
        assert len(cert.steps) == prof.n - prof.rank
        assert len(cert.chain) == prof.n - prof.rank + 2
        report = verify_certificate(G, cert)
        assert report.all_passed, [c.label() for c in report.failures()]

    def test_chain_is_descending_index_p(self, cert_of, group_of):
        cert = cert_of("preset:Abelian(4,4)")
        sizes = [len(entry) for entry in cert.chain]
        assert sizes == [16, 4, 2, 1]
        G = group_of("preset:Abelian(4,4)")
        prof = p_group_profile(G)
        for step in cert.steps:
            assert step.kernel_order == prof.p
            assert not step.quotient_is_quaternion
            assert step.witness.class_order % prof.p == 0

    def test_rejects_cyclic(self, group_of):
        with pytest.raises(CyclicGroup):
            build_forcing_sequence(group_of("preset:Cyclic(8)"))
        with pytest.raises(CyclicGroup):
            build_forcing_sequence(group_of("preset:Cyclic(3)"))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rejects_quaternion(self, group_of, n):
        with pytest.raises(QuaternionGroup) as info:
            build_forcing_sequence(group_of(f"preset:GenQuaternion({n})"))
        assert info.value.index == n

    def test_rejects_non_p_group(self, group_of):
        with pytest.raises(NotAPGroup):
            build_forcing_sequence(group_of("preset:Cyclic(6)"))
        with pytest.raises(NotAPGroup):
            build_forcing_sequence(group_of("perm:3:()"))

    def test_deterministic(self, group_of):
        G = group_of("preset:Heisenberg(3)")
        assert build_forcing_sequence(G) == build_forcing_sequence(G)

    def test_witness_fibers_cover_class(self, group_of, cert_of):
        for spec in ["preset:Dihedral(8)", "preset:Heisenberg(3)"]:
            cert = cert_of(spec)
            for step in cert.steps:
                assert len(step.witness.checked_fiber_sizes) >= 1
                assert all(size == step.kernel_order
                           for size in step.witness.checked_fiber_sizes)


class TestQuaternionDetour:
    def test_twist_has_exactly_one_quaternion_candidate(self, group_of):
        G = group_of(TWISTED_C4_SPEC)
        series = G.lower_exponent_p_series()
        assert [len(s.members) for s in series] == [16, 4, 1]
        candidates = G.intermediate_index_p_subgroups(series[1], series[2], 2)
        assert len(candidates) == 3
        flags = []
        for cand in candidates:
            q = G.quotient(cand)
            flags.append(is_generalized_quaternion(q.target) is not None)
        assert sum(flags) == 1

    def test_built_chain_avoids_the_quaternion_quotient(self, group_of, cert_of):
        G = group_of(TWISTED_C4_SPEC)
        cert = cert_of(TWISTED_C4_SPEC)
        for entry in cert.chain[:-1]:
            q = G.quotient(Subgroup(G, entry))
            assert is_generalized_quaternion(q.target) is None

    def test_quaternion_itself_cannot_detour(self, group_of):
        # Q(2)'s own chain would need a Q(1) quotient at the last layer; the
        # builder must refuse Q(n) outright rather than emit such a chain
        with pytest.raises(QuaternionGroup):
            build_forcing_sequence(group_of("preset:GenQuaternion(2)"))


def _forged_c6_certificate(group_of):
    C6 = group_of("preset:Cyclic(6)")
    orders = C6.orders()
    g3 = next(m for m in range(C6.order) if int(orders[m]) == 3)
    kernel3 = C6.subgroup_closure([g3])
    chain = (tuple(range(6)), tuple(kernel3.members), (0,))
    # quotient C6 -> C6/C3 = C2 relabels; pick the class of index 1 downstairs
    step = ForcingStep(index_in_chain=1, kernel_order=3, quotient_order=6,
                       quotient_is_quaternion=False,
                       witness=ForcingWitness(class_rep=1, class_order=2,
                                              checked_fiber_sizes=(3,)))
    return C6, ForcingCertificate(group_spec="preset:Cyclic(6)", chain=chain,
                                  steps=(step,))


class TestVerifier:
    def test_forged_c6_fails_forcing_and_hypotheses(self, group_of):
        C6, cert = _forged_c6_certificate(group_of)
        report = verify_certificate(C6, cert)
        assert not report.all_passed
        failed = {c.condition for c in report.failures()}
        assert "group-hypotheses" in failed
        assert "step-forcing" in failed or "step-witness-class" in failed

    def test_tampered_chain_entry_fails_closure(self, group_of, cert_of):
        G = group_of("preset:Abelian(4,4)")
        cert = cert_of("preset:Abelian(4,4)")
        # swap one interior entry for a non-subgroup set of the same size
        entry = list(cert.chain[1])
        outside = next(m for m in range(1, G.order) if m not in cert.chain[1])
        entry[-1] = outside
        bad_chain = (cert.chain[0], tuple(sorted(entry))) + cert.chain[2:]
        bad = ForcingCertificate(group_spec=cert.group_spec, chain=bad_chain,
                                 steps=cert.steps)
        report = verify_certificate(G, bad)
        failed = {c.condition for c in report.failures()}
        assert "chain-closed" in failed

    def test_non_normal_entry_fails_normality(self, group_of):
        D4 = group_of("preset:Dihedral(8)")
        reflection = None
        for m in range(1, D4.order):
            H = D4.subgroup_closure([m])
            if len(H.members) == 2 and not D4.is_normal(H):
                reflection = H
                break
        chain = (tuple(range(8)), tuple(reflection.members), (0,))
        step = ForcingStep(index_in_chain=1, kernel_order=2, quotient_order=8,
                           quotient_is_quaternion=False,
                           witness=ForcingWitness(1, 2, (2,)))
        cert = ForcingCertificate(group_spec="preset:Dihedral(8)", chain=chain,
                                  steps=(step,))
        report = verify_certificate(D4, cert)
        failed = {c.condition for c in report.failures()}
        assert "chain-normal" in failed
        assert "chain-frattini" in failed
        # the verifier records the refused quotient as a failure, not a crash
        assert "quotient-non-quaternion[1]" in {c.label() for c in report.failures()}

    def test_quotient_programming_error_propagates(self, group_of, cert_of, monkeypatch):
        G = group_of("preset:Dihedral(8)")
        cert = cert_of("preset:Dihedral(8)")

        def broken_quotient(self, N):
            raise TypeError("bug in quotient")

        monkeypatch.setattr(FiniteGroup, "quotient", broken_quotient)
        with pytest.raises(TypeError, match="bug in quotient"):
            verify_certificate(G, cert)

    @pytest.mark.parametrize("spec", ["preset:Dihedral(16)", "preset:Heisenberg(3)",
                                      "preset:Abelian(4,4)", TWISTED_C4_SPEC])
    def test_verifier_derives_series_and_frattini_itself(self, group_of, cert_of,
                                                         monkeypatch, spec):
        G = group_of(spec)
        cert = cert_of(spec)

        def builder_only(self, *args):
            raise AssertionError("the verifier used the builder's series")

        monkeypatch.setattr(FiniteGroup, "lower_exponent_p_series", builder_only)
        monkeypatch.setattr(FiniteGroup, "frattini", builder_only)
        report = verify_certificate(G, cert)
        assert report.all_passed
        assert {"chain-frattini", "chain-refines-series"} <= {c.condition for c in report.checks}

    def test_wrong_witness_class_detected(self, group_of, cert_of):
        G = group_of("preset:Heisenberg(3)")
        cert = cert_of("preset:Heisenberg(3)")
        step = cert.steps[0]
        forged_witness = ForcingWitness(class_rep=0, class_order=step.witness.class_order,
                                        checked_fiber_sizes=step.witness.checked_fiber_sizes)
        forged = ForcingCertificate(
            group_spec=cert.group_spec, chain=cert.chain,
            steps=(ForcingStep(step.index_in_chain, step.kernel_order,
                               step.quotient_order, step.quotient_is_quaternion,
                               forged_witness),))
        report = verify_certificate(G, forged)
        failed = {c.condition for c in report.failures()}
        assert "step-witness-class" in failed

    def test_duplicate_chain_entries_are_malformed(self, group_of, cert_of):
        G = group_of("preset:Dihedral(8)")
        cert = cert_of("preset:Dihedral(8)")
        bad = ForcingCertificate(group_spec=cert.group_spec,
                                 chain=(cert.chain[0],) + cert.chain,
                                 steps=cert.steps)
        with pytest.raises(MalformedCertificate):
            verify_certificate(G, bad)

    def test_step_count_mismatch_is_malformed(self, group_of, cert_of):
        G = group_of("preset:Abelian(4,4)")
        cert = cert_of("preset:Abelian(4,4)")
        bad = ForcingCertificate(group_spec=cert.group_spec, chain=cert.chain,
                                 steps=cert.steps[:1])
        with pytest.raises(MalformedCertificate):
            verify_certificate(G, bad)

    def test_wrong_group_rejected(self, group_of, cert_of):
        cert = cert_of("preset:Dihedral(8)")
        other = group_of("preset:Abelian(2,4)")  # same order, different group
        report = verify_certificate(other, cert)
        assert not report.all_passed

    def test_report_labels_are_unique(self, group_of, cert_of):
        G = group_of("preset:Abelian(4,4)")
        report = verify_certificate(G, cert_of("preset:Abelian(4,4)"))
        labels = [c.label() for c in report.checks]
        assert len(labels) == len(set(labels))
