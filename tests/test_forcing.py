import gc
import hashlib
import inspect
import itertools
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from forcing_lab import (
    CheckResult,
    CyclicGroup,
    FiniteGroup,
    ForcingCertificate,
    ForcingStep,
    ForcingWitness,
    MalformedCertificate,
    NotAPGroup,
    NotNormal,
    PreconditionViolated,
    QuaternionGroup,
    Subgroup,
    TWISTED_C4_SPEC,
    build_forcing_sequence,
    central_step_witness,
    is_forcing,
    is_generalized_quaternion,
    p_group_profile,
    p_group_specs,
    parse_group_spec,
    two_group_specs,
    verify_certificate,
)
from forcing_lab import certio, forcing, verify
from forcing_lab.errors import Malformed
from forcing_lab.forcing import _quaternion_quotient
from forcing_lab.groups import factorize
from forcing_lab.verify import _BLOCK_ITEMS, _coset_orders, _power_map, _row_blocks

from conftest import quotient_group

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

CERTIFIED_64 = [spec for name, spec in p_group_specs(64)
                if not name.startswith(("Cyclic", "GenQuaternion"))]
# the non-cyclic 2-groups, TWISTED_C4_SPEC among them
TWO_GROUPS_64 = [spec for name, spec in two_group_specs(64) if not name.startswith("Cyclic")]


def _order_p_kernel(G, order):
    """First normal subgroup of the given prime order, by member tuple."""
    orders = G.orders()
    for m in range(1, G.order):
        if int(orders[m]) == order:
            H = G.subgroup_closure([m])
            if len(H.members) == order and G.is_normal(H):
                return H
    raise AssertionError("no such kernel")


def _is_forcing_reference(G, upper, lower):
    """The search for a witness that G/lower -> G/upper is forcing, run on
    quotient groups built here: the source G/lower and its quotient by the
    image of upper, classes and orders read from their own tables."""
    source, low = quotient_group(G, lower), G.quotient(lower)
    kernel = source.subgroup_closure(sorted({int(low[m]) for m in upper.members}))
    target, project = quotient_group(source, kernel), source.quotient(kernel)
    label, orders = target.conjugacy_classes(), target.orders()
    src_label = label[project]
    reps = (label == np.arange(target.order)).nonzero()[0][1:].tolist()
    for rep in sorted(reps, key=lambda r: (int(orders[r]), r)):
        order = int(orders[rep])
        if (source.orders()[src_label == rep] == order).all():
            size = int(np.count_nonzero(label == rep))
            return ForcingWitness(class_rep=rep, class_order=order,
                                  checked_fiber_sizes=(kernel.order,) * size)
    return None


def _normal_subgroups(G):
    """Every normal subgroup of a group whose subgroups are 2-generated,
    by order, then members."""
    found = {}
    for a, b in itertools.combinations_with_replacement(range(G.order), 2):
        H = G.subgroup_closure([a, b])
        if G.is_normal(H):
            found[tuple(H.members.tolist())] = H
    return [found[key] for key in sorted(found, key=lambda k: (len(k), k))]


class TestIsForcing:
    def test_elementary_abelian_quotient_is_forcing(self, group_of):
        E9 = group_of("preset:ElemAbelian(3,2)")
        witness = is_forcing(E9, _order_p_kernel(E9, 3), E9.trivial_subgroup())
        assert witness is not None
        assert witness.class_order == 3
        assert witness.checked_fiber_sizes == (3,)

    def test_c6_to_c3_is_not_forcing(self, group_of):
        C6 = group_of("preset:Cyclic(6)")
        N = _order_p_kernel(C6, 2)
        assert quotient_group(C6, N).order == 3
        assert is_forcing(C6, N, C6.trivial_subgroup()) is None

    def test_q8_to_klein_four_is_not_forcing(self, group_of):
        Q8 = group_of("preset:GenQuaternion(1)")
        assert quotient_group(Q8, Q8.center()).order == 4
        assert is_forcing(Q8, Q8.center(), Q8.trivial_subgroup()) is None

    def test_c4_to_c2_is_not_forcing(self, group_of):
        C4 = group_of("preset:Cyclic(4)")
        assert is_forcing(C4, _order_p_kernel(C4, 2), C4.trivial_subgroup()) is None

    def test_d4_to_v4_is_forcing(self, group_of):
        D4 = group_of("preset:Dihedral(8)")
        witness = is_forcing(D4, D4.center(), D4.trivial_subgroup())
        assert witness is not None
        assert witness.class_order == 2

    @pytest.mark.parametrize("spec", ["preset:Cyclic(6)", "preset:GenQuaternion(1)",
                                      "preset:Dihedral(8)", "preset:ElemAbelian(3,2)",
                                      "preset:Cyclic(4)", "perm:4:(0 1 2 3),(0 1)"])
    def test_every_normal_pair_agrees_with_quotient_groups(self, group_of, spec):
        """G/lower -> G/upper for every pair of normal subgroups lower <= upper,
        G -> G/N among them, S4 the one group that is not a p-group."""
        G = group_of(spec)
        normal = _normal_subgroups(G)
        pairs = [(upper, lower) for upper in normal for lower in normal
                 if set(lower.members.tolist()) <= set(upper.members.tolist())]
        for upper, lower in pairs:
            assert is_forcing(G, upper, lower) == _is_forcing_reference(G, upper, lower), (
                upper.members, lower.members)
        assert sum(is_forcing(G, upper, lower) is not None for upper, lower in pairs)

    def test_refuses_maps_that_are_not_quotient_maps(self, group_of):
        D4 = group_of("preset:Dihedral(8)")
        reflection = next(H for H in map(D4.subgroup_closure, [[m] for m in range(1, 8)])
                          if H.order == 2 and not D4.is_normal(H))
        whole, centre, trivial = D4.whole_subgroup(), D4.center(), D4.trivial_subgroup()
        with pytest.raises(NotNormal):
            is_forcing(D4, reflection, trivial)
        with pytest.raises(NotNormal):
            is_forcing(D4, whole, reflection)
        with pytest.raises(PreconditionViolated, match="lower is not inside upper"):
            is_forcing(D4, trivial, centre)


class TestCentralStepWitness:
    def test_agrees_with_brute_force(self, group_of, cert_of):
        """The witness read from G/N_i, is_forcing and the exhaustive
        predicate, run on the quotient of quotients (G/N_{i+1}) / (N_i/N_{i+1})
        built here, pick the same class on every step."""
        for spec in BUILDABLE + CERTIFIED_64:
            G = group_of(spec)
            cert = cert_of(spec)
            for i in range(1, len(cert.chain) - 1):
                upper, lower = Subgroup(G, cert.chain[i]), Subgroup(G, cert.chain[i + 1])
                brute = _is_forcing_reference(G, upper, lower)
                assert brute is not None, spec
                assert is_forcing(G, upper, lower) == brute, spec
                assert central_step_witness(G, upper, lower) == brute, spec
                assert cert.steps[i - 1].witness == brute, spec

    def test_rejects_non_prime_kernel(self, group_of):
        C8 = group_of("preset:Cyclic(8)")
        with pytest.raises(PreconditionViolated):  # index 4
            central_step_witness(C8, C8.frattini(), C8.trivial_subgroup())

    def test_rejects_non_central_kernel(self, group_of):
        G = group_of("product:perm:3:(0 1 2),(0 1)|preset:Cyclic(3)")
        orders = G.orders()
        upper = None
        for m in range(1, G.order):
            if int(orders[m]) == 3:
                H = G.subgroup_closure([m])
                if G.is_normal(H) and not set(H.members) <= set(G.center().members):
                    upper = H
                    break
        assert upper is not None
        with pytest.raises(PreconditionViolated):
            central_step_witness(G, upper, G.trivial_subgroup())


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

    def test_forms_one_quotient_per_step(self, monkeypatch, group_of):
        """The builder quotients G by each chain entry from the Frattini
        subgroup down to the entry of order p, once, and never by 1."""
        original = FiniteGroup.quotient
        formed = []

        def quotient(self, N):
            assert N.order > 1, "quotient by the trivial subgroup"
            formed.append(tuple(N.members.tolist()))
            return original(self, N)

        monkeypatch.setattr(FiniteGroup, "quotient", quotient)
        built = 0
        for _, spec in p_group_specs(256):
            formed.clear()
            try:
                cert = build_forcing_sequence(group_of(spec))
            except (CyclicGroup, QuaternionGroup):
                continue
            assert formed == list(cert.chain[1:-1]), spec
            built += 1
        assert built == 121


class TestQuaternionDetour:
    def test_twist_has_exactly_one_quaternion_candidate(self, group_of):
        G = group_of(TWISTED_C4_SPEC)
        series = G.lower_exponent_p_series()
        assert [len(s.members) for s in series] == [16, 4, 1]
        candidates = list(G.intermediate_index_p_subgroups(series[1], series[2], 2))
        assert len(candidates) == 3
        flags = []
        for cand in candidates:
            flags.append(is_generalized_quaternion(quotient_group(G, cand)) is not None)
        assert sum(flags) == 1

    def test_built_chain_avoids_the_quaternion_quotient(self, group_of, cert_of):
        G = group_of(TWISTED_C4_SPEC)
        cert = cert_of(TWISTED_C4_SPEC)
        for entry in cert.chain[:-1]:
            assert is_generalized_quaternion(quotient_group(G, Subgroup(G, entry))) is None

    def test_squares_agree_with_quotient_groups(self, group_of):
        """Over every subgroup the builder could refine to, between each pair
        of consecutive series terms, the squares screen and the quotient
        group's own unique-involution test agree."""
        quaternion = 0
        assert TWISTED_C4_SPEC in TWO_GROUPS_64
        for spec in TWO_GROUPS_64:
            G = group_of(spec)
            series = G.lower_exponent_p_series()
            for j in range(1, len(series) - 1):
                todo, seen = [series[j]], set()
                while todo:
                    current = todo.pop()
                    key = tuple(current.members.tolist())
                    if current.order == series[j + 1].order or key in seen:
                        continue
                    seen.add(key)
                    for S in G.intermediate_index_p_subgroups(current, series[j + 1], 2):
                        expected = is_generalized_quaternion(quotient_group(G, S)) is not None
                        assert _quaternion_quotient(G, S) == expected, (spec, S.members)
                        quaternion += expected
                        todo.append(S)
        assert quaternion > 0

    def test_quaternion_itself_cannot_detour(self, group_of):
        # Q(2)'s own chain would need a Q(1) quotient at the last layer; the
        # builder must refuse Q(n) outright rather than emit such a chain
        with pytest.raises(QuaternionGroup):
            build_forcing_sequence(group_of("preset:GenQuaternion(2)"))


def _reference_certificate(G, refused):
    """The builder's certificate as made one index-p step at a time: every
    step asks intermediate_index_p_subgroups(current, bottom, p) for its
    candidates and takes the first that refused(G, S) does not refuse, a
    screen read only at p = 2."""
    p = G.prime()
    series = G.lower_exponent_p_series()
    chain = series[:2]
    for current, bottom in zip(series[1:], series[2:]):
        while current.order > bottom.order:
            current = next((S for S in G.intermediate_index_p_subgroups(current, bottom, p)
                            if p != 2 or not refused(G, S)), None)
            if current is None:
                raise PreconditionViolated(
                    "every refinement candidate has a generalized quaternion quotient")
            chain.append(current)
    steps = tuple(ForcingStep(i + 1, p, G.order // lower.order, False,
                              central_step_witness(G, upper, lower))
                  for i, (upper, lower) in enumerate(zip(chain[1:], chain[2:])))
    return ForcingCertificate(group_spec=G.spec, chain=tuple(
        tuple(S.members.tolist()) for S in chain), steps=steps)


class TestLayerRefinement:
    """The builder refines a layer of the lower exponent-p series from one
    greedy basis, and gives the certificate of the per-step reference."""

    def test_certificates_equal_the_per_step_reference(self, group_of, cert_of):
        specs = dict.fromkeys([spec for _, spec in p_group_specs(256)] + TWO_GROUPS_64
                              + ["preset:Dihedral(1024)"])
        built = 0
        for spec in specs:
            G = group_of(spec)
            if p_group_profile(G).is_cyclic or p_group_profile(G).quaternion_index is not None:
                continue
            assert cert_of(spec) == _reference_certificate(G, _quaternion_quotient), spec
            built += 1
        assert built == 122

    def test_asks_for_candidates_once_per_layer(self, monkeypatch, group_of):
        """One call per layer below the Frattini subgroup, however many
        steps refine it: 238 layers make 300 steps over the corpus."""
        original = FiniteGroup.intermediate_index_p_subgroups
        asked = []

        def counting(self, A, B, p):
            asked.append((A.order, B.order))
            return original(self, A, B, p)

        monkeypatch.setattr(FiniteGroup, "intermediate_index_p_subgroups", counting)
        layers = steps = 0
        for _, spec in p_group_specs(256):
            G = group_of(spec)
            asked.clear()
            try:
                cert = build_forcing_sequence(G)
            except (CyclicGroup, QuaternionGroup):
                continue
            orders = [S.order for S in G.lower_exponent_p_series()]
            assert asked == list(zip(orders[1:], orders[2:])), spec
            layers += len(asked)
            steps += len(cert.steps)
        assert (layers, steps) == (238, 300)

    def test_twisted_c4_gets_the_reference_chain(self, group_of, cert_of):
        # its quaternion candidate is not the first in canonical order, so
        # the screen passes the first and no fallback is needed
        G = group_of(TWISTED_C4_SPEC)
        assert cert_of(TWISTED_C4_SPEC) == _reference_certificate(G, _quaternion_quotient)

    @pytest.mark.parametrize("spec, refused_order", [
        ("preset:Abelian(4,4,4)", 4),  # the layer's first candidate
        ("preset:Abelian(4,4,4)", 2),  # a span below it
        ("preset:Abelian(4,4,4)", 1),  # the layer's bottom: no candidate is left
        ("preset:Dihedral(16)", 2),  # the bottom of an index-2 layer
    ])
    def test_refused_entries_take_the_per_step_fallback(self, monkeypatch, spec,
                                                        refused_order):
        """A screen that refuses the genuine chain's entry of one order sends
        the builder down the fallback; it gives what the reference gives."""
        G = parse_group_spec(spec)
        genuine = build_forcing_sequence(G)
        bad = next(entry for entry in genuine.chain[1:] if len(entry) == refused_order)

        def refused(G, S):
            return tuple(S.members.tolist()) == bad

        monkeypatch.setattr(forcing, "_quaternion_quotient", refused)
        try:
            expected = _reference_certificate(G, refused)
        except PreconditionViolated as exc:
            with pytest.raises(PreconditionViolated, match=str(exc)):
                build_forcing_sequence(G)
            return
        cert = build_forcing_sequence(G)
        assert cert == expected and cert.chain != genuine.chain
        assert bad not in cert.chain
        assert verify_certificate(G, cert).all_passed


def _forged_c6_certificate(group_of):
    C6 = group_of("preset:Cyclic(6)")
    orders = C6.orders()
    g3 = next(m for m in range(C6.order) if int(orders[m]) == 3)
    kernel3 = C6.subgroup_closure([g3])
    chain = (tuple(range(6)), tuple(kernel3.members.tolist()), (0,))
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
        chain = (tuple(range(8)), tuple(reflection.members.tolist()), (0,))
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

    @pytest.mark.parametrize("spec", ["preset:Dihedral(16)", "preset:Heisenberg(3)",
                                      "preset:Abelian(4,4)", TWISTED_C4_SPEC])
    def test_verifier_derives_series_and_frattini_itself(self, cert_of, monkeypatch, spec):
        # a freshly parsed group, so no structure the builder derived is cached
        G = parse_group_spec(spec)
        cert = cert_of(spec)

        def builder_only(*args, **kwargs):
            raise AssertionError("the verifier used the builder's group code")

        # every method, orders and power_map among them, so that a new
        # builder kernel is covered without being listed here
        for owner in (FiniteGroup, Subgroup):
            for name, value in list(vars(owner).items()):
                if inspect.isfunction(value):
                    monkeypatch.setattr(owner, name, builder_only)
        report = verify_certificate(G, cert)
        assert report.all_passed
        assert {"chain-frattini", "chain-refines-series"} <= {c.condition for c in report.checks}

    def test_cyclic_quotient_is_not_quaternion(self, group_of):
        # C8 x C2 over a C2 with quotient C8: a single involution, but cyclic
        G = group_of("preset:Abelian(8,2)")
        kernel = next(H for H in (G.subgroup_closure([m]) for m in range(1, G.order))
                      if H.order == 2 and int(quotient_group(G, H).orders().max()) == 8)
        step = ForcingStep(index_in_chain=1, kernel_order=2, quotient_order=16,
                           quotient_is_quaternion=False, witness=ForcingWitness(1, 2, (2,)))
        cert = ForcingCertificate(group_spec=G.spec, chain=(tuple(range(16)),
                                                            tuple(kernel.members.tolist()),
                                                            (0,)), steps=(step,))
        report = verify_certificate(G, cert)
        assert "quotient-non-quaternion[1]" not in {c.label() for c in report.failures()}
        ours = [c for c in report.checks if c.condition in QUOTIENT_CONDITIONS]
        assert ours == _quotient_reference(G, cert)

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

    @pytest.mark.parametrize("chain, change, message", [
        pytest.param(lambda c: (c[0], (), c[2]), None, "chain entry 1 is empty", id="empty"),
        pytest.param(lambda c: (c[0], c[1] + c[1][:1], c[2]), None,
                     "chain entry 1 has duplicate indices", id="duplicate"),
        pytest.param(lambda c: (c[0], (0, -1), c[2]), None,
                     "chain entry 1 has bad element index -1", id="negative"),
        pytest.param(lambda c: (c[0], (0, 8), c[2]), None,
                     "chain entry 1 has bad element index 8", id="past-the-end"),
        pytest.param(lambda c: (c[0], (0, 2 ** 70), c[2]), None,
                     f"chain entry 1 has bad element index {2 ** 70}", id="past-int64"),
        pytest.param(lambda c: (c[0], (0, 1.0), c[2]), None,
                     "chain entry 1 has bad element index 1.0", id="float"),
        pytest.param(lambda c: (c[0], (0, np.int64(1)), c[2]), None,
                     f"chain entry 1 has bad element index {np.int64(1)!r}", id="numpy-int"),
        # the first fault in chain order is the one named
        pytest.param(lambda c: ((0, 9) + c[0][1:], (), c[2]), None,
                     "chain entry 0 has bad element index 9", id="first-fault"),
        pytest.param(None, lambda steps: (), "0 steps do not match a chain of 3 entries",
                     id="step-count"),
        pytest.param(None, lambda steps: (replace(steps[0], witness=None),),
                     "step 0 lacks a witness", id="no-witness"),
        pytest.param(None, lambda steps: (replace(steps[0], witness=replace(
            steps[0].witness, class_rep=-1)),),
            "step 0 witness representative is negative", id="negative-rep"),
        pytest.param(None, lambda steps: (replace(steps[0], witness=replace(
            steps[0].witness, class_rep=True)),),
            "step 0 witness representative is not an int", id="bool-rep"),
    ])
    def test_structural_faults_are_named(self, group_of, cert_of, chain, change, message):
        G = group_of("preset:Dihedral(8)")
        cert = cert_of("preset:Dihedral(8)")
        bad = replace(cert, chain=cert.chain if chain is None else chain(cert.chain),
                      steps=cert.steps if change is None else change(cert.steps))
        with pytest.raises(MalformedCertificate) as raised:
            verify_certificate(G, bad)
        assert str(raised.value) == message

    def test_bool_in_place_of_an_index_is_malformed(self, group_of, cert_of):
        # True == 1 and hashes like it, but certio writes it as JSON true and
        # refuses those bytes, so the verifier refuses it too
        G = group_of("preset:Dihedral(8)")
        cert = cert_of("preset:Dihedral(8)")
        forged = replace(cert, chain=tuple(tuple(True if v == 1 else v for v in entry)
                                           for entry in cert.chain))
        with pytest.raises(Malformed, match=r"expected int, got bool"):
            certio.parse(certio.emit(certio.CertificateDocument(certificate=forged)))
        with pytest.raises(MalformedCertificate, match=r"^chain entry 0 has bad element index True$"):
            verify_certificate(G, forged)

    def test_wrong_group_rejected(self, group_of, cert_of):
        cert = cert_of("preset:Dihedral(8)")
        other = group_of("preset:Abelian(2,4)")  # same order, different group
        report = verify_certificate(other, cert)
        assert not report.all_passed

    def test_repeated_entry_fails_descending(self, group_of, cert_of):
        # entry 1 twice: the chain is still nested, but does not strictly descend
        G = group_of("preset:Dihedral(16)")
        cert = cert_of("preset:Dihedral(16)")
        twice = _refitted(cert, cert.chain[:2] + cert.chain[1:])
        rows = [c for c in verify_certificate(G, twice).checks if c.condition == "chain-descending"]
        assert rows == [CheckResult("chain-descending", False, "entries must strictly decrease")]

    def test_group_of_order_two_is_cyclic(self, group_of):
        G = group_of("preset:Cyclic(2)")
        cert = ForcingCertificate(group_spec="preset:Cyclic(2)", chain=((0, 1), (0,)), steps=())
        assert verify_certificate(G, cert).checks[0] == CheckResult(
            "group-hypotheses", False, "group is cyclic")

    @pytest.mark.parametrize("second, passed", [((0, 2, 4), True), (tuple(range(6)), False)],
                             ids=["prime-index", "non-prime-index"])
    def test_step_kernel_order_off_prime_powers(self, group_of, second, passed):
        # on C6, whose order is not a prime power, a step's index need only
        # be prime and equal the recorded kernel order
        C6 = group_of("preset:Cyclic(6)")
        ratio = len(second)  # the index of {1} in the second entry
        step = ForcingStep(index_in_chain=1, kernel_order=ratio, quotient_order=6,
                           quotient_is_quaternion=False, witness=ForcingWitness(1, 2, (3,)))
        cert = ForcingCertificate(group_spec="preset:Cyclic(6)",
                                  chain=(tuple(range(6)), second, (0,)), steps=(step,))
        rows = [c for c in verify_certificate(C6, cert).checks if c.condition == "step-kernel-order"]
        assert rows == [CheckResult("step-kernel-order", passed,
                                    f"recorded {ratio}, actual index {ratio}", 0)]

    def test_report_labels_are_unique(self, group_of, cert_of):
        G = group_of("preset:Abelian(4,4)")
        report = verify_certificate(G, cert_of("preset:Abelian(4,4)"))
        labels = [c.label() for c in report.checks]
        assert len(labels) == len(set(labels))


def _largest_member_representative(original):
    def image_class(project, members):
        # the largest image first, so it becomes the representative
        return original(project, members)[::-1]
    return image_class


def _reversed_target_labels(original):
    def quotient(self, N):
        # t -> |Q| - t for t >= 1 is an involution, so it is its own inverse
        relabel = np.concatenate([[0], np.arange(self.order // N.order - 1, 0, -1)])
        return relabel[original(self, N)]
    return quotient


class TestBuilderBugsAreCaught:
    """Certificates built under a subtly wrong builder kernel fail
    verification, both while the bug is live and after it is undone."""

    @pytest.mark.parametrize("owner, method, bug, spec", [
        (forcing, "_image_class", _largest_member_representative, "preset:Dihedral(16)"),
        (forcing, "_image_class", _largest_member_representative, "preset:SemiDihedral(16)"),
        (FiniteGroup, "quotient", _reversed_target_labels, "preset:SemiDihedral(16)"),
        (FiniteGroup, "quotient", _reversed_target_labels, "preset:ModularMaximalCyclic(16)"),
    ])
    def test_forged_certificate_fails(self, monkeypatch, cert_of, owner, method, bug, spec):
        # a fresh group: the bug must not leave cached structure on a shared one
        G = parse_group_spec(spec)
        monkeypatch.setattr(owner, method, bug(getattr(owner, method)))
        forged = build_forcing_sequence(G)
        live = verify_certificate(G, forged)
        monkeypatch.undo()
        assert forged != cert_of(spec)
        assert not live.all_passed
        assert not verify_certificate(G, forged).all_passed


# the conditions the verifier once derived from quotient groups
QUOTIENT_CONDITIONS = {"chain-normal", "quotient-non-quaternion", "chain-central-layer",
                       "step-quaternion-flag", "step-witness-class", "step-forcing"}


def _quotient_reference(G, cert):
    """The QUOTIENT_CONDITIONS checks as derived from Subgroup, FiniteGroup.quotient,
    the quotient groups' conjugacy classes and the step map phi between them."""
    chain = [tuple(sorted(entry)) for entry in cert.chain]
    checks, quotients = [], []
    for k, entry in enumerate(chain):
        try:
            sub = Subgroup(G, entry)
        except PreconditionViolated:
            checks.append(CheckResult("chain-normal", False,
                                      f"entry {k} is not even a subgroup", step=k))
            quotients.append(None)
            continue
        normal = G.is_normal(sub)
        checks.append(CheckResult("chain-normal", normal, f"entry {k}", step=k))
        quotients.append((G.quotient(sub), quotient_group(G, sub)) if normal else None)
    for k, q in enumerate(quotients):
        idx = None if q is None else is_generalized_quaternion(q[1])
        detail = (f"entry {k}: quotient could not be formed" if q is None else
                  f"entry {k}" + ("" if idx is None else f": quotient is Q({idx})"))
        checks.append(CheckResult("quotient-non-quaternion", q is not None and idx is None,
                                  detail, step=k))
    everything = np.arange(G.order, dtype=np.int32)
    for i, step in enumerate(cert.steps):
        upper = np.array(chain[i + 1], dtype=np.int32)
        central = set(G._commutators(upper, everything).ravel().tolist()) <= set(chain[i + 2])
        checks.append(CheckResult("chain-central-layer", central,
                                  "layer commutators must land below", step=i))
        q_up, q_low = quotients[i + 1], quotients[i + 2]
        if q_up is None or q_low is None:
            for condition in ("step-witness-class", "step-forcing", "step-quaternion-flag"):
                checks.append(CheckResult(condition, False, "quotients could not be formed",
                                          step=i))
            continue
        (up, Q_up), (low, Q_low) = q_up, q_low
        flag_ok = (step.quotient_is_quaternion is False
                   and is_generalized_quaternion(Q_low) is None)
        checks.append(CheckResult("step-quaternion-flag", flag_ok,
                                  "recorded flag must be false and match recomputation",
                                  step=i))
        witness = step.witness
        if witness.class_rep >= Q_up.order:
            checks.append(CheckResult("step-witness-class", False,
                                      f"representative {witness.class_rep} out of range",
                                      step=i))
            checks.append(CheckResult("step-forcing", False, "witness unusable", step=i))
            continue
        label = Q_up.conjugacy_classes()
        rep = int(label[witness.class_rep])
        order = int(Q_up.orders()[rep])
        phi = np.empty(Q_low.order, dtype=np.int32)
        phi[low] = up
        low_orders = Q_low.orders()
        fibers = [np.flatnonzero(phi == member) for member in np.flatnonzero(label == rep)]
        sizes = [len(f) for f in fibers]
        class_ok = (rep == witness.class_rep
                    and order == witness.class_order
                    and tuple(witness.checked_fiber_sizes) == tuple(sizes))
        checks.append(CheckResult(
            "step-witness-class", class_ok,
            f"class of {witness.class_rep}: rep {rep}, "
            f"order {order}, sizes {sizes}", step=i))
        forcing = all(int(low_orders[x]) == order for f in fibers for x in f)
        checks.append(CheckResult(
            "step-forcing", forcing,
            "every fiber element over every class member must keep the class order",
            step=i))
    return checks


def _with_steps(cert, change):
    return replace(cert, steps=tuple(change(i, step) for i, step in enumerate(cert.steps)))


def _forgeries(G, cert):
    """(label, certificate) pairs whose consecutive entries stay nested: the
    genuine certificate, other witness representatives, flipped quaternion
    flags, and an interior entry swapped for another normal subgroup or for a
    non-subgroup between its neighbours."""
    yield "genuine", cert
    for c in (0, 1, 2, 3):
        yield f"rep {c}", _with_steps(cert, lambda i, s: replace(
            s, witness=replace(s.witness, class_rep=c)))
    # the last coset index, and one past it, in alternate steps
    yield "rep at range end", _with_steps(cert, lambda i, s: replace(
        s, witness=replace(s.witness, class_rep=s.quotient_order // s.kernel_order - 1 + i % 2)))
    yield "flag", _with_steps(cert, lambda i, s: replace(s, quotient_is_quaternion=True))
    p = p_group_profile(G).p
    for k in range(1, len(cert.chain) - 1):
        above, below = Subgroup(G, cert.chain[k - 1]), Subgroup(G, cert.chain[k + 1])
        try:
            candidates = G.intermediate_index_p_subgroups(above, below, p)
        except PreconditionViolated:
            candidates = []
        for other in candidates:
            swapped = tuple(other.members.tolist())
            if swapped != cert.chain[k]:
                yield f"swap {k}", replace(cert, chain=cert.chain[:k] + (swapped,)
                                           + cert.chain[k + 1:])
        entry = list(cert.chain[k])
        outside = [m for m in cert.chain[k - 1] if m not in cert.chain[k]]
        inside = [m for m in cert.chain[k] if m not in cert.chain[k + 1]]
        entry[entry.index(inside[-1])] = outside[0]
        yield f"tamper {k}", replace(cert, chain=cert.chain[:k] + (tuple(sorted(entry)),)
                                     + cert.chain[k + 1:])


def _refitted(cert, chain):
    """cert with the given chain and a copy of its first step for each step
    of that chain."""
    return replace(cert, chain=chain, steps=tuple(
        replace(cert.steps[0], index_in_chain=i + 1) for i in range(len(chain) - 2)))


def _padded(cert, entries):
    """cert with its first entry repeated up to the given number of entries."""
    return _refitted(cert, (cert.chain[0],) * (entries - len(cert.chain)) + cert.chain)


class TestReportsMatchQuotientReference:
    @pytest.mark.parametrize("spec", CERTIFIED_64)
    def test_nested_chains_give_identical_checks(self, group_of, cert_of, spec):
        G = group_of(spec)
        for label, cert in _forgeries(G, cert_of(spec)):
            report = verify_certificate(G, cert)
            ours = [c for c in report.checks if c.condition in QUOTIENT_CONDITIONS]
            assert ours == _quotient_reference(G, cert), label

    def test_chain_longer_than_a_machine_word(self, group_of, cert_of):
        # 65 entries: the bits that say which entries hold an element outgrow
        # int64, and the chain is refused before any mask is allocated
        G = group_of("preset:Dihedral(8)")
        with pytest.raises(MalformedCertificate,
                           match="^chain has 65 entries; a chain may have at most 61$"):
            verify_certificate(G, _padded(cert_of("preset:Dihedral(8)"), 65))

    def test_longest_chain_read_matches_the_reference(self, group_of, cert_of):
        G = group_of("preset:Dihedral(8)")
        long = _padded(cert_of("preset:Dihedral(8)"), verify.MAX_CHAIN_ENTRIES)
        report = verify_certificate(G, long)
        ours = [c for c in report.checks if c.condition in QUOTIENT_CONDITIONS]
        assert ours == _quotient_reference(G, long)
        with pytest.raises(MalformedCertificate, match="^chain has 62 entries"):
            verify_certificate(G, _padded(long, verify.MAX_CHAIN_ENTRIES + 1))

    @pytest.mark.parametrize("spec", CERTIFIED_64)
    def test_non_nested_chains_fail_descending(self, group_of, cert_of, spec):
        # the step map phi of a non-nested pair is not a map, so only the
        # verdict is compared
        G = group_of(spec)
        cert = cert_of(spec)
        for k in range(1, len(cert.chain) - 2):
            chain = list(cert.chain)
            chain[k], chain[k + 1] = chain[k + 1], chain[k]
            report = verify_certificate(G, replace(cert, chain=tuple(chain)))
            assert not report.all_passed
            assert "chain-descending" in {c.condition for c in report.failures()}


CERTIFIED_256 = [spec for name, spec in p_group_specs(256)
                 if not name.startswith(("Cyclic", "GenQuaternion"))]


def _report_text(G, cert):
    try:
        return repr(verify_certificate(G, cert).checks)
    except MalformedCertificate as exc:
        return f"MalformedCertificate: {exc}"


def _pinned_reports(group_of, cert_of):
    """(label, report text) over every corpus-256 certificate on its own group
    and on the next five groups of its order in corpus order, then every
    forgery of the order-64 certificates."""
    same_order = {}
    for _, spec in p_group_specs(256):
        same_order.setdefault(group_of(spec).order, []).append(spec)
    for spec in CERTIFIED_256:
        G, cert = group_of(spec), cert_of(spec)
        yield spec, _report_text(G, cert)
        peers = same_order[G.order]
        at = peers.index(spec)
        for other in (peers[at + 1:] + peers[:at])[:5]:
            yield f"{spec} on {other}", _report_text(group_of(other), cert)
    for spec in CERTIFIED_64:
        G = group_of(spec)
        for label, cert in _forgeries(G, cert_of(spec)):
            yield f"{spec} {label}", _report_text(G, cert)


# SHA-256 of every pinned report, one "label<TAB>text" line each: a change
# to any check, verdict or detail of these reports changes it
PINNED_REPORTS_SHA256 = "be5d29479d913a023d4fbe6e5761d8e91f69dbda48b1cec1881a5b23fe36b3da"


@pytest.fixture(scope="module")
def pinned_reports(group_of, cert_of):
    return list(_pinned_reports(group_of, cert_of))


def test_pinned_reports_are_unchanged(pinned_reports):
    lines = "\n".join(f"{label}\t{text}" for label, text in pinned_reports)
    assert hashlib.sha256(lines.encode()).hexdigest() == PINNED_REPORTS_SHA256


def test_reports_are_the_same_without_the_chain_derivation(monkeypatch, group_of, cert_of,
                                                           pinned_reports):
    # nothing proven bottom up, and all of G in place of the chain's generators
    monkeypatch.setattr(verify, "_derive",
                        lambda G, inside, *rest: verify._underived(G, len(inside)))
    off = list(_pinned_reports(group_of, cert_of))
    assert len(off) == len(pinned_reports)
    for (label, on_text), (_, off_text) in zip(pinned_reports, off):
        assert off_text == on_text, label


def test_genuine_chains_are_proven_bottom_up(monkeypatch, group_of, cert_of):
    derived = []

    def recording(G, inside, *rest):
        proven, t_powers, S = original(G, inside, *rest)
        derived.append(all(proven[1:]) and len(S) < G.order)
        return proven, t_powers, S

    original = verify._derive
    monkeypatch.setattr(verify, "_derive", recording)
    for spec in CERTIFIED_256 + ["preset:ElemAbelian(2,6)", "preset:ElemAbelian(5,2)"]:
        assert verify_certificate(group_of(spec), cert_of(spec)).all_passed
        assert derived.pop(), spec


def test_series_equals_the_builders_on_both_paths(monkeypatch, group_of, cert_of):
    """verify._series closes each term once. With a certificate's derived S
    and its closed entries, and with all of G as S and nothing known, every
    term is the builder's lower exponent-p series term."""
    calls = []
    original = verify._series
    monkeypatch.setattr(verify, "_series", lambda *args: calls.append(args) or original(*args))
    for name, spec in p_group_specs(256):
        G = group_of(spec)
        want = [term.members.tolist() for term in G.lower_exponent_p_series()]
        pth = _power_map(G, p_group_profile(G).p).astype(np.intp)
        everything = np.arange(G.order)
        series = original(G, everything, pth, set(), None)
        assert [term.tolist() for term in series] == want, spec
        if name.startswith(("Cyclic", "GenQuaternion")):
            continue
        assert verify_certificate(G, cert_of(spec)).all_passed
        (args,) = calls
        calls.clear()
        assert len(args[1]) < G.order and args[3], spec
        assert [term.tolist() for term in original(*args)] == want, spec


def _premise_chains(G, p):
    """Chains that meet the derivation's premises or miss one, most of them
    not chains of subgroups: G > 1; G > {a^j} > 1 for every a; G > a set of
    p^2 elements holding 1 and a > 1, and G > that set; G > H t^j > H > 1
    for H of order p and t < 24, and the same with another H' of order p in
    place of H."""
    whole = tuple(range(G.order))
    yield whole, (0,)
    powers = G.power_map
    for a in range(1, G.order):
        cyclic = {int(powers(j)[a]) for j in range(p)}
        if len(cyclic) == p:
            yield whole, tuple(sorted(cyclic)), (0,)
        rest = [x for x in range(G.order - 1, 0, -1) if x != a][:p * p - 2]
        yield whole, tuple(sorted({0, a, *rest})), (0,)
        yield whole, tuple(sorted({0, a, *rest}))
    subgroups = [tuple(H.members.tolist()) for H in
                 (G.subgroup_closure([a]) for a in range(1, G.order)) if H.order == p]
    for H, other in zip(subgroups[:3], subgroups[1:] + subgroups[:1]):
        for t in range(1, min(G.order, 24)):
            layer = {int(G.mul(h, powers(j)[t])) for h in H for j in range(p)}
            if len(layer) == p * p:
                yield whole, tuple(sorted(layer)), H, (0,)
                yield whole, tuple(sorted(layer)), other, (0,)


@pytest.mark.parametrize("spec", ["preset:Abelian(4,2)", "preset:Dihedral(16)",
                                  "preset:Heisenberg(3)", "preset:Abelian(9,3)",
                                  "product:preset:GenQuaternion(1)|preset:Dihedral(8)"])
def test_chain_derivation_is_sound(monkeypatch, group_of, spec):
    """Every entry the bottom-up induction proves is a subgroup, the chain's
    generating set generates G, and the report is the one without them, on
    chains made to meet the derivation's premises."""
    G = group_of(spec)
    p = p_group_profile(G).p
    derived = []

    def recording(G, inside, *rest):
        proven, t_powers, S = original(G, inside, *rest)
        derived.append((inside, proven, S))
        return proven, t_powers, S

    original = verify._derive
    for chain in _premise_chains(G, p):
        steps = tuple(ForcingStep(i + 1, p, G.order // len(chain[i + 2]), False,
                                  ForcingWitness(1, p, (p,))) for i in range(len(chain) - 2))
        cert = ForcingCertificate(group_spec=G.spec, chain=chain, steps=steps)
        monkeypatch.setattr(verify, "_derive", recording)
        on = _report_text(G, cert)
        monkeypatch.setattr(verify, "_derive",
                            lambda G, inside, *rest: verify._underived(G, len(inside)))
        assert _report_text(G, cert) == on, chain
    for inside, proven, S in derived:
        for k in np.flatnonzero(proven):
            members = np.flatnonzero(inside[k])
            assert np.array_equal(G.subgroup_closure(members).members, members)
        assert G.subgroup_closure(S).order == G.order


def _non_nested_chains(G, own, p, rng, count):
    """count index-p chains, seeded, each with an entry that does not hold
    the next: own, the certificate's chain, with one member of one entry
    swapped for an element outside the entry above, or G followed by drawn
    entries of |G|/p^a, ..., p elements, 0 among them, and {1}."""
    n = G.order
    while count:
        if len(own) > 3 and rng.random() < 0.5:
            chain = [list(entry) for entry in own]
            k = rng.randrange(2, len(chain) - 1)
            chain[k][rng.randrange(1, len(chain[k]))] = rng.choice(
                [x for x in range(1, n) if x not in chain[k - 1]])
        else:
            chain = [list(range(n))]
            size = n // p ** rng.randrange(1, 3)
            while size > 1:
                chain.append([0] + rng.sample(range(1, n), size - 1))
                size //= p
            chain.append([0])
        if any(not set(chain[k + 1]) <= set(chain[k]) for k in range(len(chain) - 1)):
            count -= 1
            yield tuple(tuple(sorted(entry)) for entry in chain)


@pytest.mark.parametrize("spec", ["preset:Dihedral(8)", "preset:Abelian(4,2)",
                                  "preset:Dihedral(16)", "preset:Abelian(2,2,2,2)",
                                  "preset:Heisenberg(3)", "preset:Abelian(9,3)",
                                  "preset:ModularMaximalCyclic(32)", "preset:Abelian(8,4)"])
def test_non_nested_chains_report_as_underived(monkeypatch, group_of, cert_of, spec):
    """A non-nested chain is not derived: its report is the one with nothing
    proven and all of G as S, whatever shortcut the derived path takes. The
    induction may prove a lower part of it, and every entry it proves is a
    subgroup inside every entry above it: nesting is not one of its premises."""
    G = group_of(spec)
    p = p_group_profile(G).p
    rng = random.Random(f"non-nested:{spec}")
    original = verify._derive
    for chain in _non_nested_chains(G, cert_of(spec).chain, p, rng, 12):
        steps = tuple(ForcingStep(i + 1, p, G.order // len(chain[i + 2]), False,
                                  ForcingWitness(1, p, (p,))) for i in range(len(chain) - 2))
        cert = ForcingCertificate(group_spec=G.spec, chain=chain, steps=steps)
        derived = []
        monkeypatch.setattr(verify, "_derive",
                            lambda *args: derived.append(original(*args)) or derived[-1])
        on = _report_text(G, cert)
        monkeypatch.setattr(verify, "_derive",
                            lambda G, inside, *rest: verify._underived(G, len(inside)))
        assert _report_text(G, cert) == on, chain
        proven, _, S = derived[0]
        assert not proven[1] and len(S) == G.order, chain
        for k in np.flatnonzero(proven[:-1]):
            members = np.array(chain[k])
            assert np.array_equal(G.subgroup_closure(members).members, members), chain
            assert all(set(chain[k]) <= set(chain[j]) for j in range(k)), chain


def _unit_step_coset_orders(G, members):
    """The order of xN for every x: the least k >= 1 with x^k in N, one
    product at a time."""
    inside = set(members)
    orders = []
    for x in range(G.order):
        power, k = x, 1
        while power not in inside:
            power, k = G.mul(power, x), k + 1
        orders.append(k)
    return orders


def _normal_subgroups(G):
    """Every normal subgroup of a small group, from all two-element seeds."""
    found = {tuple(H.members.tolist()): H for a in range(G.order) for b in range(a, G.order)
             for H in [G.subgroup_closure([a, b])]}
    return [H for H in found.values() if G.is_normal(H)]


class TestCosetOrders:
    def _check(self, monkeypatch, G, entries):
        """Compare every entry's row with unit steps, all entries in one call;
        return the exponent of each power map the kernel formed itself."""
        inside = np.zeros((len(entries), G.order), dtype=bool)
        for k, members in enumerate(entries):
            inside[k, list(members)] = True
        factors = sorted(factorize(G.order).items())
        pth = _power_map(G, factors[0][0]) if len(factors) == 1 else None
        asked = []
        monkeypatch.setattr(verify, "_power_map",
                            lambda G, e: asked.append(e) or _power_map(G, e))
        rows = _coset_orders(G, inside, pth).tolist()
        assert rows == [_unit_step_coset_orders(G, members) for members in entries]
        return asked

    @pytest.mark.parametrize("spec", CERTIFIED_64)
    def test_chain_entries_match_unit_steps(self, monkeypatch, group_of, cert_of, spec):
        G = group_of(spec)
        # a p-group's one ladder starts from the caller's p-th power map
        assert self._check(monkeypatch, G, cert_of(spec).chain) == []

    @pytest.mark.parametrize("spec", ["preset:Cyclic(6)",
                                      "product:perm:3:(0 1 2),(0 1)|preset:Cyclic(3)",
                                      "product:preset:Dihedral(8)|preset:Cyclic(9)"])
    def test_index_not_a_prime_power(self, monkeypatch, group_of, spec):
        G = group_of(spec)
        normal = _normal_subgroups(G)
        asked = self._check(monkeypatch, G, [H.members for H in normal])
        # for each q^a exactly dividing |G|: the q-th power map, then x^(|G|/q^a)
        assert asked == [e for q, a in sorted(factorize(G.order).items())
                         for e in (q, G.order // q ** a)]


class TestVerifierMemory:
    @pytest.mark.parametrize("width", [1, 3, 64, 1000, _BLOCK_ITEMS, 3 * _BLOCK_ITEMS])
    def test_row_blocks_cover_rows_within_budget(self, width):
        rows = np.arange(2 * _BLOCK_ITEMS + 5, dtype=np.int32)
        blocks = list(_row_blocks(rows, width))
        assert np.array_equal(np.concatenate(blocks), rows)
        # one row per block once a row alone fills the budget
        assert all(len(b) * width <= max(_BLOCK_ITEMS, width) for b in blocks)
        assert all(len(b) == len(blocks[0]) for b in blocks[:-1])

    @pytest.mark.parametrize("spec", ["preset:Dihedral(1024)", "preset:ElemAbelian(2,10)"])
    def test_peak_within_a_quarter_table(self, group_of, cert_of, spec):
        G, cert = group_of(spec), cert_of(spec)
        gc.collect()
        tracemalloc.start()
        try:
            report = verify_certificate(G, cert)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.all_passed
        assert peak <= G.mul_table.nbytes // 4

    def test_fallback_peak_within_a_quarter_table(self, monkeypatch, group_of, cert_of):
        # entry 2 with a member outside entry 1 is not nested in it, so S is
        # all of G: its n x n commutators are formed in row blocks, never kept
        G, cert = group_of("preset:Dihedral(1024)"), cert_of("preset:Dihedral(1024)")
        entry = list(cert.chain[2])
        entry[-1] = next(x for x in range(G.order) if x not in cert.chain[1])
        forged = replace(cert, chain=cert.chain[:2] + (tuple(sorted(entry)),) + cert.chain[3:])
        derived = []
        original = verify._derive
        monkeypatch.setattr(verify, "_derive",
                            lambda *args: derived.append(original(*args)) or derived[-1])
        gc.collect()
        tracemalloc.start()
        try:
            report = verify_certificate(G, forged)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(derived[0][2]) == G.order
        assert not report.all_passed
        assert peak <= G.mul_table.nbytes // 4
