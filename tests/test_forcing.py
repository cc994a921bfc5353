import gc
import hashlib
import inspect
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
    PreconditionViolated,
    QuaternionGroup,
    QuotientMap,
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
from forcing_lab import forcing
from forcing_lab.forcing import _quaternion_quotient
from forcing_lab.verify import _BLOCK_ITEMS, _coset_orders, _power_map, _row_blocks

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
    def test_agrees_with_brute_force(self, group_of, cert_of):
        """The witness read from G/N_i and the exhaustive predicate, run on the
        quotient of quotients (G/N_{i+1}) / (N_i/N_{i+1}) built here, pick the
        same class on every step."""
        for spec in BUILDABLE + CERTIFIED_64:
            G = group_of(spec)
            cert = cert_of(spec)
            for i in range(1, len(cert.chain) - 1):
                upper, lower = Subgroup(G, cert.chain[i]), Subgroup(G, cert.chain[i + 1])
                q_low = G.quotient(lower)
                src = q_low.target
                kernel = src.subgroup_closure(
                    sorted({int(q_low.project[m]) for m in upper.members}))
                brute = is_forcing(src.quotient(kernel))
                assert brute is not None, spec
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
            formed.append(N.members)
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
            q = G.quotient(cand)
            flags.append(is_generalized_quaternion(q.target) is not None)
        assert sum(flags) == 1

    def test_built_chain_avoids_the_quaternion_quotient(self, group_of, cert_of):
        G = group_of(TWISTED_C4_SPEC)
        cert = cert_of(TWISTED_C4_SPEC)
        for entry in cert.chain[:-1]:
            q = G.quotient(Subgroup(G, entry))
            assert is_generalized_quaternion(q.target) is None

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
                    if current.order == series[j + 1].order or current.members in seen:
                        continue
                    seen.add(current.members)
                    for S in G.intermediate_index_p_subgroups(current, series[j + 1], 2):
                        expected = is_generalized_quaternion(G.quotient(S).target) is not None
                        assert _quaternion_quotient(G, S) == expected, (spec, S.members)
                        quaternion += expected
                        todo.append(S)
        assert quaternion > 0

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
        for owner in (FiniteGroup, Subgroup, QuotientMap):
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
                      if H.order == 2 and int(G.quotient(H).target.orders().max()) == 8)
        step = ForcingStep(index_in_chain=1, kernel_order=2, quotient_order=16,
                           quotient_is_quaternion=False, witness=ForcingWitness(1, 2, (2,)))
        cert = ForcingCertificate(group_spec=G.spec, chain=(tuple(range(16)), kernel.members,
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


def _largest_member_representative(original):
    def image_class(project, members):
        # the largest image first, so it becomes the representative
        return original(project, members)[::-1]
    return image_class


def _reversed_target_labels(original):
    def quotient(self, N):
        q = original(self, N)
        # t -> |Q| - t for t >= 1 is an involution, so it is its own inverse
        relabel = np.concatenate([[0], np.arange(self.order // N.order - 1, 0, -1)])
        return QuotientMap(self, N, relabel[q.project])
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
    the targets' conjugacy classes and the step map phi between quotients."""
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
        quotients.append(G.quotient(sub) if normal else None)
    for k, q in enumerate(quotients):
        idx = None if q is None else is_generalized_quaternion(q.target)
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
        flag_ok = (step.quotient_is_quaternion is False
                   and is_generalized_quaternion(q_low.target) is None)
        checks.append(CheckResult("step-quaternion-flag", flag_ok,
                                  "recorded flag must be false and match recomputation",
                                  step=i))
        witness = step.witness
        if witness.class_rep >= q_up.target.order:
            checks.append(CheckResult("step-witness-class", False,
                                      f"representative {witness.class_rep} out of range",
                                      step=i))
            checks.append(CheckResult("step-forcing", False, "witness unusable", step=i))
            continue
        label = q_up.target.conjugacy_classes()
        rep = int(label[witness.class_rep])
        order = int(q_up.target.orders()[rep])
        phi = np.empty(q_low.target.order, dtype=np.int32)
        phi[q_low.project] = q_up.project
        low_orders = q_low.target.orders()
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
            if other.members != cert.chain[k]:
                yield f"swap {k}", replace(cert, chain=cert.chain[:k] + (other.members,)
                                           + cert.chain[k + 1:])
        entry = list(cert.chain[k])
        outside = [m for m in cert.chain[k - 1] if m not in cert.chain[k]]
        inside = [m for m in cert.chain[k] if m not in cert.chain[k + 1]]
        entry[entry.index(inside[-1])] = outside[0]
        yield f"tamper {k}", replace(cert, chain=cert.chain[:k] + (tuple(sorted(entry)),)
                                     + cert.chain[k + 1:])


class TestReportsMatchQuotientReference:
    @pytest.mark.parametrize("spec", CERTIFIED_64)
    def test_nested_chains_give_identical_checks(self, group_of, cert_of, spec):
        G = group_of(spec)
        for label, cert in _forgeries(G, cert_of(spec)):
            report = verify_certificate(G, cert)
            ours = [c for c in report.checks if c.condition in QUOTIENT_CONDITIONS]
            assert ours == _quotient_reference(G, cert), label

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


def test_pinned_reports_are_unchanged(group_of, cert_of):
    lines = "\n".join(f"{label}\t{text}" for label, text in _pinned_reports(group_of, cert_of))
    assert hashlib.sha256(lines.encode()).hexdigest() == PINNED_REPORTS_SHA256


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
    found = {H.members: H for a in range(G.order) for b in range(a, G.order)
             for H in [G.subgroup_closure([a, b])]}
    return [H for H in found.values() if G.is_normal(H)]


class TestCosetOrders:
    def _check(self, G, members):
        """Compare with unit steps; return the q of each q-th power map used."""
        inside = np.zeros(G.order, dtype=bool)
        inside[list(members)] = True
        asked = []

        def power_map(q):
            asked.append(q)
            return _power_map(G, q)

        assert _coset_orders(G, inside, power_map).tolist() == _unit_step_coset_orders(G, members)
        return asked

    @pytest.mark.parametrize("spec", CERTIFIED_64)
    def test_chain_entries_match_unit_steps(self, group_of, cert_of, spec):
        G = group_of(spec)
        for entry in cert_of(spec).chain:
            self._check(G, entry)

    @pytest.mark.parametrize("spec", ["preset:Cyclic(6)",
                                      "product:perm:3:(0 1 2),(0 1)|preset:Cyclic(3)"])
    def test_index_not_a_prime_power(self, group_of, spec):
        G = group_of(spec)
        normal = _normal_subgroups(G)
        used = {G.order // H.order: self._check(G, H.members) for H in normal}
        # q-th power steps for a prime index, unit steps for index 6
        assert used[2] == [2] and used[3] == [3] and used[6] == []


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
