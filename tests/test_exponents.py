import itertools
from fractions import Fraction

import pytest

from forcing_lab import (
    AnalyticConstants,
    DEFAULT_CONSTANTS,
    DegenerateDegree,
    DeltaReport,
    EvenPrimeBase,
    ForcingLabError,
    InvalidConstants,
    PreconditionViolated,
    RankOne,
    SylowHypothesisViolated,
    TraceRecord,
    UnverifiedCertificate,
    base_delta_elementary_abelian,
    build_forcing_sequence,
    closed_form_lower_bound,
    compositum_delta,
    crossover_report,
    delta_cap,
    delta_for_nilpotent,
    delta_for_p_group,
    eta0,
    extend_delta,
    format_rational,
    p_group_profile,
    parse_rational,
    replay_trace,
)
from forcing_lab.exponents import parse_int

F = Fraction


class TestRationalText:
    def test_format_always_has_denominator(self):
        assert format_rational(F(30)) == "30/1"
        assert format_rational(F(1, 1860)) == "1/1860"
        assert format_rational(F(-3, 4)) == "-3/4"

    def test_parse_round_trip(self):
        for q in [F(30), F(1, 1860), F(22, 7), F(-3, 4), F(0)]:
            assert parse_rational(format_rational(q)) == q
        assert parse_rational("9" * 4300 + "/" + "7" * 4300) == F(int("9" * 4300), int("7" * 4300))

    @pytest.mark.parametrize("text", [
        "1e-2000000", "1E5", "0.5", "1", "+1/2", "1/-2", "1/0", "1/00", "1_000/3", " 1/2", "1/2 ",
        "1//2", "", "abc", "9" * 4301 + "/1", "1/" + "9" * 4301, None, 5, F(1, 2),
    ])
    def test_parse_reads_only_the_num_den_form(self, text):
        # Fraction() would read most of these, "1e-2000000" as a 2000001-digit integer
        with pytest.raises(ValueError, match="is not a rational num/den"):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["abc", "1/2", "+5", "5 ", "", "9" * 4301, None, 5])
    def test_parse_int_reads_only_plain_integers(self, text):
        with pytest.raises(ValueError, match="is not an integer of at most 4300 digits"):
            parse_int(text)
        assert parse_int("-" + "9" * 4300) == -int("9" * 4300)


class TestConstants:
    def test_defaults(self):
        assert DEFAULT_CONSTANTS.beta == 35
        assert DEFAULT_CONSTANTS.gamma == 19
        assert DEFAULT_CONSTANTS.epsilon_delta == 0

    def test_invariant_rejected(self):
        with pytest.raises(ValueError):
            AnalyticConstants(beta=F(19), gamma=F(19))
        with pytest.raises(ValueError):
            AnalyticConstants(beta=F(39, 2), gamma=F(19))  # exactly gamma + 1/2

    @pytest.mark.parametrize("kwargs", [{"beta": 19}, {"gamma": 0}, {"epsilon_delta": 1}])
    def test_rejection_is_a_named_library_error(self, kwargs):
        with pytest.raises(InvalidConstants) as info:
            AnalyticConstants(**kwargs)
        assert isinstance(info.value, ForcingLabError)

    def test_just_above_invariant_accepted(self):
        c = AnalyticConstants(beta=F(79, 4), gamma=F(19))
        assert c.beta - c.gamma > F(1, 2)

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            AnalyticConstants(epsilon_delta=F(1))
        with pytest.raises(ValueError):
            AnalyticConstants(epsilon_delta=F(-1, 10))
        assert AnalyticConstants(epsilon_delta=F(1, 2)).epsilon_delta == F(1, 2)

    def test_coercion_from_int(self):
        c = AnalyticConstants(beta=40, gamma=20)
        assert c.beta == F(40)

    def test_equal_constants_hash_alike(self):
        # the hash is computed once, from the coerced fields
        same = AnalyticConstants(beta=F(70, 2), gamma=19, epsilon_delta=0)
        assert same == DEFAULT_CONSTANTS and hash(same) == hash(DEFAULT_CONSTANTS)
        assert eta0(5, 3, 3, same) == eta0(5, 3, 3) == F(1, 2103)


class TestFrozenValues:
    """Hand-evaluated oracle values; these must never drift."""

    def test_delta_cap(self):
        assert delta_cap(5, 3) == F(1, 20)
        assert delta_cap(2, 2) == F(1, 4)
        assert delta_cap(3, 2, AnalyticConstants(epsilon_delta=F(1, 2))) == F(1, 12)

    def test_base_delta(self):
        assert base_delta_elementary_abelian(3, 2, 5) == F(1, 1860)
        assert base_delta_elementary_abelian(5, 2, 3) == F(1, 1320)
        assert base_delta_elementary_abelian(3, 2, 2) == F(1, 312)

    def test_eta0(self):
        assert eta0(5, 3, 3) == F(1, 2103)
        assert eta0(2, 3, 3) == F(1, 843)
        assert eta0(3, 2, 2) == F(1, 422)

    def test_closed_form_lower_bound(self):
        assert closed_form_lower_bound(3, 3, 2, 5) == F(1, 118098000)
        assert closed_form_lower_bound(3, 2, 2, 5) == F(1, 36450)

    def test_compositum(self):
        assert compositum_delta(F(1, 4), 4, F(1, 6), 9) == F(1, 60)

    def test_extend(self):
        assert extend_delta(F(1, 1860), F(1, 2103)) == F(1, 3911580)


class TestDomainErrors:
    def test_delta_cap_degenerate(self):
        with pytest.raises(DegenerateDegree):
            delta_cap(5, 1)

    def test_base_even_prime(self):
        with pytest.raises(EvenPrimeBase):
            base_delta_elementary_abelian(2, 2, 3)

    def test_base_rank_one(self):
        with pytest.raises(RankOne):
            base_delta_elementary_abelian(3, 1, 5)

    def test_base_non_prime(self):
        with pytest.raises(PreconditionViolated):
            base_delta_elementary_abelian(9, 2, 5)

    def test_closed_form_guards(self):
        with pytest.raises(EvenPrimeBase):
            closed_form_lower_bound(2, 3, 2, 5)
        with pytest.raises(RankOne):
            closed_form_lower_bound(3, 3, 1, 5)
        with pytest.raises(PreconditionViolated):
            closed_form_lower_bound(3, 1, 2, 5)

    def test_compositum_degree_guard(self):
        with pytest.raises(DegenerateDegree):
            compositum_delta(F(1, 4), 1, F(1, 6), 9)

    def test_extend_range_guard(self):
        with pytest.raises(PreconditionViolated):
            extend_delta(F(1, 2), F(1, 10))


class TestPGroupDelta:
    def test_heisenberg_matches_closed_form(self, group_of):
        G = group_of("preset:Heisenberg(3)")
        report = delta_for_nilpotent(G, 5)
        assert report.delta == F(1, 3911580)
        assert report.closed_form_check is not None
        assert report.closed_form_check.matched
        assert report.closed_form_check.predicted == F(1, 3911580)
        assert report.delta >= closed_form_lower_bound(3, 3, 2, 5)

    def test_elementary_abelian_base_only(self, group_of):
        report = delta_for_nilpotent(group_of("preset:ElemAbelian(3,2)"), 5)
        assert report.delta == F(1, 1860)
        assert [r.rule for r in report.trace] == ["base"]

    def test_even_prime_needs_override(self, group_of):
        with pytest.raises(EvenPrimeBase):
            delta_for_nilpotent(group_of("preset:ElemAbelian(2,2)"), 3)

    def test_even_prime_with_override(self, group_of):
        report = delta_for_nilpotent(group_of("preset:Abelian(2,4)"), 3,
                                     overrides={2: F(1, 100)})
        assert report.delta == F(1, 100) * F(1, 422)
        assert report.trace[0].inputs["source"] == "override"

    def test_override_out_of_range_rejected(self, group_of):
        with pytest.raises(PreconditionViolated):
            delta_for_nilpotent(group_of("preset:Abelian(2,4)"), 3,
                                overrides={2: F(1, 2)})

    def test_cert_profile_mismatch_rejected(self, group_of, cert_of):
        cert = cert_of("preset:Dihedral(8)")
        profile = p_group_profile(group_of("preset:Heisenberg(3)"))
        with pytest.raises(UnverifiedCertificate):
            delta_for_p_group(profile, cert, 5)

    def test_trivial_group_rejected(self, group_of):
        with pytest.raises(PreconditionViolated):
            delta_for_nilpotent(group_of("perm:3:()"), 5)


class TestNilpotentDelta:
    def test_two_factor_compositum(self, group_of):
        G = group_of("product:preset:Heisenberg(3)|preset:ElemAbelian(5,2)")
        report = delta_for_nilpotent(G, 7)
        d3 = delta_for_nilpotent(group_of("preset:Heisenberg(3)"), 7).delta
        d5 = delta_for_nilpotent(group_of("preset:ElemAbelian(5,2)"), 7).delta
        assert report.delta == compositum_delta(d3, 27, d5, 25)
        assert [r.rule for r in report.trace].count("compositum") == 1

    def test_sylow_two_violation_names_prime_two(self, group_of):
        with pytest.raises(SylowHypothesisViolated) as info:
            delta_for_nilpotent(
                group_of("product:preset:Cyclic(2)|preset:Heisenberg(3)"), 5)
        assert info.value.prime == 2

    def test_c2_x_c6_offender_is_prime_three(self, group_of):
        # Sylow-2 here is the Klein four group (fine); Sylow-3 = C3 is cyclic
        with pytest.raises(SylowHypothesisViolated) as info:
            delta_for_nilpotent(
                group_of("product:preset:Cyclic(2)|preset:Cyclic(6)"), 5)
        assert info.value.prime == 3

    def test_first_offending_prime_named(self, group_of):
        # both factors violate (Q8 quaternion, C3 cyclic); primes are checked
        # ascending and before any exponent evaluation, so 2 is reported
        with pytest.raises(SylowHypothesisViolated) as info:
            delta_for_nilpotent(
                group_of("product:preset:GenQuaternion(1)|preset:Cyclic(3)"), 5)
        assert info.value.prime == 2
        assert "quaternion" in str(info.value)

    def test_p_group_input_takes_direct_path(self, group_of, cert_of):
        G = group_of("preset:Heisenberg(3)")
        via_nilpotent = delta_for_nilpotent(G, 5)
        via_p_group = delta_for_p_group(p_group_profile(G),
                                        cert_of("preset:Heisenberg(3)"), 5)
        assert via_nilpotent == via_p_group


class TestFoldOrderIndependence:
    def test_all_six_orders_agree(self):
        factors = [(F(1, 1860), 27), (F(1, 1320), 25), (F(1, 500), 49)]
        results = set()
        for perm in itertools.permutations(factors):
            (d, n), rest = perm[0], perm[1:]
            for d2, n2 in rest:
                d = compositum_delta(d, n, d2, n2)
                n *= n2
            results.add(d)
        assert len(results) == 1

    def test_matches_reciprocal_identity(self):
        d1, n1, d2, n2 = F(1, 4), 4, F(1, 6), 9
        d = compositum_delta(d1, n1, d2, n2)
        assert 1 / d == n2 / d1 + n1 / d2


class TestReplay:
    def test_replays_single_factor(self, group_of):
        report = delta_for_nilpotent(group_of("preset:Heisenberg(3)"), 5)
        assert replay_trace(report) == report.delta

    def test_replays_compositum(self, group_of):
        G = group_of("product:preset:Heisenberg(3)|preset:ElemAbelian(5,2)")
        report = delta_for_nilpotent(G, 7)
        assert replay_trace(report) == report.delta

    def test_replays_override(self, group_of):
        report = delta_for_nilpotent(group_of("preset:Abelian(2,4)"), 3,
                                     overrides={2: F(1, 100)})
        assert replay_trace(report) == report.delta

    def _tamper(self, report, index, **changes):
        records = list(report.trace)
        rec = records[index]
        inputs = dict(rec.inputs)
        outputs = dict(rec.outputs)
        for key, value in changes.items():
            if key in outputs:
                outputs[key] = value
            else:
                inputs[key] = value
        records[index] = TraceRecord(rule=rec.rule, inputs=inputs, outputs=outputs)
        return DeltaReport(group_spec=report.group_spec, ell=report.ell,
                           delta=report.delta, trace=tuple(records),
                           closed_form_check=report.closed_form_check)

    def test_tampered_output_detected(self, group_of):
        report = delta_for_nilpotent(group_of("preset:Heisenberg(3)"), 5)
        bad = self._tamper(report, 0, delta="1/1861")
        with pytest.raises(UnverifiedCertificate):
            replay_trace(bad)

    def test_tampered_eta_detected(self, group_of):
        report = delta_for_nilpotent(group_of("preset:Heisenberg(3)"), 5)
        bad = self._tamper(report, 1, eta0="1/2104")
        with pytest.raises(UnverifiedCertificate):
            replay_trace(bad)

    @pytest.mark.parametrize("changes, message", [
        ({"eta0": "1/2104"}, "record 1: eta0 recomputes to 1/2103"),
        # beta = 40 gives eta0(5, 3, 3) = (1/20) / (3/20 + 3 * 40)
        ({"beta": "40/1"}, "record 1: eta0 recomputes to 1/2403"),
        ({"beta": "19/1"}, "constants invariant rejected: beta must exceed gamma + 1/2"),
    ])
    def test_cached_rules_hide_no_forgery(self, group_of, changes, message):
        """eta0 and the constants are cached: a forged extension with the
        genuine (ell, m, r), replayed after the genuine trace, still fails
        with its own message, and twice over."""
        report = delta_for_nilpotent(group_of("preset:Heisenberg(3)"), 5)
        forged = self._tamper(report, 1, **changes)
        for _ in range(2):
            assert replay_trace(report) == report.delta
            with pytest.raises(ForcingLabError) as caught:
                replay_trace(forged)
            assert str(caught.value).endswith(message)

    @pytest.mark.parametrize("index, part, key, text, message", [
        (0, "inputs", "ell", "abc", "record 0: ell: 'abc' is not an integer"),
        (0, "inputs", "p", "9" * 5000, "record 0: p: '" + "9" * 36 + "... is not an integer"),
        (0, "outputs", "delta", "1e-2000000",
         "record 0: delta: '1e-2000000' is not a rational num/den"),
        (1, "inputs", "eta0", "1/0", "record 1: eta0: '1/0' is not a rational num/den"),
        (1, "inputs", "r", None, "record 1: r is missing"),
        (1, "inputs", "gamma", 19, "record 1: gamma is 19"),
    ])
    def test_unreadable_field_fails_by_name(self, group_of, index, part, key, text, message):
        report = delta_for_nilpotent(group_of("preset:Heisenberg(3)"), 5)
        records = list(report.trace)
        fields = {"inputs": dict(records[index].inputs), "outputs": dict(records[index].outputs)}
        if text is None:
            del fields[part][key]
        else:
            fields[part][key] = text
        records[index] = TraceRecord(records[index].rule, **fields)
        with pytest.raises(UnverifiedCertificate, match=f"^trace does not replay: {message}"):
            replay_trace(DeltaReport(report.group_spec, report.ell, report.delta, tuple(records)))

    def test_unnormalised_texts_still_replay(self, group_of):
        """Replay compares a delta or eta0 text with the value's own num/den
        text first; an equal value written otherwise is read and accepted."""
        report = delta_for_nilpotent(group_of("preset:Heisenberg(3)"), 5)
        tripled = {}
        for rec in report.trace:
            for key, text in (*rec.inputs.items(), *rec.outputs.items()):
                if key in ("delta", "eta0"):
                    num, den = text.split("/")
                    tripled[text] = f"{3 * int(num)}/{3 * int(den)}"
        records = tuple(TraceRecord(rec.rule, *({k: tripled.get(v, v) for k, v in fields.items()}
                                                for fields in (rec.inputs, rec.outputs)))
                        for rec in report.trace)
        assert records != report.trace
        assert replay_trace(DeltaReport(report.group_spec, report.ell, report.delta,
                                        records)) == report.delta

    def test_missing_compositum_detected(self, group_of):
        G = group_of("product:preset:Heisenberg(3)|preset:ElemAbelian(5,2)")
        report = delta_for_nilpotent(G, 7)
        truncated = DeltaReport(group_spec=report.group_spec, ell=report.ell,
                                delta=report.delta,
                                trace=tuple(r for r in report.trace
                                            if r.rule != "compositum"),
                                closed_form_check=None)
        with pytest.raises(UnverifiedCertificate):
            replay_trace(truncated)

    @pytest.mark.parametrize("appended, message", [
        (slice(0, 1), "record 4: base after the compositum fold"),
        (slice(0, 2), "record 4: base after the compositum fold"),
        (slice(1, 2), "record 4: extension after the compositum fold"),
    ])
    def test_records_after_the_fold_detected(self, group_of, appended, message):
        """The trace is base, extension, base, compositum; a run appended
        after the fold would otherwise never be checked."""
        G = group_of("product:preset:Heisenberg(3)|preset:ElemAbelian(5,2)")
        report = delta_for_nilpotent(G, 5)
        assert [r.rule for r in report.trace] == ["base", "extension", "base", "compositum"]
        trailing = DeltaReport(report.group_spec, report.ell, report.delta,
                               report.trace + report.trace[appended])
        with pytest.raises(UnverifiedCertificate, match=f"^trace does not replay: {message}$"):
            replay_trace(trailing)

    @staticmethod
    def _forged_fold(trace, part, key, text):
        """trace with record 3, the compositum, forged at one field."""
        fields = {"inputs": dict(trace[3].inputs), "outputs": dict(trace[3].outputs)}
        fields[part][key] = text
        return trace[:3] + (TraceRecord("compositum", **fields),)

    @pytest.mark.parametrize("forge, message", [
        (lambda trace: (), "empty trace"),
        (lambda trace: trace[3:], "record 0: compositum before any factor"),
        (lambda trace: trace[:3], "multiple factors but no compositum records"),
        (lambda trace: trace[:3] + trace[2:], "unfolded factors remain"),
        (lambda trace: trace + trace[3:], "record 4: compositum exceeds available factors"),
        (lambda trace: trace[:1] + (TraceRecord("frobnicate", {}, {}),) + trace[2:],
         "record 1: unknown rule 'frobnicate'"),
        (lambda trace: trace + (TraceRecord("frobnicate", {}, {}),),
         "record 4: unknown rule 'frobnicate'"),
        (lambda trace: TestReplay._forged_fold(trace, "inputs", "delta1", "1/7"),
         "record 3: left input does not continue the fold"),
        (lambda trace: TestReplay._forged_fold(trace, "inputs", "delta2", "1/7"),
         "record 3: right input is not the next factor"),
        (lambda trace: TestReplay._forged_fold(trace, "outputs", "delta", "1/7"),
         "record 3: compositum output mismatch"),
    ], ids=["empty", "no-factor", "no-compositum", "unfolded", "too-many-composita",
            "unknown-factor-rule", "unknown-fold-rule", "left", "right", "output"])
    def test_fold_faults_are_named(self, group_of, forge, message):
        """The trace is base, extension, base, compositum; each forgery of
        its shape or of its compositum fails with its own message."""
        G = group_of("product:preset:Heisenberg(3)|preset:ElemAbelian(5,2)")
        report = delta_for_nilpotent(G, 5)
        forged = DeltaReport(report.group_spec, report.ell, report.delta, forge(report.trace))
        with pytest.raises(UnverifiedCertificate) as caught:
            replay_trace(forged)
        assert str(caught.value) == f"trace does not replay: {message}"

    def test_final_delta_mismatch_detected(self, group_of):
        report = delta_for_nilpotent(group_of("preset:ElemAbelian(3,2)"), 5)
        lied = DeltaReport(group_spec=report.group_spec, ell=report.ell,
                           delta=report.delta / 2, trace=report.trace,
                           closed_form_check=None)
        with pytest.raises(UnverifiedCertificate):
            replay_trace(lied)


class TestCrossover:
    def test_frozen_values_at_default_constants(self):
        delta = base_delta_elementary_abelian(3, 2, 5)
        report = crossover_report(delta, 5, 3, 3)
        assert report.eta0 == F(1, 2103)
        assert report.delta_b_at_eta0 == F(1, 3911580)
        assert report.delta_s_at_eta0 == F(16, 2103)
        assert report.consistent

    def test_branches_cross_monotonically(self):
        """delta_b grows with eta, delta_s falls; at eta0 the small-range
        branch still dominates, which is what consistency asserts."""
        delta = base_delta_elementary_abelian(3, 2, 5)
        consts = DEFAULT_CONSTANTS
        m = r = 3
        eta_star = eta0(5, m, r, consts)
        cap = delta_cap(5, m, consts)

        def delta_s(eta):
            return (1 - m * eta) * cap / r - eta * consts.gamma

        def delta_b(eta):
            return delta * eta

        assert delta_s(eta_star) > 0
        assert delta_b(eta_star / 2) < delta_b(eta_star) < delta_b(2 * eta_star)
        assert delta_s(eta_star / 2) > delta_s(eta_star) > delta_s(2 * eta_star)
        assert delta_s(eta_star) >= delta_b(eta_star)

    def test_implication_guard(self):
        # whenever max(beta, gamma) - gamma >= delta the report is consistent
        for p, ell in [(3, 2), (3, 5), (5, 3), (7, 11)]:
            delta = base_delta_elementary_abelian(p, 2, ell)
            report = crossover_report(delta, ell, p, p)
            guard = max(DEFAULT_CONSTANTS.beta, DEFAULT_CONSTANTS.gamma) - DEFAULT_CONSTANTS.gamma
            assert guard >= delta
            assert report.consistent

    def test_rejects_out_of_range_delta(self):
        with pytest.raises(PreconditionViolated):
            crossover_report(F(1, 2), 5, 3, 3)


class TestGrids:
    def test_eta0_lower_bound_grid(self):
        for p in (3, 5, 7):
            for ell in (2, 3, 5, 7, 11):
                assert eta0(ell, p, p) >= F(1, 72 * p * p * ell)

    def test_closed_form_grid(self):
        for p in (3, 5, 7):
            for ell in (2, 3, 5, 7, 11):
                base = base_delta_elementary_abelian(p, 2, ell)
                eta = eta0(ell, p, p)
                for r in (2, 3):
                    for n in range(r, r + 4):
                        chained = base * eta ** (n - r)
                        assert chained >= closed_form_lower_bound(p, n, r, ell)

    def test_eta0_bound_fails_with_half_epsilon(self):
        # one-sided inequality that goes the other way once epsilon_delta = 1/2
        consts = AnalyticConstants(epsilon_delta=F(1, 2))
        assert eta0(2, 3, 3, consts) < F(1, 72 * 9 * 2)
