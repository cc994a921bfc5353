"""Exact rational evaluation of saving exponents.

Everything here is pure Fraction arithmetic; no floating point anywhere.
The base rule handles elementary abelian p-groups (odd p), the extension
rule multiplies in eta0 once per forcing step, and the compositum rule
merges Sylow factors. Reports carry a replayable trace: every applied rule
records enough of its inputs (as exact "num/den" strings) to be recomputed
independently, and replay_trace does exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .classify import PGroupProfile, p_group_profile, sylow_decomposition
from .errors import (
    DegenerateDegree,
    EvenPrimeBase,
    InvalidConstants,
    PreconditionViolated,
    RankOne,
    SylowHypothesisViolated,
    UnverifiedCertificate,
)
from .forcing import ForcingCertificate, build_forcing_sequence
from .groups import FiniteGroup, is_prime, prime_power, subgroup_as_group
from .groupspec import spec_text
from .verify import verify_certificate


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    return Fraction(text)


@dataclass(frozen=True)
class AnalyticConstants:
    """Effective constants of the analytic inputs; only beta, gamma, and the
    delta_cap slack epsilon_delta enter any formula. The standing assumption
    beta > gamma + 1/2 is enforced at construction."""

    beta: Fraction = Fraction(35)
    gamma: Fraction = Fraction(19)
    epsilon_delta: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        object.__setattr__(self, "epsilon_delta", Fraction(self.epsilon_delta))
        if self.beta <= 0 or self.gamma <= 0:
            raise InvalidConstants("beta and gamma must be positive")
        if self.beta <= self.gamma + Fraction(1, 2):
            raise InvalidConstants("constants invariant rejected: beta must exceed gamma + 1/2")
        if not 0 <= self.epsilon_delta < 1:
            raise InvalidConstants("epsilon_delta must lie in [0, 1)")


DEFAULT_CONSTANTS = AnalyticConstants()


def delta_cap(ell: int, d: int, consts: AnalyticConstants = DEFAULT_CONSTANTS) -> Fraction:
    """The degree-d budget (1 - epsilon_delta) / (2*ell*(d-1))."""
    if d < 2:
        raise DegenerateDegree(f"degree {d} admits no saving exponent")
    if ell < 2:
        raise PreconditionViolated("ell must be at least 2")
    return (1 - consts.epsilon_delta) / Fraction(2 * ell * (d - 1))


def base_delta_elementary_abelian(p: int, r: int, ell: int,
                                  consts: AnalyticConstants = DEFAULT_CONSTANTS) -> Fraction:
    """Base exponent for (Z/p)^r, odd p:

        delta0 = delta_cap(ell, p) / (p * (1 + t0)),
        t0 = 1 / ((p-1) * delta_cap(ell, p) * (1 - 2/p)).
    """
    if not is_prime(p):
        raise PreconditionViolated(f"{p} is not prime")
    if p == 2:
        raise EvenPrimeBase("no built-in base exponent at p = 2; supply an override")
    if r <= 1:
        raise RankOne("base exponent needs generator rank at least 2")
    cap = delta_cap(ell, p, consts)
    t0 = 1 / ((p - 1) * cap * (1 - Fraction(2, p)))
    return cap / (p * (1 + t0))


def eta0(ell: int, m: int, r: int,
         consts: AnalyticConstants = DEFAULT_CONSTANTS) -> Fraction:
    """Per-step multiplicative update for a forcing extension with kernel
    order m and witness class order r:

        eta0 = delta_cap(ell, m) / (m * delta_cap(ell, m) + r * max(beta, gamma))
    """
    if m < 2:
        raise DegenerateDegree(f"kernel order {m} is degenerate")
    if r < 2:
        raise PreconditionViolated("witness class order must be at least 2")
    cap = delta_cap(ell, m, consts)
    big = max(consts.beta, consts.gamma)
    out = cap / (m * cap + r * big)
    if not 0 < out < Fraction(1, m):
        raise PreconditionViolated("eta0 escaped (0, 1/m); constants are inconsistent")
    return out


def extend_delta(delta: Fraction, eta: Fraction) -> Fraction:
    if not 0 < delta < Fraction(1, 2):
        raise PreconditionViolated("delta must lie in (0, 1/2)")
    if not 0 < eta < 1:
        raise PreconditionViolated("eta must lie in (0, 1)")
    return delta * eta


def compositum_delta(d1: Fraction, n: int, d2: Fraction, m: int) -> Fraction:
    """Merge exponents of two linearly disjoint factors of regular degrees
    n and m: delta = d1*d2 / (n*d1 + m*d2), i.e. 1/delta = m/d1 + n/d2."""
    if n < 2 or m < 2:
        raise DegenerateDegree("compositum needs both degrees at least 2")
    for d in (d1, d2):
        if not 0 < d < Fraction(1, 2):
            raise PreconditionViolated("compositum inputs must lie in (0, 1/2)")
    return (d1 * d2) / (n * d1 + m * d2)


def closed_form_lower_bound(p: int, n: int, r: int, ell: int) -> Fraction:
    """Lower bound 1 / (18 * 72^(n-r) * p^(2n+2-r) * ell^(n+2-r)) for the
    chained exponent of a p-group of order p^n and rank r, odd p, defaults."""
    if not is_prime(p):
        raise PreconditionViolated(f"{p} is not prime")
    if p == 2:
        raise EvenPrimeBase("the closed-form bound is for odd p")
    if r < 2:
        raise RankOne("bound needs generator rank at least 2")
    if n < r:
        raise PreconditionViolated("n must be at least the rank")
    if ell < 2:
        raise PreconditionViolated("ell must be at least 2")
    return Fraction(1, 18 * 72 ** (n - r) * p ** (2 * n + 2 - r) * ell ** (n + 2 - r))


@dataclass(frozen=True)
class TraceRecord:
    """One applied rule; inputs and outputs are strings (ints plain, rationals
    num/den) so the record replays without reference to anything else."""

    rule: str
    inputs: Mapping[str, str]
    outputs: Mapping[str, str]


@dataclass(frozen=True)
class ClosedFormCheck:
    predicted: Fraction
    matched: bool


@dataclass(frozen=True)
class DeltaReport:
    group_spec: str
    ell: int
    delta: Fraction
    trace: tuple[TraceRecord, ...]
    closed_form_check: ClosedFormCheck | None = None

    def __post_init__(self) -> None:
        if not 0 < self.delta < Fraction(1, 2):
            raise PreconditionViolated("delta must lie in (0, 1/2)")


def _consts_fields(consts: AnalyticConstants) -> dict[str, str]:
    return {
        "beta": format_rational(consts.beta),
        "gamma": format_rational(consts.gamma),
        "epsilon_delta": format_rational(consts.epsilon_delta),
    }


def delta_for_p_group(profile: PGroupProfile, cert: ForcingCertificate, ell: int,
                      consts: AnalyticConstants = DEFAULT_CONSTANTS,
                      base_override: Fraction | None = None) -> DeltaReport:
    """Fold the base rule and one extension per certificate step.

    The certificate must be structurally consistent with the profile
    (UnverifiedCertificate otherwise); semantic verification is the caller's
    job via verify_certificate. base_override supplies the p = 2 base case.
    """
    p, n, r = profile.p, profile.n, profile.rank
    if profile.is_cyclic:
        raise UnverifiedCertificate("profile is cyclic; no certificate can exist")
    if profile.quaternion_index is not None:
        raise UnverifiedCertificate("profile is generalized quaternion; no certificate can exist")
    if len(cert.chain) != n - r + 2 or len(cert.steps) != n - r:
        raise UnverifiedCertificate(
            f"chain/steps shape {len(cert.chain)}/{len(cert.steps)} does not match "
            f"n - r = {n - r}")
    if len(cert.chain[0]) != p ** n:
        raise UnverifiedCertificate("chain does not start at a group of order p^n")
    for i, step in enumerate(cert.steps):
        if step.kernel_order != p:
            raise UnverifiedCertificate(f"step {i} kernel order {step.kernel_order} != {p}")
        if step.witness is None or step.witness.class_order < 2:
            raise UnverifiedCertificate(f"step {i} lacks a usable witness")
        if step.quotient_is_quaternion:
            raise UnverifiedCertificate(f"step {i} admits a quaternion quotient")
    trace: list[TraceRecord] = []
    if base_override is not None:
        base = Fraction(base_override)
        if not 0 < base < Fraction(1, 2):
            raise PreconditionViolated("base override must lie in (0, 1/2)")
        trace.append(TraceRecord(
            rule="base",
            inputs={"p": str(p), "rank": str(r), "ell": str(ell), "source": "override"},
            outputs={"delta": format_rational(base)},
        ))
    else:
        base = base_delta_elementary_abelian(p, r, ell, consts)
        trace.append(TraceRecord(
            rule="base",
            inputs={"p": str(p), "rank": str(r), "ell": str(ell), **_consts_fields(consts)},
            outputs={"delta": format_rational(base)},
        ))
    delta = base
    for step in cert.steps:
        rw = step.witness.class_order
        eta = eta0(ell, p, rw, consts)
        new = extend_delta(delta, eta)
        trace.append(TraceRecord(
            rule="extension",
            inputs={"delta": format_rational(delta), "ell": str(ell), "m": str(p),
                    "r": str(rw), "eta0": format_rational(eta), **_consts_fields(consts)},
            outputs={"delta": format_rational(new)},
        ))
        delta = new
    check = None
    if all(step.witness.class_order == p for step in cert.steps):
        predicted = base * eta0(ell, p, p, consts) ** (n - r)
        check = ClosedFormCheck(predicted=predicted, matched=predicted == delta)
    return DeltaReport(group_spec=cert.group_spec, ell=ell, delta=delta,
                       trace=tuple(trace), closed_form_check=check)


def delta_for_nilpotent(G: FiniteGroup, ell: int,
                        consts: AnalyticConstants = DEFAULT_CONSTANTS,
                        overrides: Mapping[int, Fraction] | None = None) -> DeltaReport:
    """Full pipeline: Sylow split, per-factor certificates, compositum fold.

    Every Sylow factor must be non-cyclic and non-quaternion
    (SylowHypothesisViolated names the first offending prime); factor
    certificates are built and fully verified here before any exponent is
    computed. overrides maps primes to base exponents (required for p = 2).
    """
    if G.order == 1:
        raise PreconditionViolated("the trivial group has no saving exponent")
    overrides = dict(overrides or {})
    pp = prime_power(G.order)
    if pp is not None:
        factors: list[tuple[int, FiniteGroup]] = [(pp[0], G)]
    else:
        decomposition = sylow_decomposition(G)
        factors = [(p, subgroup_as_group(sub))
                   for p, sub in sorted(decomposition.factors.items())]
    profiles = []
    for p, Gp in factors:
        profile = p_group_profile(Gp)
        if profile.is_cyclic:
            raise SylowHypothesisViolated(p, "cyclic")
        if profile.quaternion_index is not None:
            raise SylowHypothesisViolated(p, "generalized quaternion")
        profiles.append(profile)
    reports = []
    for (p, Gp), profile in zip(factors, profiles):
        cert = build_forcing_sequence(Gp)
        verification = verify_certificate(Gp, cert)
        if not verification.all_passed:
            failed = ", ".join(c.label() for c in verification.failures())
            raise UnverifiedCertificate(f"factor p={p} failed verification: {failed}")
        reports.append((p, Gp, delta_for_p_group(
            profile, cert, ell, consts, base_override=overrides.get(p))))
    if len(reports) == 1:
        return reports[0][2]
    trace: list[TraceRecord] = []
    for _, _, rep in reports:
        trace.extend(rep.trace)
    _, first_group, first = reports[0]
    delta = first.delta
    degree = first_group.order
    for _, Gp, rep in reports[1:]:
        new = compositum_delta(delta, degree, rep.delta, Gp.order)
        trace.append(TraceRecord(
            rule="compositum",
            inputs={"delta1": format_rational(delta), "degree1": str(degree),
                    "delta2": format_rational(rep.delta), "degree2": str(Gp.order)},
            outputs={"delta": format_rational(new)},
        ))
        delta = new
        degree *= Gp.order
    return DeltaReport(group_spec=spec_text(G), ell=ell, delta=delta,
                       trace=tuple(trace), closed_form_check=None)


def replay_trace(report: DeltaReport) -> Fraction:
    """Recompute every trace record from its recorded inputs and check the
    chain reproduces report.delta exactly; UnverifiedCertificate otherwise."""

    def fail(message: str) -> None:
        raise UnverifiedCertificate(f"trace does not replay: {message}")

    segments: list[Fraction] = []
    current: Fraction | None = None
    folded: Fraction | None = None
    fold_index = 0
    for k, record in enumerate(report.trace):
        if record.rule == "base":
            if current is not None:
                segments.append(current)
            declared = Fraction(record.outputs["delta"])
            if record.inputs.get("source") == "override":
                if not 0 < declared < Fraction(1, 2):
                    fail(f"record {k}: override outside (0, 1/2)")
            else:
                consts = AnalyticConstants(
                    beta=Fraction(record.inputs["beta"]),
                    gamma=Fraction(record.inputs["gamma"]),
                    epsilon_delta=Fraction(record.inputs["epsilon_delta"]))
                recomputed = base_delta_elementary_abelian(
                    int(record.inputs["p"]), int(record.inputs["rank"]),
                    int(record.inputs["ell"]), consts)
                if recomputed != declared:
                    fail(f"record {k}: base recomputes to {recomputed}")
            current = declared
        elif record.rule == "extension":
            if current is None or Fraction(record.inputs["delta"]) != current:
                fail(f"record {k}: extension input does not continue the chain")
            consts = AnalyticConstants(
                beta=Fraction(record.inputs["beta"]),
                gamma=Fraction(record.inputs["gamma"]),
                epsilon_delta=Fraction(record.inputs["epsilon_delta"]))
            eta = eta0(int(record.inputs["ell"]), int(record.inputs["m"]),
                       int(record.inputs["r"]), consts)
            if eta != Fraction(record.inputs["eta0"]):
                fail(f"record {k}: eta0 recomputes to {eta}")
            new = current * eta
            if new != Fraction(record.outputs["delta"]):
                fail(f"record {k}: extension output mismatch")
            current = new
        elif record.rule == "compositum":
            if folded is None:
                if current is not None:
                    segments.append(current)
                    current = None
                if not segments:
                    fail(f"record {k}: compositum before any factor")
                folded = segments[0]
                fold_index = 1
            if fold_index >= len(segments):
                fail(f"record {k}: compositum exceeds available factors")
            if Fraction(record.inputs["delta1"]) != folded:
                fail(f"record {k}: left input does not continue the fold")
            if Fraction(record.inputs["delta2"]) != segments[fold_index]:
                fail(f"record {k}: right input is not the next factor")
            recomputed = compositum_delta(
                folded, int(record.inputs["degree1"]),
                segments[fold_index], int(record.inputs["degree2"]))
            if recomputed != Fraction(record.outputs["delta"]):
                fail(f"record {k}: compositum output mismatch")
            folded = recomputed
            fold_index += 1
        else:
            fail(f"record {k}: unknown rule {record.rule!r}")
    if folded is not None:
        if fold_index != len(segments):
            fail("unfolded factors remain")
        result = folded
    elif current is not None:
        if segments:
            fail("multiple factors but no compositum records")
        result = current
    else:
        fail("empty trace")
    if result != report.delta:
        fail(f"final value {result} differs from reported delta")
    return result


@dataclass(frozen=True)
class CrossoverReport:
    """Both Extension Lemma case bounds evaluated exactly at eta = eta0."""

    eta0: Fraction
    delta_b_at_eta0: Fraction
    delta_s_at_eta0: Fraction
    consistent: bool


def crossover_report(delta: Fraction, ell: int, m: int, r: int,
                     consts: AnalyticConstants = DEFAULT_CONSTANTS) -> CrossoverReport:
    """delta_s(eta) = (1 - m*eta) * delta_cap(ell, m)/r - eta*gamma and
    delta_b(eta) = delta*eta, both at eta = eta0; consistent means
    delta_s(eta0) >= delta_b(eta0), guaranteed whenever
    max(beta, gamma) - gamma >= delta."""
    if not 0 < delta < Fraction(1, 2):
        raise PreconditionViolated("delta must lie in (0, 1/2)")
    eta = eta0(ell, m, r, consts)
    cap = delta_cap(ell, m, consts)
    delta_s = (1 - m * eta) * cap / r - eta * consts.gamma
    delta_b = delta * eta
    return CrossoverReport(eta0=eta, delta_b_at_eta0=delta_b,
                           delta_s_at_eta0=delta_s,
                           consistent=delta_s >= delta_b)
