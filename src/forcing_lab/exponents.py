"""Exact rational evaluation of saving exponents.

Everything here is pure Fraction arithmetic; no floating point anywhere.
The base rule handles elementary abelian p-groups (odd p), the extension
rule multiplies in eta0 once per forcing step, and the compositum rule
merges Sylow factors. Reports carry a replayable trace: every applied rule
records enough of its inputs (as exact "num/den" strings) to be recomputed
independently, and replay_trace does exactly that.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .classify import PGroupProfile, p_group_profile, sylow_factors
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
from .groups import FiniteGroup, is_prime, prime_power
from .groupspec import spec_text
from .verify import verify_certificate


# the most digits of an integer in a document: str() of a longer int raises
# under Python's default int-to-str limit, so no document holds one, and the
# bound caps what reading a value can cost
MAX_DIGITS = 4300
_INTEGER = re.compile(rf"-?[0-9]{{1,{MAX_DIGITS}}}")
_RATIONAL = re.compile(rf"(-?[0-9]{{1,{MAX_DIGITS}}})/([0-9]{{1,{MAX_DIGITS}}})")


def format_rational(q: Fraction) -> str:
    """q as num/den; PreconditionViolated when a part has more than
    MAX_DIGITS digits, whatever the interpreter's own int-to-str limit."""
    try:
        text = f"{q.numerator}/{q.denominator}"
    except ValueError:
        text = None
    if text is None or _RATIONAL.fullmatch(text) is None:
        raise PreconditionViolated(f"a rational with a part of more than {MAX_DIGITS} "
                                   "digits cannot be written")
    return text


def _shown(text: object) -> str:
    """text for an error message, cut to 40 characters."""
    shown = repr(text)
    return shown if len(shown) <= 40 else shown[:37] + "..."


def parse_int(text: str) -> int:
    """An integer in the form str() writes, with at most MAX_DIGITS digits;
    ValueError for any other text, or for a value that is not a str."""
    if type(text) is not str or not _INTEGER.fullmatch(text):
        raise ValueError(f"{_shown(text)} is not an integer of at most {MAX_DIGITS} digits")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """A rational in the num/den form format_rational writes, den positive
    and each part at most MAX_DIGITS digits; ValueError for any other text
    (a decimal exponent among them), or for a value that is not a str."""
    parts = _RATIONAL.fullmatch(text) if type(text) is str else None
    if parts is not None and int(parts[2]):
        return Fraction(int(parts[1]), int(parts[2]))
    raise ValueError(f"{_shown(text)} is not a rational num/den of at most {MAX_DIGITS} "
                     "digits each, den positive")


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
        # hashed once: eta0 and the base rule are cached on keys that hold it
        object.__setattr__(self, "_hash", hash((self.beta, self.gamma, self.epsilon_delta)))

    def __hash__(self) -> int:
        return self._hash


DEFAULT_CONSTANTS = AnalyticConstants()


def delta_cap(ell: int, d: int, consts: AnalyticConstants = DEFAULT_CONSTANTS) -> Fraction:
    """The degree-d budget (1 - epsilon_delta) / (2*ell*(d-1))."""
    if d < 2:
        raise DegenerateDegree(f"degree {d} admits no saving exponent")
    if ell < 2:
        raise PreconditionViolated("ell must be at least 2")
    return (1 - consts.epsilon_delta) / Fraction(2 * ell * (d - 1))


# eta0 and the base rule are pure in hashable inputs, and a corpus folds a
# few distinct ones many times over: each is computed once, while cached
@functools.lru_cache(maxsize=256, typed=True)
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


@functools.lru_cache(maxsize=256, typed=True)
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


# the constants' fields, in every record that carries them
_CONSTANT_FIELDS = ("beta", "gamma", "epsilon_delta")


def _consts_fields(consts: AnalyticConstants) -> dict[str, str]:
    return {name: format_rational(getattr(consts, name)) for name in _CONSTANT_FIELDS}


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
    constants = _consts_fields(consts)
    if base_override is not None:
        base = Fraction(base_override)
        if not 0 < base < Fraction(1, 2):
            raise PreconditionViolated("base override must lie in (0, 1/2)")
        source = {"source": "override"}
    else:
        base = base_delta_elementary_abelian(p, r, ell, consts)
        source = constants
    delta, text = base, format_rational(base)
    trace = [TraceRecord(rule="base", outputs={"delta": text},
                         inputs={"p": str(p), "rank": str(r), "ell": str(ell), **source})]
    fields = {"ell": str(ell), "m": str(p)}
    for step in cert.steps:
        rw = step.witness.class_order
        eta = eta0(ell, p, rw, consts)
        delta = extend_delta(delta, eta)
        new_text = format_rational(delta)
        trace.append(TraceRecord(
            rule="extension",
            inputs={"delta": text, **fields, "r": str(rw), "eta0": format_rational(eta),
                    **constants},
            outputs={"delta": new_text},
        ))
        text = new_text
    check = None
    if all(step.witness.class_order == p for step in cert.steps):
        predicted = base * eta0(ell, p, p, consts) ** (n - r)
        check = ClosedFormCheck(predicted=predicted, matched=predicted == delta)
    return DeltaReport(group_spec=cert.group_spec, ell=ell, delta=delta,
                       trace=tuple(trace), closed_form_check=check)


def _record_fields(record: TraceRecord | None) -> dict[str, str]:
    if record is None:
        return {}
    return {"rule": record.rule, **{f"inputs.{k}": v for k, v in record.inputs.items()},
            **{f"outputs.{k}": v for k, v in record.outputs.items()}}


def tie_report(report: DeltaReport, cert: ForcingCertificate, order: int) -> None:
    """Raise UnverifiedCertificate unless a report that replay_trace accepted
    is the one delta_for_p_group folds from its verified certificate on a
    group of the given order: p from the order, rank = log_p [G : chain[1]]
    (chain-frattini checked chain[1]), and ell, the constants and any base
    override from the report. The first field that differs is named:
    group_spec, ell, each trace record, delta, then the closed-form check's
    predicted and matched (None when absent)."""
    p, n = prime_power(order)
    base = report.trace[0]  # replay_trace accepts no trace that starts otherwise
    override = (parse_rational(base.outputs["delta"]) if base.inputs.get("source") == "override"
                else None)
    # the constants of a record whose constants replay_trace has read
    source = base if override is None else next(
        (record for record in report.trace if record.rule == "extension"), None)
    consts = DEFAULT_CONSTANTS if source is None else AnalyticConstants(
        *(parse_rational(source.inputs[name]) for name in _CONSTANT_FIELDS))
    # delta_for_p_group reads no p-class from the profile
    profile = PGroupProfile(p=p, n=n, p_class=0, rank=prime_power(order // len(cert.chain[1]))[1],
                            is_cyclic=False, quaternion_index=None)
    expected = delta_for_p_group(profile, cert, report.ell, consts, base_override=override)
    diffs = [("group_spec", expected.group_spec, report.group_spec),
             ("ell", expected.ell, report.ell)]
    for k, records in enumerate(itertools.zip_longest(expected.trace, report.trace)):
        want, got = map(_record_fields, records)
        diffs += [(f"trace[{k}].{key}", want.get(key), got.get(key))
                  for key in sorted(want.keys() | got.keys(), key=lambda key: (key != "rule", key))]
    diffs.append(("delta", format_rational(expected.delta), format_rational(report.delta)))
    checks = expected.closed_form_check, report.closed_form_check
    predicted = [None if check is None else format_rational(check.predicted) for check in checks]
    matched = [None if check is None else check.matched for check in checks]
    diffs += [("closed_form_check.predicted", *predicted), ("closed_form_check.matched", *matched)]
    for name, want, got in diffs:
        if want != got:
            raise UnverifiedCertificate(f"report does not match its certificate: {name} "
                                        f"is {got!r}, expected {want!r}")


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
    factors = sylow_factors(G)
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


_ETA_FIELDS = ("ell", "m", "r", *_CONSTANT_FIELDS)


def replay_trace(report: DeltaReport) -> Fraction:
    """Recompute every trace record from its recorded inputs and check the
    chain reproduces report.delta exactly; UnverifiedCertificate otherwise,
    a field that is missing or does not read as its int or num/den rational
    among them. It replays in two passes: the base and extension records,
    up to the first compositum record, into one value per factor, and then
    the compositum records' fold of those values. Each distinct text is read
    once: record k's output delta is record k + 1's input, and the eta0 and
    constants texts recur on every step. A delta or eta0 text is first
    compared with the num/den text of the value it should read as, and read
    only when the two differ."""

    def fail(message: str) -> None:
        raise UnverifiedCertificate(f"trace does not replay: {message}")

    rationals: dict[str, Fraction] = {}
    ints: dict[str, int] = {}

    def field(k: int, fields: Mapping[str, str], key: str, rational: bool = True
              ) -> Fraction | int:
        """fields[key] of record k as a rational, or else an int."""
        text = fields.get(key)
        if type(text) is not str:
            fail(f"record {k}: {key} is {'missing' if text is None else _shown(text)}")
        known = rationals if rational else ints
        if text not in known:
            try:
                known[text] = parse_rational(text) if rational else parse_int(text)
            except ValueError as exc:
                fail(f"record {k}: {key}: {exc}")
        return known[text]

    def reads_as(k: int, fields: Mapping[str, str], key: str, value: Fraction, text: str
                 ) -> bool:
        """Whether fields[key] of record k reads as value, whose text is text."""
        return fields.get(key) == text or field(k, fields, key) == value

    constants: dict[tuple[str, ...], AnalyticConstants] = {}
    # eta0 and its text, once per distinct text of its inputs
    etas: dict[tuple[str, ...], tuple[Fraction, str]] = {}

    def consts_of(k: int, inputs: Mapping[str, str]) -> AnalyticConstants:
        """The record's constants, built once per distinct text."""
        values = [field(k, inputs, name) for name in _CONSTANT_FIELDS]
        key = tuple(map(inputs.get, _CONSTANT_FIELDS))
        if key not in constants:
            constants[key] = AnalyticConstants(*values)
        return constants[key]

    # the factor pass: each base record starts a factor, its extensions carry
    # it on; most records are extensions, so their rule is tested first
    trace = report.trace
    factors: list[Fraction] = []
    fold_at = len(trace)
    for k, record in enumerate(trace):
        inputs, outputs = record.inputs, record.outputs
        if record.rule == "extension":
            if not factors or not reads_as(k, inputs, "delta", current, current_text):
                fail(f"record {k}: extension input does not continue the chain")
            key = tuple(map(inputs.get, _ETA_FIELDS))
            known = etas.get(key)
            if known is None:
                eta = eta0(*(field(k, inputs, name, False) for name in _ETA_FIELDS[:3]),
                           consts_of(k, inputs))
                known = etas[key] = eta, format_rational(eta)
            eta, eta_text = known
            if not reads_as(k, inputs, "eta0", eta, eta_text):
                fail(f"record {k}: eta0 recomputes to {eta}")
            current *= eta
            current_text = format_rational(current)
            if not reads_as(k, outputs, "delta", current, current_text):
                fail(f"record {k}: extension output mismatch")
            factors[-1] = current
        elif record.rule == "base":
            declared = field(k, outputs, "delta")
            if inputs.get("source") == "override":
                if not 0 < declared < Fraction(1, 2):
                    fail(f"record {k}: override outside (0, 1/2)")
            else:
                consts = consts_of(k, inputs)
                recomputed = base_delta_elementary_abelian(
                    *(field(k, inputs, name, False) for name in ("p", "rank", "ell")), consts)
                if recomputed != declared:
                    fail(f"record {k}: base recomputes to {format_rational(recomputed)}")
            current, current_text = declared, format_rational(declared)
            factors.append(current)
        elif record.rule == "compositum":
            fold_at = k
            break
        else:
            fail(f"record {k}: unknown rule {record.rule!r}")

    # the fold pass: record fold_at + j folds factor j + 1 into factors 0..j
    if not factors:
        fail("empty trace" if fold_at == len(trace) else
             f"record {fold_at}: compositum before any factor")
    folded = factors[0]
    for k, record in enumerate(trace[fold_at:], fold_at):
        if record.rule in ("base", "extension"):
            fail(f"record {k}: {record.rule} after the compositum fold")
        if record.rule != "compositum":
            fail(f"record {k}: unknown rule {record.rule!r}")
        right = k - fold_at + 1
        if right == len(factors):
            fail(f"record {k}: compositum exceeds available factors")
        inputs = record.inputs
        if field(k, inputs, "delta1") != folded:
            fail(f"record {k}: left input does not continue the fold")
        if field(k, inputs, "delta2") != factors[right]:
            fail(f"record {k}: right input is not the next factor")
        folded = compositum_delta(folded, field(k, inputs, "degree1", False),
                                  factors[right], field(k, inputs, "degree2", False))
        if folded != field(k, record.outputs, "delta"):
            fail(f"record {k}: compositum output mismatch")
    if len(trace) - fold_at != len(factors) - 1:
        fail("multiple factors but no compositum records" if fold_at == len(trace) else
             "unfolded factors remain")
    if folded != report.delta:
        fail(f"final value {folded} differs from reported delta")
    return folded


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
