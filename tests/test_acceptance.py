"""Acceptance gate: ten numbered end-to-end criteria.

Each test exercises one criterion against the public API, collects any
deviations, prints a single "[criterion NN] PASS/FAIL ..." line to the
terminal (bypassing capture), and then fails loudly if anything deviated or
the wall-clock budget was exceeded. All numeric checks are exact: integer
equality for group invariants, Fraction equality for exponents.
"""

import dataclasses
import time
from fractions import Fraction
from itertools import permutations

import pytest

from forcing_lab import (
    CertificateDocument,
    CyclicGroup,
    DigestMismatch,
    QuaternionGroup,
    base_delta_elementary_abelian,
    build_forcing_sequence,
    closed_form_lower_bound,
    compositum_delta,
    count_order_p_subgroups,
    crossover_report,
    delta_for_nilpotent,
    emit,
    eta0,
    is_cyclic,
    is_forcing,
    is_generalized_quaternion,
    p_group_profile,
    p_group_specs,
    parse,
    parse_group_spec,
    two_group_specs,
    verify_certificate,
)

from conftest import quotient_group

GRID_PRIMES = (3, 5, 7)
GRID_ELLS = (2, 3, 5, 7, 11)
GRID_RANKS = (2, 3)


@pytest.fixture
def announce(capsys):
    def _announce(num: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    return _announce


@pytest.fixture(scope="module")
def corpus():
    """Every eligible corpus p-group of order <= 256, built and verified once.

    Eligible means non-cyclic and non-quaternion; the build+verify wall time
    is recorded so the criteria that share this work can charge it honestly.
    """
    t0 = time.perf_counter()
    entries = []
    for name, spec in p_group_specs(256):
        G = parse_group_spec(spec)
        prof = p_group_profile(G)
        if prof.is_cyclic or prof.quaternion_index is not None:
            continue
        cert = build_forcing_sequence(G)
        report = verify_certificate(G, cert)
        entries.append((name, G, prof, cert, report))
    return {"entries": entries, "elapsed": time.perf_counter() - t0}


def test_criterion_01_quaternion_family_profile(announce):
    t0 = time.perf_counter()
    problems = []
    for n in range(1, 5):
        G = parse_group_spec(f"preset:GenQuaternion({n})")
        if is_generalized_quaternion(G) != n:
            problems.append(f"Q({n}): detector returned {is_generalized_quaternion(G)}")
        if G.order != 2 ** (n + 2):
            problems.append(f"Q({n}): order {G.order}")
        if G.p_class() != n + 1:
            problems.append(f"Q({n}): p-class {G.p_class()}")
        if G.center().order != 2:
            problems.append(f"Q({n}): center order {G.center().order}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    announce(1, ok, problems[0] if problems else
             f"Q(n) detector, order, p-class, center exact for n=1..4 ({elapsed:.2f}s < 1s)")
    assert not problems, problems
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"


def test_criterion_02_unique_involution_dichotomy(announce):
    t0 = time.perf_counter()
    problems = []
    specs = two_group_specs(64)
    for name, spec in specs:
        G = parse_group_spec(spec)
        unique = count_order_p_subgroups(G, 2) == 1
        special = is_cyclic(G) or is_generalized_quaternion(G) is not None
        if unique != special:
            problems.append(f"{name}: unique involution {unique}, cyclic-or-quaternion {special}")
    elapsed = time.perf_counter() - t0
    ok = not problems and len(specs) >= 60 and elapsed < 10.0
    announce(2, ok, problems[0] if problems else
             f"unique order-2 subgroup <=> cyclic or quaternion over "
             f"{len(specs)} two-groups ({elapsed:.2f}s < 10s)")
    assert not problems, problems
    assert len(specs) >= 60, "two-group corpus is unexpectedly small"
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.2f}s"


def test_criterion_03_corpus_forcing_sequences(announce, corpus):
    entries, elapsed = corpus["entries"], corpus["elapsed"]
    problems = []
    for name, G, prof, cert, report in entries:
        expected_steps = prof.n - prof.rank
        if len(cert.steps) != expected_steps:
            problems.append(f"{name}: {len(cert.steps)} steps, expected {expected_steps}")
        if len(cert.chain) != expected_steps + 2:
            problems.append(f"{name}: chain length {len(cert.chain)}")
        if not report.all_passed:
            labels = [c.label() for c in report.failures()]
            problems.append(f"{name}: verification failed {labels}")
    ok = not problems and len(entries) >= 100 and elapsed < 60.0
    announce(3, ok, problems[0] if problems else
             f"{len(entries)} corpus groups built and verified, chain length n-r "
             f"({elapsed:.2f}s < 60s)")
    assert not problems, problems
    assert len(entries) >= 100, "corpus is unexpectedly small"
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.2f}s"


def test_criterion_04_negative_controls(announce):
    t0 = time.perf_counter()
    problems = []
    for k in (1, 2, 3, 4):
        G = parse_group_spec(f"preset:Cyclic({2 ** k})")
        try:
            build_forcing_sequence(G)
            problems.append(f"Cyclic({2 ** k}) was not rejected")
        except CyclicGroup:
            pass
    for n in (1, 2, 3):
        G = parse_group_spec(f"preset:GenQuaternion({n})")
        try:
            build_forcing_sequence(G)
            problems.append(f"GenQuaternion({n}) was not rejected")
        except QuaternionGroup as exc:
            if exc.index != n:
                problems.append(f"GenQuaternion({n}): error carries index {exc.index}")

    C6 = parse_group_spec("preset:Cyclic(6)")
    orders = C6.orders()
    inv = next(x for x in range(C6.order) if int(orders[x]) == 2)
    to_c3 = C6.subgroup_closure([inv])
    if quotient_group(C6, to_c3).order != 3:
        problems.append("C6 quotient is not C3")
    if is_forcing(C6, to_c3, C6.trivial_subgroup()) is not None:
        problems.append("C6 -> C3 reported forcing")

    Q8 = parse_group_spec("preset:GenQuaternion(1)")
    klein = quotient_group(Q8, Q8.center())
    if klein.order != 4 or is_cyclic(klein):
        problems.append("Q8 quotient is not Klein four")
    if is_forcing(Q8, Q8.center(), Q8.trivial_subgroup()) is not None:
        problems.append("Q8 -> Klein four reported forcing")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    announce(4, ok, problems[0] if problems else
             f"cyclic and quaternion inputs rejected; C6->C3 and Q8->Klein "
             f"not forcing ({elapsed:.2f}s < 1s)")
    assert not problems, problems
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"


def test_criterion_05_exponent_calculus_exactness(announce):
    t0 = time.perf_counter()
    problems = []
    if base_delta_elementary_abelian(3, 2, 5) != Fraction(1, 1860):
        problems.append(f"base delta: {base_delta_elementary_abelian(3, 2, 5)}")
    if eta0(5, 3, 3) != Fraction(1, 2103):
        problems.append(f"eta0: {eta0(5, 3, 3)}")
    report = delta_for_nilpotent(parse_group_spec("preset:Heisenberg(3)"), 5)
    if report.delta != Fraction(1, 3911580):
        problems.append(f"Heisenberg(3) delta: {report.delta}")
    check = report.closed_form_check
    if check is None or not check.matched or check.predicted != report.delta:
        problems.append(f"closed form check: {check}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    announce(5, ok, problems[0] if problems else
             f"1/1860, 1/2103, 1/3911580 all exact with closed form matched "
             f"({elapsed:.2f}s < 1s)")
    assert not problems, problems
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"


def test_criterion_06_inequality_grid(announce):
    t0 = time.perf_counter()
    problems = []
    cases = 0
    for p in GRID_PRIMES:
        for ell in GRID_ELLS:
            e = eta0(ell, p, p)
            if e < Fraction(1, 72 * p * p * ell):
                problems.append(f"eta0({ell},{p},{p}) = {e} below 1/(72p^2 ell)")
            for r in GRID_RANKS:
                d0 = base_delta_elementary_abelian(p, r, ell)
                for n in range(r, r + 4):
                    cases += 1
                    value = d0 * e ** (n - r)
                    bound = closed_form_lower_bound(p, n, r, ell)
                    explicit = Fraction(
                        1, 18 * 72 ** (n - r) * p ** (2 * n + 2 - r) * ell ** (n + 2 - r))
                    if bound != explicit:
                        problems.append(f"bound formula mismatch at p={p} ell={ell} n={n} r={r}")
                    if value < bound:
                        problems.append(f"value below bound at p={p} ell={ell} n={n} r={r}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    announce(6, ok, problems[0] if problems else
             f"eta0 and closed-form lower bounds hold at all {cases} grid points "
             f"({elapsed:.2f}s < 1s)")
    assert not problems, problems
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"


def test_criterion_07_crossover_consistency(announce):
    t0 = time.perf_counter()
    problems = []
    cases = 0
    for p in GRID_PRIMES:
        for ell in GRID_ELLS:
            e = eta0(ell, p, p)
            for r in GRID_RANKS:
                d0 = base_delta_elementary_abelian(p, r, ell)
                for n in range(r, r + 4):
                    cases += 1
                    delta = d0 * e ** (n - r)
                    rep = crossover_report(delta, ell, p, r)
                    premise = Fraction(35) - Fraction(19) >= delta
                    if premise and not rep.consistent:
                        problems.append(
                            f"implication failed at p={p} ell={ell} n={n} r={r}")
                    if rep.delta_s_at_eta0 < rep.delta_b_at_eta0:
                        problems.append(
                            f"delta_s < delta_b at p={p} ell={ell} n={n} r={r}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    announce(7, ok, problems[0] if problems else
             f"delta_s(eta0) >= delta_b(eta0) and the consistency implication "
             f"hold at all {cases} grid points ({elapsed:.2f}s < 1s)")
    assert not problems, problems
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"


def test_criterion_08_compositum_fold_order(announce):
    t0 = time.perf_counter()
    problems = []
    factors = []
    for spec in ("preset:Heisenberg(3)", "preset:ElemAbelian(5,2)",
                 "preset:ElemAbelian(7,2)"):
        G = parse_group_spec(spec)
        factors.append((delta_for_nilpotent(G, 2).delta, G.order))

    def fold(pairs):
        (delta, degree), *rest = pairs
        for d2, m2 in rest:
            delta = compositum_delta(delta, degree, d2, m2)
            degree *= m2
        return delta

    results = {fold(order) for order in permutations(factors)}
    if len(results) != 1:
        problems.append(f"fold orders disagree: {sorted(results)}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    announce(8, ok, problems[0] if problems else
             f"all 6 fold orders of 3 distinct-prime factors give "
             f"{next(iter(results))} ({elapsed:.2f}s < 1s)")
    assert not problems, problems
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"


SERIES_SAMPLE = (
    "Cyclic(8)", "Cyclic(81)", "Abelian(4,2)", "Abelian(8,4,2)", "Abelian(9,3)",
    "Abelian(27,9)", "Dihedral(8)", "Dihedral(32)", "GenQuaternion(1)",
    "GenQuaternion(3)", "SemiDihedral(16)", "SemiDihedral(32)",
    "ModularMaximalCyclic(16)", "ModularMaximalCyclic(64)", "TwistedC4xC4",
    "Q8xC2", "D4xC4", "Heisenberg(3)", "Heisenberg(5)", "Extraspecial(3,2)",
)


def test_criterion_09_series_quotient_compatibility(announce):
    t0 = time.perf_counter()
    problems = []
    by_name = dict(p_group_specs(256))
    missing = [n for n in SERIES_SAMPLE if n not in by_name]
    if missing:
        problems.append(f"sample names absent from corpus: {missing}")
    quotients = 0
    for name in SERIES_SAMPLE:
        if name in (missing or ()):
            continue
        G = parse_group_spec(by_name[name])
        series = G.lower_exponent_p_series()
        ancestors = series[1:-1]
        if not ancestors:
            problems.append(f"{name}: no ancestor quotients to check")
        for N in ancestors:
            quotients += 1
            project = G.quotient(N)
            own = quotient_group(G, N).lower_exponent_p_series()
            for j, term in enumerate(own):
                image = tuple(sorted({int(project[x]) for x in series[j].members}))
                if image != tuple(term.members.tolist()):
                    problems.append(f"{name}: image of term {j} disagrees")
                    break
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 30.0
    announce(9, ok, problems[0] if problems else
             f"series image matches the quotient's own series for "
             f"{len(SERIES_SAMPLE)} groups, {quotients} quotients ({elapsed:.2f}s < 30s)")
    assert not problems, problems
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.2f}s"


def test_criterion_10_serialization_round_trip(announce, corpus):
    t0 = time.perf_counter()
    problems = []
    for name, G, prof, cert, report in corpus["entries"]:
        doc = CertificateDocument(certificate=cert)
        data = emit(doc)
        again = parse(data)
        if again != doc:
            problems.append(f"{name}: round trip changed the document")
        if emit(again) != data:
            problems.append(f"{name}: digest or bytes unstable")

    by_name = {e[0]: e for e in corpus["entries"]}
    name, G, prof, cert, report = by_name["Dihedral(8)"]

    data = emit(CertificateDocument(certificate=cert))
    flipped = data.replace(b'"kernel_order":2', b'"kernel_order":4')
    try:
        parse(flipped)
        problems.append("byte-flipped document passed the digest check")
    except DigestMismatch:
        pass

    orders = G.orders()
    x = next(i for i in range(G.order) if int(orders[i]) == 4)
    bad_chain = (cert.chain[0], tuple(sorted((0, x))), cert.chain[2])
    poked = dataclasses.replace(cert, chain=bad_chain)
    labels = [c.label() for c in verify_certificate(G, poked).failures()]
    if "chain-closed[1]" not in labels:
        problems.append(f"non-closed chain entry not named: {labels}")

    witness = dataclasses.replace(cert.steps[0].witness, class_rep=0)
    forged = dataclasses.replace(
        cert, steps=(dataclasses.replace(cert.steps[0], witness=witness),))
    labels = [c.label() for c in verify_certificate(G, forged).failures()]
    if "step-witness-class[0]" not in labels:
        problems.append(f"forged witness not named: {labels}")

    flagged = dataclasses.replace(
        cert, steps=(dataclasses.replace(cert.steps[0], quotient_is_quaternion=True),))
    labels = [c.label() for c in verify_certificate(G, flagged).failures()]
    if "step-quaternion-flag[0]" not in labels:
        problems.append(f"forged quaternion flag not named: {labels}")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 10.0
    announce(10, ok, problems[0] if problems else
             f"round trip and digest stable for {len(corpus['entries'])} certificates; "
             f"tampers fail by name ({elapsed:.2f}s < 10s)")
    assert not problems, problems
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.2f}s"
