"""Command-line front end.

Commands: catalog, analyze, forcing-seq, delta, verify, paper-checks.
Output is deterministic up to one timestamped header line (drop it with
--no-header; --json implies it). Exit codes are stable API:

    0 success            4 not a p-group
    1 other error        5 a Sylow factor is cyclic or quaternion
    2 cyclic input       6 p = 2 base exponent required but not supplied
    3 quaternion input
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
from datetime import datetime, timezone
from fractions import Fraction
from typing import Any

import numpy as np

from . import certio
from .catalog import catalog_entries, two_group_specs
from .classify import (
    PGroupProfile,
    count_order_p_subgroups,
    is_p_group,
    p_group_profile,
    sylow_decomposition,
)
from .errors import (
    CyclicGroup,
    EvenPrimeBase,
    ForcingLabError,
    NotAPGroup,
    QuaternionGroup,
    SylowHypothesisViolated,
    UnverifiedCertificate,
)
from .exponents import (
    AnalyticConstants,
    DEFAULT_CONSTANTS,
    DeltaReport,
    TraceRecord,
    base_delta_elementary_abelian,
    closed_form_lower_bound,
    crossover_report,
    delta_for_nilpotent,
    delta_for_p_group,
    eta0,
    format_rational,
    replay_trace,
)
from .forcing import ForcingCertificate, build_forcing_sequence
from .groups import (
    DEFAULT_ORDER_CAP,
    MAX_ORDER_CAP,
    FiniteGroup,
    factorize,
    prime_power,
    subgroup_as_group,
)
from .groupspec import parse_group_spec, spec_text
from .verify import verify_certificate

ENV_CAP = "FORCING_LAB_CAP"


def _print_json(obj: Any) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":"),
                                ensure_ascii=True) + "\n")


def _header(args: argparse.Namespace) -> None:
    if args.no_header or args.as_json:
        return
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    print(f"# forcing-lab {args.command} {stamp}")


def _resolve_cap(args: argparse.Namespace) -> int:
    """The order cap from --cap, else FORCING_LAB_CAP, else the default;
    refused past MAX_ORDER_CAP before any table is allocated."""
    cap = args.cap
    if cap is None:
        raw = os.environ.get(ENV_CAP)
        if raw is None:
            return DEFAULT_ORDER_CAP
        try:
            cap = int(raw)
        except ValueError:
            raise ForcingLabError(f"{ENV_CAP} must be an integer, got {raw!r}") from None
    if cap > MAX_ORDER_CAP:
        raise ForcingLabError(f"cap {cap} exceeds {MAX_ORDER_CAP}, the largest order "
                              "whose table fits in 256 MiB")
    return cap


# bounds on a rational's text and on its decimal exponent, checked before
# Fraction parses it: "1e2000000" is nine characters but a 2000001-digit
# integer, which takes a second to build and cannot be printed
_RATIONAL_MAX_CHARS = 64
_RATIONAL_MAX_EXPONENT = 64
_DECIMAL_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)")


def _fraction(text: Any, what: str) -> Fraction:
    """A rational given on the command line or in an override file."""
    raw = str(text)
    if len(raw) > _RATIONAL_MAX_CHARS:
        raise ForcingLabError(f"{what} is {len(raw)} characters long; a rational "
                              f"takes at most {_RATIONAL_MAX_CHARS}")
    exponent = _DECIMAL_EXPONENT.search(raw)
    if exponent and abs(int(exponent[1].replace("_", ""))) > _RATIONAL_MAX_EXPONENT:
        raise ForcingLabError(f"{what} has decimal exponent {exponent[1]}; its size "
                              f"may be at most {_RATIONAL_MAX_EXPONENT}")
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ForcingLabError(f"{what} must be a rational like 1/100, got {text!r}") from None


def _constants_from(args: argparse.Namespace) -> AnalyticConstants:
    kwargs = {}
    if getattr(args, "beta", None) is not None:
        kwargs["beta"] = _fraction(args.beta, "--beta")
    if getattr(args, "gamma", None) is not None:
        kwargs["gamma"] = _fraction(args.gamma, "--gamma")
    if getattr(args, "eps_delta", None) is not None:
        kwargs["epsilon_delta"] = _fraction(args.eps_delta, "--eps-delta")
    return AnalyticConstants(**kwargs) if kwargs else DEFAULT_CONSTANTS


def _overrides_from(args: argparse.Namespace) -> dict[int, Fraction]:
    path = getattr(args, "base_override", None)
    if path is None:
        return {}
    try:
        raw = json.loads(certio.read_input(path))
    except RecursionError:
        raise ForcingLabError("base override file is nested too deeply") from None
    except ValueError as exc:
        raise ForcingLabError(f"base override file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ForcingLabError("base override file must hold a JSON object")
    try:
        return {int(k): _fraction(v, f"base override for {k}") for k, v in raw.items()}
    except ValueError:
        raise ForcingLabError('base override keys must be integers like "2"') from None


def _profile_obj(G: FiniteGroup) -> dict[str, Any]:
    prof = p_group_profile(G)
    return {
        "p": prof.p, "n": prof.n, "p_class": prof.p_class, "rank": prof.rank,
        "is_cyclic": prof.is_cyclic, "quaternion_index": prof.quaternion_index,
    }


def _class_size_histogram(G: FiniteGroup) -> list[tuple[int, int]]:
    """(class size, number of classes of that size), by size."""
    label = G.conjugacy_classes()
    sizes = np.bincount(label, minlength=G.order)[label == np.arange(G.order)]
    return [(size, count) for size, count in enumerate(np.bincount(sizes).tolist()) if count]


def cmd_catalog(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    rows = []
    for entry in catalog_entries():
        G = parse_group_spec(entry.spec, cap=cap)
        if is_p_group(G) is not None:
            prof = p_group_profile(G)
            structure = f"p={prof.p} n={prof.n} class={prof.p_class} rank={prof.rank}"
        else:
            parts = "*".join(f"{p}^{k}" for p, k in sorted(factorize(G.order).items()))
            structure = f"nilpotent {parts}" if parts else "trivial"
        rows.append({"name": entry.name, "order": G.order, "structure": structure,
                     "spec": entry.spec, "notes": entry.notes})
    if args.as_json:
        _print_json(rows)
        return 0
    _header(args)
    name_w = max(len(r["name"]) for r in rows)
    struct_w = max(len(r["structure"]) for r in rows)
    for r in rows:
        print(f"{r['name']:<{name_w}}  {r['order']:>6}  "
              f"{r['structure']:<{struct_w}}  {r['spec']}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    G = parse_group_spec(args.spec, cap=cap)
    hist = _class_size_histogram(G)
    if is_p_group(G) is not None:
        prof = p_group_profile(G)
        series = G.lower_exponent_p_series()
        orders = [len(term.members) for term in series]
        if args.as_json:
            _print_json({"spec": spec_text(G), "order": G.order,
                         "profile": _profile_obj(G), "series_orders": orders,
                         "class_sizes": [list(h) for h in hist]})
            return 0
        _header(args)
        print(f"spec: {spec_text(G)}")
        print(f"order: {G.order}")
        print(f"p: {prof.p}")
        print(f"n: {prof.n}")
        print(f"p-class: {prof.p_class}")
        print(f"rank: {prof.rank}")
        print(f"cyclic: {'yes' if prof.is_cyclic else 'no'}")
        quat = f"yes (n={prof.quaternion_index})" if prof.quaternion_index is not None else "no"
        print(f"quaternion: {quat}")
        print("series orders: " + " > ".join(str(o) for o in orders))
    else:
        decomposition = sylow_decomposition(G)
        factors = []
        for p, sub in sorted(decomposition.factors.items()):
            Gp = subgroup_as_group(sub)
            factors.append((p, _profile_obj(Gp)))
        if args.as_json:
            _print_json({"spec": spec_text(G), "order": G.order,
                         "sylow": [{"p": p, **prof} for p, prof in factors],
                         "class_sizes": [list(h) for h in hist]})
            return 0
        _header(args)
        print(f"spec: {spec_text(G)}")
        print(f"order: {G.order}")
        print("nilpotent: yes")
        for p, prof in factors:
            quat = (f"quaternion n={prof['quaternion_index']}"
                    if prof["quaternion_index"] is not None
                    else "cyclic" if prof["is_cyclic"] else "ok")
            print(f"sylow p={p}: order={p ** prof['n']} class={prof['p_class']} "
                  f"rank={prof['rank']} [{quat}]")
    print("class sizes: " + ", ".join(f"{size} (x{count})" for size, count in hist))
    return 0


def cmd_forcing_seq(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    G = parse_group_spec(args.spec, cap=cap)
    cert = build_forcing_sequence(G)
    report = verify_certificate(G, cert)
    if not report.all_passed:
        for check in report.failures():
            print(f"FAIL {check.label()}: {check.detail}", file=sys.stderr)
        raise ForcingLabError("built certificate failed verification; nothing written")
    delta_report = None
    if args.ell is not None:
        consts = _constants_from(args)
        overrides = _overrides_from(args)
        prof = p_group_profile(G)
        delta_report = delta_for_p_group(prof, cert, args.ell, consts,
                                         base_override=overrides.get(prof.p))
    doc = certio.CertificateDocument(certificate=cert, delta_report=delta_report)
    path = certio.write_document(doc, args.out)
    digest = certio.document_digest(doc)
    if args.as_json:
        _print_json(certio.document_obj(doc))
        return 0
    _header(args)
    print(f"spec: {cert.group_spec}")
    print(f"order: {G.order}")
    print("chain orders: " + " > ".join(str(len(entry)) for entry in cert.chain))
    print(f"steps: {len(cert.steps)}")
    print(f"verification: PASS ({len(report.checks)} conditions)")
    if delta_report is not None:
        print(f"delta (ell={delta_report.ell}): {format_rational(delta_report.delta)}")
    print(f"wrote: {path}")
    print(f"digest: {digest}")
    return 0


def _print_trace(report) -> None:
    for rec in report.trace:
        if rec.rule == "base":
            source = " (override)" if rec.inputs.get("source") == "override" else ""
            print(f"base p={rec.inputs['p']} rank={rec.inputs['rank']} "
                  f"ell={rec.inputs['ell']}{source}: delta = {rec.outputs['delta']}")
        elif rec.rule == "extension":
            print(f"extension m={rec.inputs['m']} r={rec.inputs['r']} "
                  f"eta0 = {rec.inputs['eta0']}: delta = {rec.outputs['delta']}")
        elif rec.rule == "compositum":
            print(f"compositum ({rec.inputs['delta1']} @ {rec.inputs['degree1']}) * "
                  f"({rec.inputs['delta2']} @ {rec.inputs['degree2']}): "
                  f"delta = {rec.outputs['delta']}")


def cmd_delta(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    G = parse_group_spec(args.spec, cap=cap)
    consts = _constants_from(args)
    overrides = _overrides_from(args)
    report = delta_for_nilpotent(G, args.ell, consts, overrides=overrides)
    if args.as_json:
        _print_json(certio.delta_report_obj(report))
        return 0
    _header(args)
    print(f"spec: {report.group_spec}")
    print(f"ell: {report.ell}")
    _print_trace(report)
    if report.closed_form_check is not None:
        mark = "matched" if report.closed_form_check.matched else "MISMATCH"
        print(f"closed form: {format_rational(report.closed_form_check.predicted)} ({mark})")
    print(f"delta = {format_rational(report.delta)}")
    return 0


def _record_fields(record: TraceRecord | None) -> dict[str, str]:
    if record is None:
        return {}
    return {"rule": record.rule, **{f"inputs.{k}": v for k, v in record.inputs.items()},
            **{f"outputs.{k}": v for k, v in record.outputs.items()}}


def _tie_report(report: DeltaReport, cert: ForcingCertificate, order: int) -> None:
    """Raise UnverifiedCertificate unless a replayed delta report is the one
    delta_for_p_group folds from its verified certificate, with p from |G|,
    rank = log_p [G : chain[1]] (chain-frattini checked chain[1]), and ell,
    the constants and any base override from the report. The first field
    that differs is named: group_spec, ell, each trace record, then delta."""
    p, n = prime_power(order)
    base = report.trace[0]  # replay_trace accepts no trace that starts otherwise
    override = Fraction(base.outputs["delta"]) if base.inputs.get("source") == "override" else None
    # the constants of a record whose constants replay_trace has read
    source = base if override is None else next(
        (record for record in report.trace if record.rule == "extension"), None)
    consts = DEFAULT_CONSTANTS if source is None else AnalyticConstants(
        *(Fraction(source.inputs[key]) for key in ("beta", "gamma", "epsilon_delta")))
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
    for field, want, got in diffs:
        if want != got:
            raise UnverifiedCertificate(f"report does not match its certificate: {field} "
                                        f"is {got!r}, expected {want!r}")


def cmd_verify(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    doc = certio.read_document(args.path)
    G = parse_group_spec(doc.group_spec, cap=cap)
    report = verify_certificate(G, doc.certificate)
    lines = [(check.label(), check.passed, check.detail) for check in report.checks]
    ok = report.all_passed
    if doc.certificate.group_spec != doc.group_spec:
        lines.append(("document-spec-consistent", False,
                      "document and certificate name different groups"))
        ok = False
    replay_note = None
    if doc.delta_report is not None:
        try:
            value = replay_trace(doc.delta_report)
            if ok:
                _tie_report(doc.delta_report, doc.certificate, G.order)
            lines.append(("delta-replay", True, f"delta = {format_rational(value)}"))
        except ForcingLabError as exc:
            lines.append(("delta-replay", False, str(exc)))
            ok = False
        replay_note = lines[-1][1]
    if args.as_json:
        _print_json({
            "spec": doc.group_spec,
            "conditions": [{"condition": label, "passed": passed, "detail": detail}
                           for label, passed, detail in lines],
            "delta_replay": replay_note,
            "all_passed": ok,
        })
        return 0 if ok else 1
    _header(args)
    print(f"spec: {doc.group_spec}")
    for label, passed, detail in lines:
        tag = "PASS" if passed else "FAIL"
        suffix = f": {detail}" if (detail and not passed) else ""
        print(f"{tag} {label}{suffix}")
    failed = sum(1 for _, passed, _ in lines if not passed)
    if ok:
        print(f"result: PASS ({len(lines)} conditions)")
        return 0
    print(f"result: FAIL ({failed} of {len(lines)} conditions)")
    return 1


def _run_grid_checks(consts: AnalyticConstants, cap: int) -> list[dict[str, Any]]:
    """The consistency sweeps behind paper-checks; each result row carries a
    name, a pass flag, a case count, and a short detail string."""
    results: list[dict[str, Any]] = []

    def add(name: str, passed: bool, cases: int, detail: str = "") -> None:
        results.append({"check": name, "passed": passed, "cases": cases,
                        "detail": detail})

    # quaternion profiles: order, p-class, center, detector index, rejection
    prof_bad: list[str] = []
    reject_bad: list[str] = []
    for n in range(1, 5):
        G = parse_group_spec(f"preset:GenQuaternion({n})", cap=cap)
        prof = p_group_profile(G)
        center = len(G.center().members)
        if not (G.order == 2 ** (n + 2) and prof.p_class == n + 1
                and center == 2 and prof.quaternion_index == n):
            prof_bad.append(f"n={n}")
        try:
            build_forcing_sequence(G)
            reject_bad.append(f"n={n} accepted")
        except QuaternionGroup:
            pass
    add("quaternion-profile", not prof_bad, 4, ";".join(prof_bad))
    add("quaternion-rejected", not reject_bad, 4, ";".join(reject_bad))

    # unique involution iff cyclic or generalized quaternion, all 2-groups <= 64
    hall_bad: list[str] = []
    specs = two_group_specs(64)
    for name, spec in specs:
        G = parse_group_spec(spec, cap=cap)
        prof = p_group_profile(G)
        unique = count_order_p_subgroups(G, 2) == 1
        special = prof.is_cyclic or prof.quaternion_index is not None
        if unique != special:
            hall_bad.append(name)
    add("hall-unique-involution", not hall_bad, len(specs), ";".join(hall_bad[:3]))

    primes = (3, 5, 7)
    ells = (2, 3, 5, 7, 11)

    eta_bad: list[str] = []
    for p in primes:
        for ell in ells:
            if eta0(ell, p, p, consts) < Fraction(1, 72 * p * p * ell):
                eta_bad.append(f"p={p} ell={ell}")
    add("eta0-lower-bound", not eta_bad, len(primes) * len(ells), ";".join(eta_bad[:3]))

    cf_bad: list[str] = []
    cross_bad: list[str] = []
    impl_bad: list[str] = []
    cases = 0
    for p in primes:
        for ell in ells:
            base = base_delta_elementary_abelian(p, 2, ell, consts)
            eta = eta0(ell, p, p, consts)
            for r in (2, 3):
                for n in range(r, r + 4):
                    cases += 1
                    tag = f"p={p} ell={ell} r={r} n={n}"
                    chained = base * eta ** (n - r)
                    if chained < closed_form_lower_bound(p, n, r, ell):
                        cf_bad.append(tag)
                    cross = crossover_report(chained, ell, p, p, consts)
                    if not cross.consistent:
                        cross_bad.append(tag)
                    guard = max(consts.beta, consts.gamma) - consts.gamma
                    if guard >= chained and not cross.consistent:
                        impl_bad.append(tag)
    add("closed-form-lower-bound", not cf_bad, cases, ";".join(cf_bad[:3]))
    add("crossover-consistent", not cross_bad, cases, ";".join(cross_bad[:3]))
    add("crossover-implication", not impl_bad, cases, ";".join(impl_bad[:3]))
    return results


def cmd_paper_checks(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    try:
        consts = _constants_from(args)
    except ValueError as exc:
        if args.as_json:
            _print_json([{"check": "constants-invariant", "passed": False,
                          "cases": 1, "detail": str(exc)}])
        else:
            _header(args)
            print(f"FAIL constants-invariant: {exc}")
            print("result: FAIL (1 of 1 checks)")
        return 1
    results = [{"check": "constants-invariant", "passed": True, "cases": 1,
                "detail": f"beta={format_rational(consts.beta)} "
                          f"gamma={format_rational(consts.gamma)} "
                          f"eps={format_rational(consts.epsilon_delta)}"}]
    results.extend(_run_grid_checks(consts, cap))
    ok = all(r["passed"] for r in results)
    if args.as_json:
        _print_json(results)
        return 0 if ok else 1
    _header(args)
    for r in results:
        tag = "PASS" if r["passed"] else "FAIL"
        note = f" [{r['detail']}]" if r["detail"] else ""
        print(f"{tag} {r['check']} ({r['cases']} cases){note}")
    failed = sum(1 for r in results if not r["passed"])
    if ok:
        print(f"result: PASS ({len(results)} checks)")
        return 0
    print(f"result: FAIL ({failed} of {len(results)} checks)")
    return 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=int, default=None, metavar="N",
                        help=f"order cap (default {DEFAULT_ORDER_CAP}; "
                             f"env {ENV_CAP}, flag wins)")
    common.add_argument("--no-header", action="store_true",
                        help="suppress the timestamped header line")
    common.add_argument("--json", dest="as_json", action="store_true",
                        help="machine output in canonical JSON")

    consts = argparse.ArgumentParser(add_help=False)
    consts.add_argument("--beta", default=None, metavar="Q",
                        help="override beta (rational, default 35)")
    consts.add_argument("--gamma", default=None, metavar="Q",
                        help="override gamma (rational, default 19)")
    consts.add_argument("--eps-delta", default=None, metavar="Q",
                        help="override epsilon_delta (rational in [0,1), default 0)")

    override = argparse.ArgumentParser(add_help=False)
    override.add_argument("--base-override", default=None, metavar="FILE",
                          help='JSON file mapping primes to base exponents, '
                               'e.g. {"2": "1/100"}')

    parser = argparse.ArgumentParser(
        prog="forcing-lab",
        description="forcing sequences and saving exponents for finite nilpotent groups")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("catalog", parents=[common],
                       help="list the built-in group catalog")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("analyze", parents=[common],
                       help="profile a group given by a spec string")
    p.add_argument("spec", help="group spec (perm:, preset:, or product:)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("forcing-seq", parents=[common, consts, override],
                       help="build, verify, and write a forcing-sequence certificate")
    p.add_argument("spec", help="group spec of a non-cyclic, non-quaternion p-group")
    p.add_argument("--out", required=True, metavar="PATH",
                   help=f"output path ({certio.FILE_EXTENSION})")
    p.add_argument("--ell", type=int, default=None, metavar="N",
                   help="embed a saving-exponent report for this ell")
    p.set_defaults(func=cmd_forcing_seq)

    p = sub.add_parser("delta", parents=[common, consts, override],
                       help="compute the saving exponent of a nilpotent group")
    p.add_argument("spec", help="group spec")
    p.add_argument("--ell", type=int, required=True, metavar="N",
                   help="torsion prime (at least 2)")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("verify", parents=[common],
                       help="re-verify a certificate file from scratch")
    p.add_argument("path", help="certificate file path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("paper-checks", parents=[common, consts],
                       help="run the built-in consistency sweeps")
    p.set_defaults(func=cmd_paper_checks)
    return parser


_EXIT_CODES: tuple[tuple[type[ForcingLabError], int], ...] = (
    (CyclicGroup, 2),
    (QuaternionGroup, 3),
    (NotAPGroup, 4),
    (SylowHypothesisViolated, 5),
    (EvenPrimeBase, 6),
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ForcingLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        for klass, code in _EXIT_CODES:
            if isinstance(exc, klass):
                return code
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
