"""Command-line front end.

Commands: catalog, analyze, forcing-seq, delta, verify, paper-checks.
Every command writes its stdout through _finish: canonical JSON under
--json, otherwise text lines after one timestamped header line, which
--no-header drops. Output is deterministic up to that line. Exit codes are
stable API:

    0 success            4 not a p-group
    1 other error        5 a Sylow factor is cyclic or quaternion
    2 cyclic input       6 p = 2 base exponent required but not supplied
    3 quaternion input

A usage error (bad or missing arguments) is an other error, 1; --help is 0.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

from . import certio
from .catalog import catalog_entries, two_group_specs
from .classify import count_order_p_subgroups, p_group_profile, sylow_factors
from .errors import (
    CyclicGroup,
    EvenPrimeBase,
    ForcingLabError,
    NotAPGroup,
    QuaternionGroup,
    SylowHypothesisViolated,
)
from .exponents import (
    AnalyticConstants,
    DEFAULT_CONSTANTS,
    base_delta_elementary_abelian,
    closed_form_lower_bound,
    crossover_report,
    delta_for_nilpotent,
    delta_for_p_group,
    eta0,
    format_rational,
    replay_trace,
    tie_report,
)
from .forcing import build_forcing_sequence
from .groups import (
    DEFAULT_ORDER_CAP,
    MAX_ORDER_CAP,
    FiniteGroup,
    factorize,
    prime_power,
)
from .groupspec import parse_group_spec, spec_text
from .verify import verify_certificate

ENV_CAP = "FORCING_LAB_CAP"


def _finish(args: argparse.Namespace, obj: Any, lines: list[str], code: int = 0) -> int:
    """Write a command's output, the only stdout the CLI writes, and return
    its exit code. Under --json that is obj as canonical JSON (bytes, an
    already emitted document, are written as they are); otherwise the
    timestamped header line, unless --no-header, and then the text lines."""
    if args.as_json:
        lines = [(obj if isinstance(obj, bytes) else certio.canonical_bytes(obj)).decode()]
    elif not args.no_header:
        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        lines = [f"# forcing-lab {args.command} {stamp}", *lines]
    sys.stdout.write("".join(line + "\n" for line in lines))
    return code


def _result_table(rows: list[tuple[str, bool, str]], noun: str) -> tuple[list[str], int]:
    """The PASS/FAIL line of each (name, passed, shown) row, then the result
    line counting the rows as noun, and the exit code: 0 when every row
    passed, else 1."""
    lines = [f"{'PASS' if passed else 'FAIL'} {name}{shown}" for name, passed, shown in rows]
    failed = sum(not passed for _, passed, _ in rows)
    lines.append(f"result: FAIL ({failed} of {len(rows)} {noun})" if failed
                 else f"result: PASS ({len(rows)} {noun})")
    return lines, int(failed > 0)


def _resolve_cap(args: argparse.Namespace) -> int:
    """The order cap from --cap, else FORCING_LAB_CAP, else the default;
    refused below 1, naming where it came from, and past MAX_ORDER_CAP,
    before any table is allocated."""
    cap, source = args.cap, "--cap"
    if cap is None:
        raw = os.environ.get(ENV_CAP)
        if raw is None:
            return DEFAULT_ORDER_CAP
        try:
            cap = int(raw)
        except ValueError:
            raise ForcingLabError(f"{ENV_CAP} must be an integer, got {raw!r}") from None
        source = ENV_CAP
    if cap < 1:
        raise ForcingLabError(f"{source} must be at least 1, got {cap}")
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
    kwargs = {key: _fraction(value, flag) for key, value, flag in (
        ("beta", args.beta, "--beta"), ("gamma", args.gamma, "--gamma"),
        ("epsilon_delta", args.eps_delta, "--eps-delta")) if value is not None}
    return AnalyticConstants(**kwargs) if kwargs else DEFAULT_CONSTANTS


def _overrides_from(args: argparse.Namespace) -> dict[int, Fraction]:
    path = args.base_override
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
        if prime_power(G.order) is not None:
            prof = p_group_profile(G)
            structure = f"p={prof.p} n={prof.n} class={prof.p_class} rank={prof.rank}"
        else:
            parts = "*".join(f"{p}^{k}" for p, k in sorted(factorize(G.order).items()))
            structure = f"nilpotent {parts}" if parts else "trivial"
        rows.append({"name": entry.name, "order": G.order, "structure": structure,
                     "spec": entry.spec, "notes": entry.notes})
    name_w = max(len(r["name"]) for r in rows)
    struct_w = max(len(r["structure"]) for r in rows)
    return _finish(args, rows, [f"{r['name']:<{name_w}}  {r['order']:>6}  "
                                f"{r['structure']:<{struct_w}}  {r['spec']}" for r in rows])


def cmd_analyze(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    G = parse_group_spec(args.spec, cap=cap)
    hist = _class_size_histogram(G)
    profiles = [p_group_profile(P) for _, P in sylow_factors(G)]
    obj: dict[str, Any] = {"spec": spec_text(G), "order": G.order,
                           "class_sizes": [list(h) for h in hist]}
    lines = [f"spec: {obj['spec']}", f"order: {G.order}"]
    if prime_power(G.order) is not None:
        prof, = profiles
        orders = [term.order for term in G.lower_exponent_p_series()]
        obj.update(profile=asdict(prof), series_orders=orders)
        quat = f"yes (n={prof.quaternion_index})" if prof.quaternion_index is not None else "no"
        lines += [f"p: {prof.p}", f"n: {prof.n}", f"p-class: {prof.p_class}",
                  f"rank: {prof.rank}", f"cyclic: {'yes' if prof.is_cyclic else 'no'}",
                  f"quaternion: {quat}", "series orders: " + " > ".join(map(str, orders))]
    else:
        obj["sylow"] = [asdict(prof) for prof in profiles]
        lines.append("nilpotent: yes")
        for prof in profiles:
            quat = (f"quaternion n={prof.quaternion_index}" if prof.quaternion_index is not None
                    else "cyclic" if prof.is_cyclic else "ok")
            lines.append(f"sylow p={prof.p}: order={prof.p ** prof.n} class={prof.p_class} "
                         f"rank={prof.rank} [{quat}]")
    lines.append("class sizes: " + ", ".join(f"{size} (x{count})" for size, count in hist))
    return _finish(args, obj, lines)


def cmd_forcing_seq(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    G = parse_group_spec(args.spec, cap=cap)
    cert = build_forcing_sequence(G)
    report = verify_certificate(G, cert)
    if not report.all_passed:
        for check in report.failures():
            print(f"FAIL {check.label()}: {check.detail}", file=sys.stderr)
        raise ForcingLabError("built certificate failed verification; nothing written")
    # the constants and the override file are checked with or without --ell
    consts = _constants_from(args)
    overrides = _overrides_from(args)
    delta_report = None
    if args.ell is not None:
        prof = p_group_profile(G)
        delta_report = delta_for_p_group(prof, cert, args.ell, consts,
                                         base_override=overrides.get(prof.p))
    # one encoding for the file, the digest and --json
    data = certio.emit(certio.CertificateDocument(certificate=cert, delta_report=delta_report))
    path = Path(args.out)
    path.write_bytes(data + b"\n")
    lines = [f"spec: {cert.group_spec}", f"order: {G.order}",
             "chain orders: " + " > ".join(str(len(entry)) for entry in cert.chain),
             f"steps: {len(cert.steps)}", f"verification: PASS ({len(report.checks)} conditions)"]
    if delta_report is not None:
        lines.append(f"delta (ell={delta_report.ell}): {format_rational(delta_report.delta)}")
    lines += [f"wrote: {path}", f"digest: {certio.emitted_digest(data)}"]
    return _finish(args, data, lines)


def _trace_lines(report) -> list[str]:
    lines = []
    for rec in report.trace:
        if rec.rule == "base":
            source = " (override)" if rec.inputs.get("source") == "override" else ""
            lines.append(f"base p={rec.inputs['p']} rank={rec.inputs['rank']} "
                         f"ell={rec.inputs['ell']}{source}: delta = {rec.outputs['delta']}")
        elif rec.rule == "extension":
            lines.append(f"extension m={rec.inputs['m']} r={rec.inputs['r']} "
                         f"eta0 = {rec.inputs['eta0']}: delta = {rec.outputs['delta']}")
        elif rec.rule == "compositum":
            lines.append(f"compositum ({rec.inputs['delta1']} @ {rec.inputs['degree1']}) * "
                         f"({rec.inputs['delta2']} @ {rec.inputs['degree2']}): "
                         f"delta = {rec.outputs['delta']}")
    return lines


def cmd_delta(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    G = parse_group_spec(args.spec, cap=cap)
    consts = _constants_from(args)
    overrides = _overrides_from(args)
    report = delta_for_nilpotent(G, args.ell, consts, overrides=overrides)
    lines = [f"spec: {report.group_spec}", f"ell: {report.ell}", *_trace_lines(report)]
    if report.closed_form_check is not None:
        mark = "matched" if report.closed_form_check.matched else "MISMATCH"
        lines.append(f"closed form: {format_rational(report.closed_form_check.predicted)} "
                     f"({mark})")
    lines.append(f"delta = {format_rational(report.delta)}")
    return _finish(args, certio.delta_report_obj(report), lines)


def cmd_verify(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    doc = certio.read_document(args.path)
    G = parse_group_spec(doc.group_spec, cap=cap)
    report = verify_certificate(G, doc.certificate)
    rows = [(check.label(), check.passed, check.detail) for check in report.checks]
    if doc.certificate.group_spec != doc.group_spec:
        rows.append(("document-spec-consistent", False,
                     "document and certificate name different groups"))
    replay_note = None
    if doc.delta_report is not None:
        try:
            value = replay_trace(doc.delta_report)
            if all(passed for _, passed, _ in rows):
                tie_report(doc.delta_report, doc.certificate, G.order)
            rows.append(("delta-replay", True, f"delta = {format_rational(value)}"))
        except ForcingLabError as exc:
            rows.append(("delta-replay", False, str(exc)))
        replay_note = rows[-1][1]
    lines, code = _result_table([(label, passed, f": {detail}" if detail and not passed else "")
                                 for label, passed, detail in rows], "conditions")
    return _finish(args, {
        "spec": doc.group_spec,
        "conditions": [{"condition": label, "passed": passed, "detail": detail}
                       for label, passed, detail in rows],
        "delta_replay": replay_note,
        "all_passed": code == 0,
    }, [f"spec: {doc.group_spec}", *lines], code)


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
        center = G.center().order
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

    # unique involution iff cyclic or generalized quaternion, all 2-groups <= 64;
    # which groups those are is read from how two_group_specs named them, not
    # from the detector, which counts the same involutions
    hall_bad: list[str] = []
    specs = two_group_specs(64)
    for name, spec in specs:
        unique = count_order_p_subgroups(parse_group_spec(spec, cap=cap), 2) == 1
        if unique != name.startswith(("Cyclic(", "GenQuaternion(")):
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
        rows = [("constants-invariant", False, f": {exc}")]
        return _finish(args, [{"check": "constants-invariant", "passed": False, "cases": 1,
                               "detail": str(exc)}], *_result_table(rows, "checks"))
    results = [{"check": "constants-invariant", "passed": True, "cases": 1,
                "detail": f"beta={format_rational(consts.beta)} "
                          f"gamma={format_rational(consts.gamma)} "
                          f"eps={format_rational(consts.epsilon_delta)}"}]
    results.extend(_run_grid_checks(consts, cap))
    rows = [(r["check"], r["passed"],
             f" ({r['cases']} cases)" + (f" [{r['detail']}]" if r["detail"] else ""))
            for r in results]
    return _finish(args, results, *_result_table(rows, "checks"))


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
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # a usage error, its text on stderr, is not cyclic input (2); --help is 0
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except ForcingLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        for klass, code in _EXIT_CODES:
            if isinstance(exc, klass):
                return code
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
