"""Certificate documents on disk.

Canonical JSON (sorted keys, tight separators, ASCII) so the same document
always serializes to the same bytes; a sha256 digest over the canonical
form without the digest field makes files tamper-evident. Parsing is
strict: every field is type-checked and the digest is recomputed, so a
parsed document is exactly what emit produced.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

from .errors import DigestMismatch, InputTooLarge, Malformed, SchemaVersionUnknown
from .exponents import ClosedFormCheck, DeltaReport, TraceRecord, format_rational, parse_rational
from .forcing import ForcingCertificate, ForcingStep, ForcingWitness

SCHEMA_VERSION = "1"
DIGEST_ALG = "sha256"
FILE_EXTENSION = ".fcert.json"
# the most bytes read from an input file: the largest certificate written at
# the largest cap, forcing-seq preset:Dihedral(8192) --ell 3 with a base
# override, is 68 KB
MAX_INPUT_BYTES = 16 << 20


@dataclass(frozen=True)
class CertificateDocument:
    certificate: ForcingCertificate
    group_spec: str = ""
    delta_report: DeltaReport | None = None

    def __post_init__(self) -> None:
        if not self.group_spec:
            object.__setattr__(self, "group_spec", self.certificate.group_spec)


# one encoder for every canonical encoding (json.dumps would build one per
# call); it skips the cycle check, as documents and CLI output are trees
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True,
                              check_circular=False)


def canonical_bytes(obj: Any) -> bytes:
    """obj as canonical JSON, the encoding of documents, their digests and
    the CLI's --json output."""
    return _CANONICAL.encode(obj).encode()


def _digest_of(body: dict[str, Any]) -> str:
    undigested = {k: v for k, v in body.items() if k != "digest"}
    return hashlib.sha256(canonical_bytes(undigested)).hexdigest()


def _joined(members: dict[str, bytes]) -> bytes:
    """The canonical bytes of an object, from the canonical "key":value bytes
    of each of its members: the same bytes canonical_bytes gives for it."""
    return b"{" + b",".join(members[key] for key in sorted(members)) + b"}"


def _witness_obj(w: ForcingWitness) -> dict[str, Any]:
    return {
        "class_rep": w.class_rep,
        "class_order": w.class_order,
        "checked_fiber_sizes": w.checked_fiber_sizes,
    }


def _step_obj(s: ForcingStep) -> dict[str, Any]:
    return {
        "index_in_chain": s.index_in_chain,
        "kernel_order": s.kernel_order,
        "quotient_order": s.quotient_order,
        "quotient_is_quaternion": s.quotient_is_quaternion,
        "witness": _witness_obj(s.witness),
    }


def _certificate_obj(cert: ForcingCertificate) -> dict[str, Any]:
    return {
        "group_spec": cert.group_spec,
        "builder_version": cert.builder_version,
        "chain": cert.chain,
        "steps": [_step_obj(s) for s in cert.steps],
    }


def delta_report_obj(report: DeltaReport) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "group_spec": report.group_spec,
        "ell": report.ell,
        "delta": format_rational(report.delta),
        "trace": [
            {"rule": rec.rule, "inputs": dict(rec.inputs), "outputs": dict(rec.outputs)}
            for rec in report.trace
        ],
    }
    if report.closed_form_check is not None:
        obj["closed_form_check"] = {
            "predicted": format_rational(report.closed_form_check.predicted),
            "matched": report.closed_form_check.matched,
        }
    return obj


def _undigested_obj(doc: CertificateDocument) -> dict[str, Any]:
    body: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "digest_alg": DIGEST_ALG,
        "group_spec": doc.group_spec,
        "certificate": _certificate_obj(doc.certificate),
    }
    if doc.delta_report is not None:
        body["delta_report"] = delta_report_obj(doc.delta_report)
    return body


def document_obj(doc: CertificateDocument) -> dict[str, Any]:
    body = _undigested_obj(doc)
    body["digest"] = _digest_of(body)
    return body


def document_digest(doc: CertificateDocument) -> str:
    return document_obj(doc)["digest"]


def emit(doc: CertificateDocument) -> bytes:
    """The document's canonical bytes. Each top-level member is encoded
    once, and the members are joined in key order twice: without the digest,
    to compute it, and then with it."""
    members = {key: canonical_bytes(key) + b":" + canonical_bytes(value)
               for key, value in _undigested_obj(doc).items()}
    digest = hashlib.sha256(_joined(members)).hexdigest()
    members["digest"] = b'"digest":' + canonical_bytes(digest)
    return _joined(members)


def emitted_digest(data: bytes) -> str:
    """The digest member of emit's bytes, read without decoding them: the
    members after it in key order are strings, whose quotes are escaped, so
    the last '"digest":"' in the bytes starts it."""
    start = data.rindex(b'"digest":"') + len(b'"digest":"')
    return data[start:data.index(b'"', start)].decode()


def _expect(obj: Any, typ: type, where: str) -> Any:
    # JSON decodes to exact types; bool is an int subclass, so reject it
    # anywhere an int is required
    if type(obj) is typ:
        return obj
    if not isinstance(obj, typ) or (typ is int and isinstance(obj, bool)):
        raise Malformed(f"{where}: expected {typ.__name__}, got {type(obj).__name__}")
    return obj


def _int_list(obj: Any, where: str) -> list[int]:
    _expect(obj, list, where)
    # JSON decodes integers as exact ints; entry locations are formatted only
    # for a list holding something else
    if set(map(type, obj)) <= {int}:
        return obj
    return [_expect(v, int, f"{where}[{i}]") for i, v in enumerate(obj)]


def _parse_witness(obj: Any, where: str) -> ForcingWitness:
    _expect(obj, dict, where)
    return ForcingWitness(
        class_rep=_expect(obj.get("class_rep"), int, f"{where}.class_rep"),
        class_order=_expect(obj.get("class_order"), int, f"{where}.class_order"),
        checked_fiber_sizes=tuple(_int_list(obj.get("checked_fiber_sizes"),
                                            f"{where}.checked_fiber_sizes")),
    )


def _parse_step(obj: Any, where: str) -> ForcingStep:
    _expect(obj, dict, where)
    return ForcingStep(
        index_in_chain=_expect(obj.get("index_in_chain"), int, f"{where}.index_in_chain"),
        kernel_order=_expect(obj.get("kernel_order"), int, f"{where}.kernel_order"),
        quotient_order=_expect(obj.get("quotient_order"), int, f"{where}.quotient_order"),
        quotient_is_quaternion=_expect(obj.get("quotient_is_quaternion"), bool,
                                       f"{where}.quotient_is_quaternion"),
        witness=_parse_witness(obj.get("witness"), f"{where}.witness"),
    )


def _parse_certificate(obj: Any) -> ForcingCertificate:
    _expect(obj, dict, "certificate")
    chain_obj = _expect(obj.get("chain"), list, "certificate.chain")
    # one type pass over every entry and its items; the loop below runs
    # only to name the first fault
    if (set(map(type, chain_obj)) <= {list}
            and set(map(type, itertools.chain.from_iterable(chain_obj))) <= {int}):
        chain = tuple(map(tuple, chain_obj))
    else:
        chain = tuple(tuple(_int_list(entry, f"certificate.chain[{i}]"))
                      for i, entry in enumerate(chain_obj))
    steps_obj = _expect(obj.get("steps"), list, "certificate.steps")
    return ForcingCertificate(
        group_spec=_expect(obj.get("group_spec"), str, "certificate.group_spec"),
        chain=chain,
        steps=tuple(_parse_step(s, f"certificate.steps[{i}]")
                    for i, s in enumerate(steps_obj)),
        builder_version=_expect(obj.get("builder_version"), str,
                                "certificate.builder_version"),
    )


def _parse_trace_record(obj: Any, where: str) -> TraceRecord:
    _expect(obj, dict, where)
    rule = _expect(obj.get("rule"), str, f"{where}.rule")
    inputs = _expect(obj.get("inputs"), dict, f"{where}.inputs")
    outputs = _expect(obj.get("outputs"), dict, f"{where}.outputs")
    # JSON object keys are str; a value is named only if one is not
    if not {*map(type, inputs.values()), *map(type, outputs.values())} <= {str}:
        for name, mapping in (("inputs", inputs), ("outputs", outputs)):
            for k, v in mapping.items():
                _expect(v, str, f"{where}.{name}[{k}]")
    return TraceRecord(rule=rule, inputs=inputs, outputs=outputs)


def _rational(obj: Any, where: str) -> Fraction:
    """A rational field, read only in the num/den form format_rational writes."""
    try:
        return parse_rational(_expect(obj, str, where))
    except ValueError as exc:
        raise Malformed(f"{where}: {exc}") from None


def _parse_delta_report(obj: Any) -> DeltaReport:
    _expect(obj, dict, "delta_report")
    check = None
    if "closed_form_check" in obj:
        check_obj = _expect(obj["closed_form_check"], dict, "delta_report.closed_form_check")
        check = ClosedFormCheck(
            predicted=_rational(check_obj.get("predicted"), "closed_form_check.predicted"),
            matched=_expect(check_obj.get("matched"), bool, "closed_form_check.matched"),
        )
    trace_obj = _expect(obj.get("trace"), list, "delta_report.trace")
    delta = _rational(obj.get("delta"), "delta_report.delta")
    return DeltaReport(
        group_spec=_expect(obj.get("group_spec"), str, "delta_report.group_spec"),
        ell=_expect(obj.get("ell"), int, "delta_report.ell"),
        delta=delta,
        trace=tuple(_parse_trace_record(r, f"delta_report.trace[{i}]")
                    for i, r in enumerate(trace_obj)),
        closed_form_check=check,
    )


def parse(data: bytes) -> CertificateDocument:
    try:
        return _parse_document(data)
    except RecursionError:  # from decoding, or from re-encoding for the digest
        raise Malformed("JSON nested too deeply") from None


def _parse_document(data: bytes) -> CertificateDocument:
    try:
        body = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise Malformed(f"not UTF-8 at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise Malformed(f"invalid JSON at byte {exc.pos}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past the int-to-str digit limit
        raise Malformed(f"invalid JSON: {exc}") from exc
    _expect(body, dict, "document")
    version = _expect(body.get("schema_version"), str, "schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionUnknown(f"schema_version {version!r}; this build reads "
                                   f"{SCHEMA_VERSION!r}")
    alg = _expect(body.get("digest_alg"), str, "digest_alg")
    if alg != DIGEST_ALG:
        raise Malformed(f"digest_alg {alg!r}; only {DIGEST_ALG!r} is supported")
    declared = _expect(body.get("digest"), str, "digest")
    actual = _digest_of(body)
    if declared != actual:
        raise DigestMismatch(f"declared {declared[:16]}..., computed {actual[:16]}...")
    try:
        certificate = _parse_certificate(body.get("certificate"))
        delta_report = (_parse_delta_report(body["delta_report"])
                        if "delta_report" in body else None)
    except Malformed:
        raise
    except Exception as exc:
        raise Malformed(str(exc)) from exc
    return CertificateDocument(
        certificate=certificate,
        group_spec=_expect(body.get("group_spec"), str, "group_spec"),
        delta_report=delta_report,
    )


def write_document(doc: CertificateDocument, path: str | Path) -> Path:
    path = Path(path)
    path.write_bytes(emit(doc) + b"\n")
    return path


def read_input(path: str | Path) -> bytes:
    """A file's bytes, of which at most MAX_INPUT_BYTES + 1 are read: a
    longer file, or an endless one such as /dev/zero, raises InputTooLarge
    before anything decodes it."""
    with open(path, "rb") as f:
        data = f.read(MAX_INPUT_BYTES + 1)
    if len(data) > MAX_INPUT_BYTES:
        raise InputTooLarge(f"{path} is longer than {MAX_INPUT_BYTES} bytes")
    return data


def read_document(path: str | Path) -> CertificateDocument:
    return parse(read_input(path).rstrip(b"\n"))
