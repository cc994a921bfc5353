import contextlib
import json
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from forcing_lab import (
    DigestMismatch,
    ForcingLabError,
    Malformed,
    SchemaVersionUnknown,
    delta_for_nilpotent,
    replay_trace,
    verify_certificate,
)
from forcing_lab.certio import (
    CertificateDocument,
    FILE_EXTENSION,
    SCHEMA_VERSION,
    document_digest,
    document_obj,
    emit,
    emitted_digest,
    parse,
    read_document,
    write_document,
)

# digests of builder output; they must stay stable across releases because
# certificates are content-addressed by them
GOLDEN_DIGESTS = [
    ("preset:Dihedral(8)", "dea9ab9207bbfb9f9c31fd5cf6ceaf50917aad60c944e95b693d9d9ddc577822"),
    ("preset:Abelian(2,4)", "0d0ef49b89f4d68bab041d1b8032ade0e299a14a7a53067c0d77852974404c69"),
    ("preset:Heisenberg(3)", "15bfad7ff243513906b1e776366040e9237cb5961f5fadbde03be1c5b3f37ffd"),
]


def _doc(cert_of, spec, delta=None):
    return CertificateDocument(certificate=cert_of(spec), delta_report=delta)


class TestRoundTrip:
    @pytest.mark.parametrize("spec", [s for s, _ in GOLDEN_DIGESTS])
    def test_parse_inverts_emit(self, cert_of, spec):
        doc = _doc(cert_of, spec)
        assert parse(emit(doc)) == doc

    def test_emit_is_idempotent_through_parse(self, cert_of):
        doc = _doc(cert_of, "preset:Dihedral(8)")
        data = emit(doc)
        assert emit(parse(data)) == data

    def test_round_trip_with_delta_report(self, group_of, cert_of):
        report = delta_for_nilpotent(group_of("preset:Heisenberg(3)"), 5)
        doc = _doc(cert_of, "preset:Heisenberg(3)", delta=report)
        back = parse(emit(doc))
        assert back == doc
        assert back.delta_report.delta == Fraction(1, 3911580)
        assert back.delta_report.closed_form_check.matched

    def test_round_trip_with_override_report(self, group_of, cert_of):
        report = delta_for_nilpotent(group_of("preset:Abelian(2,4)"), 3,
                                     overrides={2: Fraction(1, 100)})
        doc = _doc(cert_of, "preset:Abelian(2,4)", delta=report)
        back = parse(emit(doc))
        assert back.delta_report == report
        assert back.delta_report.closed_form_check == report.closed_form_check

    def test_chain_indices_parse_to_plain_ints(self, cert_of):
        back = parse(emit(_doc(cert_of, "preset:Dihedral(8)")))
        for entry in back.certificate.chain:
            assert all(type(i) is int for i in entry)

    def test_file_helpers(self, tmp_path, cert_of):
        doc = _doc(cert_of, "preset:Dihedral(8)")
        path = write_document(doc, tmp_path / f"d4{FILE_EXTENSION}")
        assert read_document(path) == doc

    def test_group_spec_defaults_from_certificate(self, cert_of):
        doc = _doc(cert_of, "preset:Dihedral(8)")
        assert doc.group_spec == "preset:Dihedral(8)"


class TestDigests:
    @pytest.mark.parametrize("spec,expected", GOLDEN_DIGESTS)
    def test_golden_digest(self, cert_of, spec, expected):
        assert document_digest(_doc(cert_of, spec)) == expected

    def test_digest_stable_across_emits(self, cert_of):
        doc = _doc(cert_of, "preset:Heisenberg(3)")
        assert emit(doc) == emit(doc)

    @pytest.mark.parametrize("spec", [spec for spec, _ in GOLDEN_DIGESTS])
    def test_emitted_digest_is_the_digest_member(self, cert_of, spec):
        doc = _doc(cert_of, spec)
        # a spec text that holds the member's own text, escaped, comes after it
        for doc in (doc, replace(doc, group_spec='x","digest":"' + "0" * 64)):
            assert emitted_digest(emit(doc)) == document_digest(doc)

    def test_digest_covers_content_not_formatting(self, cert_of):
        # pretty-printing the same object must still parse (digest is over
        # the canonical re-serialization, not the raw bytes)
        obj = document_obj(_doc(cert_of, "preset:Dihedral(8)"))
        pretty = json.dumps(obj, indent=2).encode()
        assert parse(pretty) == _doc(cert_of, "preset:Dihedral(8)")

    def test_content_change_is_detected(self, cert_of):
        data = emit(_doc(cert_of, "preset:Dihedral(8)"))
        tampered = data.replace(b'"kernel_order":2', b'"kernel_order":4')
        assert tampered != data
        with pytest.raises(DigestMismatch):
            parse(tampered)

    def test_chain_tamper_is_detected(self, cert_of):
        data = emit(_doc(cert_of, "preset:Dihedral(8)"))
        tampered = data.replace(b"[0,5]", b"[0,6]")
        assert tampered != data
        with pytest.raises(DigestMismatch):
            parse(tampered)


def _reforge(data: bytes, **changes) -> bytes:
    """Edit top-level fields and re-stamp a consistent digest, modeling an
    attacker who can recompute hashes."""
    import hashlib

    body = json.loads(data)
    body.update(changes)
    del body["digest"]
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    body["digest"] = hashlib.sha256(canonical).hexdigest()
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


class TestParseErrors:
    def test_invalid_json_reports_offset(self):
        with pytest.raises(Malformed) as info:
            parse(b'{"schema_version": "1", ')
        assert "byte" in str(info.value)

    def test_non_object_rejected(self):
        with pytest.raises(Malformed):
            parse(b"[1,2,3]")

    def test_unknown_schema_version(self, cert_of):
        data = emit(_doc(cert_of, "preset:Dihedral(8)"))
        forged = _reforge(data, schema_version="2")
        with pytest.raises(SchemaVersionUnknown):
            parse(forged)

    def test_unknown_digest_alg(self, cert_of):
        data = emit(_doc(cert_of, "preset:Dihedral(8)"))
        forged = _reforge(data, digest_alg="md5")
        with pytest.raises(Malformed):
            parse(forged)

    @pytest.mark.parametrize("value, name", [("zero", "str"), (True, "bool")])
    def test_wrong_value_type_rejected(self, cert_of, value, name):
        data = emit(_doc(cert_of, "preset:Dihedral(8)"))
        body = json.loads(data)
        body["certificate"]["chain"][1][1] = value
        forged = _reforge(json.dumps(body).encode())
        with pytest.raises(Malformed) as info:
            parse(forged)
        assert str(info.value) == f"certificate.chain[1][1]: expected int, got {name}"

    @pytest.mark.parametrize("entry, name", [(5, "int"), ("05", "str"), (None, "NoneType"),
                                             ({"0": 0}, "dict")])
    def test_chain_entry_of_wrong_type_named(self, cert_of, entry, name):
        body = json.loads(emit(_doc(cert_of, "preset:Dihedral(8)")))
        body["certificate"]["chain"][1] = entry
        with pytest.raises(Malformed) as info:
            parse(_reforge(json.dumps(body).encode()))
        assert str(info.value) == f"certificate.chain[1]: expected list, got {name}"

    def test_missing_witness_rejected(self, cert_of):
        data = emit(_doc(cert_of, "preset:Dihedral(8)"))
        body = json.loads(data)
        del body["certificate"]["steps"][0]["witness"]
        forged = _reforge(json.dumps(body).encode())
        with pytest.raises(Malformed):
            parse(forged)

    def test_boolean_is_not_an_int(self, cert_of):
        data = emit(_doc(cert_of, "preset:Dihedral(8)"))
        body = json.loads(data)
        body["certificate"]["steps"][0]["kernel_order"] = True
        forged = _reforge(json.dumps(body).encode())
        with pytest.raises(Malformed):
            parse(forged)

    def test_out_of_range_delta_rejected(self, group_of, cert_of):
        report = delta_for_nilpotent(group_of("preset:Heisenberg(3)"), 5)
        data = emit(_doc(cert_of, "preset:Heisenberg(3)", delta=report))
        body = json.loads(data)
        body["delta_report"]["delta"] = "2/1"
        forged = _reforge(json.dumps(body).encode())
        with pytest.raises(Malformed):
            parse(forged)

    def test_deep_nesting_is_malformed(self, cert_of):
        with pytest.raises(Malformed, match="nested too deeply"):
            parse(b"[" * 200_000)
        # nested just deep enough to decode but not to re-encode for the digest
        head = emit(_doc(cert_of, "preset:Dihedral(8)"))[:-1] + b',"x":'
        limit = sys.getrecursionlimit()
        for depth in range(limit - 60, limit + 5):
            try:
                parse(head + b"[" * depth + b"]" * depth + b"}")
            except (Malformed, DigestMismatch):
                pass

    @pytest.mark.parametrize("field, text", [
        ("delta", "1e-2000000"), ("delta", "1/0"), ("delta", " 1/2"), ("delta", "0.25"),
        ("predicted", "1e-3000000"), ("predicted", "9" * 4301 + "/1"),
    ])
    def test_rational_outside_num_den_form_is_malformed(self, group_of, cert_of, field, text):
        # a decimal exponent would build an integer of millions of digits
        report = delta_for_nilpotent(group_of("preset:Heisenberg(3)"), 5)
        body = json.loads(emit(_doc(cert_of, "preset:Heisenberg(3)", delta=report)))
        owner = body["delta_report"]
        if field == "predicted":
            owner = owner["closed_form_check"]
        owner[field] = text
        where = "closed_form_check.predicted" if field == "predicted" else "delta_report.delta"
        with pytest.raises(Malformed, match=rf"^{where}: .* is not a rational num/den"):
            parse(_reforge(json.dumps(body).encode()))

    def test_integer_past_the_digit_limit_is_malformed(self):
        with pytest.raises(Malformed, match="invalid JSON: Exceeds the limit"):
            parse(b'{"a": ' + b"9" * 5000 + b"}")

    def test_version_constant_matches(self):
        assert SCHEMA_VERSION == "1"


# values a field-level forgery puts in place of a document's own
_HOSTILE = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), st.floats(), st.text(max_size=6),
    st.sampled_from(["1e-2000000", "1E999999", "0.5", "1/0", "-1/2", "+1/2", "1_0/3", " 1/2",
                     "abc", "9" * 5000, "9" * 4300 + "/1", "1/" + "7" * 4300]),
    st.lists(st.integers(-3, 300), max_size=3), st.dictionaries(st.text(max_size=3),
                                                                st.text(max_size=3), max_size=2),
)


def _paths(obj, path=()):
    """Every member and entry path under obj, containers first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _parse_replay_and_verify(data, groups):
    """Parse data, replay its report and verify its certificate on each of
    groups: ForcingLabError is the one exception any of them may raise."""
    try:
        doc = parse(data)
    except ForcingLabError:
        return
    if doc.delta_report is not None:
        with contextlib.suppress(ForcingLabError):
            replay_trace(doc.delta_report)
    for G in groups:
        with contextlib.suppress(ForcingLabError):
            verify_certificate(G, doc.certificate)


@pytest.fixture(scope="module")
def genuine_documents(group_of, cert_of):
    """An odd-p document and a p = 2 one with an override, with reports."""
    heis = delta_for_nilpotent(group_of("preset:Heisenberg(3)"), 5)
    ab = delta_for_nilpotent(group_of("preset:Abelian(2,4)"), 3, overrides={2: Fraction(1, 100)})
    return [emit(_doc(cert_of, "preset:Heisenberg(3)", delta=heis)),
            emit(_doc(cert_of, "preset:Abelian(2,4)", delta=ab))]


@pytest.fixture(scope="module")
def genuine_groups(group_of):
    """The genuine documents' groups, on which each fuzzed certificate is verified."""
    return [group_of("preset:Heisenberg(3)"), group_of("preset:Abelian(2,4)")]


class TestParseFuzz:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(data=st.data())
    def test_mutated_bytes_raise_only_library_errors(self, genuine_documents, genuine_groups,
                                                     data):
        document = bytearray(data.draw(st.sampled_from(genuine_documents)))
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(document) - 1))
            edit = data.draw(st.sampled_from(["replace", "insert", "delete"]))
            if edit == "delete":
                del document[at]
            else:
                document[at:at + (edit == "replace")] = data.draw(st.binary(min_size=1, max_size=3))
        _parse_replay_and_verify(bytes(document), genuine_groups)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_forged_fields_raise_only_library_errors(self, genuine_documents, genuine_groups,
                                                     data):
        # each forgery re-stamps the digest, so it reaches the field checks
        body = json.loads(data.draw(st.sampled_from(genuine_documents)))
        path = data.draw(st.sampled_from([p for p in _paths(body) if p != ("digest",)]))
        owner = body
        for key in path[:-1]:
            owner = owner[key]
        if data.draw(st.booleans()) and isinstance(owner, dict):
            del owner[path[-1]]
        else:
            owner[path[-1]] = data.draw(_HOSTILE)
        _parse_replay_and_verify(_reforge(json.dumps(body).encode()), genuine_groups)

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_repeated_chain_entries_raise_only_library_errors(self, genuine_documents,
                                                              genuine_groups, data):
        # one entry up to 300 times, its steps left or grown to fit the
        # chain: a genuine chain has 3 entries, so 59 copies reach the
        # verifier's bound of 61
        body = json.loads(data.draw(st.sampled_from(genuine_documents)))
        cert = body["certificate"]
        k = data.draw(st.integers(0, len(cert["chain"]) - 1))
        copies = data.draw(st.one_of(st.integers(57, 61), st.integers(1, 300)))
        cert["chain"][k:k + 1] = cert["chain"][k:k + 1] * copies
        if data.draw(st.booleans()):
            cert["steps"] = cert["steps"][:1] * (len(cert["chain"]) - 2)
        _parse_replay_and_verify(_reforge(json.dumps(body).encode()), genuine_groups)
