import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from forcing_lab import (FiniteGroup, ForcingCertificate, PreconditionViolated, certio,
                         classify, cli, forcing)
from forcing_lab.cli import main
from forcing_lab.exponents import (
    AnalyticConstants,
    ClosedFormCheck,
    TraceRecord,
    base_delta_elementary_abelian,
    delta_for_nilpotent,
    format_rational,
)
from forcing_lab.groupspec import parse_group_spec
from forcing_lab.groups import MAX_ORDER_CAP

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCatalog:
    def test_lists_known_entries(self, capsys):
        code, out, _ = run(capsys, "catalog", "--no-header")
        assert code == 0
        assert "GenQuaternion(2)" in out and " 16" in out
        assert "Heisenberg(3)" in out and " 27" in out
        assert "Cyclic(6)" in out and " 6" in out

    def test_json_form(self, capsys):
        code, out, _ = run(capsys, "catalog", "--json")
        assert code == 0
        rows = json.loads(out)
        byname = {r["name"]: r for r in rows}
        assert byname["GenQuaternion(2)"]["order"] == 16
        assert byname["Heisenberg(3)"]["structure"] == "p=3 n=3 class=2 rank=2"

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "catalog", "--no-header")
        _, out2, _ = run(capsys, "catalog", "--no-header")
        assert out1 == out2


class TestAnalyze:
    def test_quaternion_profile(self, capsys):
        code, out, _ = run(capsys, "analyze", "preset:GenQuaternion(1)", "--no-header")
        assert code == 0
        assert "rank: 2" in out
        assert "p-class: 2" in out
        assert "quaternion: yes (n=1)" in out

    def test_c2_x_c4(self, capsys):
        code, out, _ = run(capsys, "analyze", "preset:Abelian(2,4)", "--no-header")
        assert code == 0
        assert "rank: 2" in out and "p-class: 2" in out

    def test_elementary_abelian_class_one(self, capsys):
        code, out, _ = run(capsys, "analyze", "preset:ElemAbelian(3,2)", "--no-header")
        assert code == 0
        assert "p-class: 1" in out

    def test_nilpotent_sylow_table(self, capsys):
        code, out, _ = run(capsys, "analyze",
                           "product:preset:GenQuaternion(1)|preset:Cyclic(3)",
                           "--no-header")
        assert code == 0
        assert "sylow p=2" in out and "quaternion n=1" in out
        assert "sylow p=3" in out and "cyclic" in out

    def test_not_nilpotent_is_an_error(self, capsys):
        code, _, err = run(capsys, "analyze", "perm:3:(0 1 2),(0 1)", "--no-header")
        assert code == 1
        assert "NotNilpotent" in err

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "analyze", "preset:Nope(1)", "--no-header")
        assert code == 1
        assert "error" in err

    def test_json_profile(self, capsys):
        code, out, _ = run(capsys, "analyze", "preset:Heisenberg(3)", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["profile"]["p"] == 3
        assert obj["series_orders"] == [27, 3, 1]

    def test_class_sizes(self, capsys):
        code, out, _ = run(capsys, "analyze", "preset:Dihedral(8)", "--no-header")
        assert code == 0
        assert "class sizes: 1 (x2), 2 (x3)\n" in out
        code, out, _ = run(capsys, "analyze",
                           "product:preset:Heisenberg(3)|preset:Cyclic(2)", "--json")
        assert code == 0
        assert '"class_sizes":[[1,6],[3,16]]' in out


class TestForcingSeq:
    def test_writes_verifiable_document(self, capsys, tmp_path):
        out_path = tmp_path / "d4.fcert.json"
        code, out, _ = run(capsys, "forcing-seq", "preset:Dihedral(8)",
                           "--out", str(out_path), "--no-header")
        assert code == 0
        assert "verification: PASS" in out
        assert "digest:" in out
        assert out_path.exists()

        code, out, _ = run(capsys, "verify", str(out_path), "--no-header")
        assert code == 0
        assert "result: PASS" in out
        assert "step-forcing[0]" in out

    def test_embedded_delta_report(self, capsys, tmp_path):
        out_path = tmp_path / "heis.fcert.json"
        code, out, _ = run(capsys, "forcing-seq", "preset:Heisenberg(3)",
                           "--out", str(out_path), "--ell", "5", "--no-header")
        assert code == 0
        assert "delta (ell=5): 1/3911580" in out

        code, out, _ = run(capsys, "verify", str(out_path), "--no-header")
        assert code == 0
        assert "PASS delta-replay" in out

    def test_json_output_is_the_document(self, capsys, tmp_path):
        out_path = tmp_path / "v4.fcert.json"
        code, out, _ = run(capsys, "forcing-seq", "preset:ElemAbelian(2,2)",
                           "--out", str(out_path), "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["group_spec"] == "preset:ElemAbelian(2,2)"
        assert out_path.read_bytes().rstrip(b"\n") == out.strip().encode()

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_encodes_the_document_once(self, capsys, tmp_path, monkeypatch, flags):
        emitted, objects = [], []
        emit, document_obj = certio.emit, certio.document_obj
        monkeypatch.setattr(certio, "emit", lambda doc: emitted.append(doc) or emit(doc))
        monkeypatch.setattr(certio, "document_obj",
                            lambda doc: objects.append(doc) or document_obj(doc))
        out_path = tmp_path / "heis.fcert.json"
        code, out, _ = run(capsys, "forcing-seq", "preset:Heisenberg(3)", "--out",
                           str(out_path), "--ell", "5", "--no-header", *flags)
        assert code == 0 and len(emitted) == 1 and objects == []
        digest = certio.document_digest(certio.read_document(out_path))
        if flags:
            assert json.loads(out)["digest"] == digest
        else:
            assert f"digest: {digest}\n" in out

    @pytest.mark.parametrize("spec,expected", [
        ("preset:Cyclic(8)", 2),
        ("preset:GenQuaternion(1)", 3),
        ("preset:Cyclic(6)", 4),
    ])
    def test_rejection_exit_codes(self, capsys, tmp_path, spec, expected):
        code, _, err = run(capsys, "forcing-seq", spec,
                           "--out", str(tmp_path / "x.fcert.json"), "--no-header")
        assert code == expected
        assert "error:" in err
        assert not (tmp_path / "x.fcert.json").exists()

    @pytest.mark.parametrize("flags, error", [
        (["--beta", "1", "--gamma", "5"],
         "error: InvalidConstants: constants invariant rejected: beta must exceed gamma + 1/2\n"),
        (["--base-override", "missing.json"],
         "error: [Errno 2] No such file or directory: 'missing.json'\n"),
        (["--base-override", "garbage.json"],
         "error: ForcingLabError: base override file is not valid JSON: "
         "Expecting value: line 1 column 7 (char 6)\n"),
    ], ids=["constants", "missing-override", "override-not-json"])
    def test_constants_are_checked_without_ell(self, capsys, tmp_path, monkeypatch, flags,
                                               error):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "garbage.json").write_text('{"2": ')
        code, out, err = run(capsys, "forcing-seq", "preset:Dihedral(8)", "--out",
                             "x.fcert.json", *flags)
        assert (code, out, err) == (1, "", error)
        assert not (tmp_path / "x.fcert.json").exists()

    def test_refused_input_exits_before_the_constants_are_read(self, capsys, tmp_path):
        code, out, err = run(capsys, "forcing-seq", "preset:GenQuaternion(1)", "--out",
                             str(tmp_path / "x.fcert.json"), "--beta", "1",
                             "--base-override", str(tmp_path / "missing.json"))
        assert (code, out) == (3, "") and err.startswith("error: QuaternionGroup: ")

    def test_failed_self_check_writes_nothing(self, capsys, tmp_path, monkeypatch):
        image_class = forcing._image_class
        # the largest image first, so it becomes the class representative
        monkeypatch.setattr(forcing, "_image_class",
                            lambda project, members: image_class(project, members)[::-1])
        path = tmp_path / "d16.fcert.json"
        code, out, err = run(capsys, "forcing-seq", "preset:Dihedral(16)", "--out", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("FAIL step-witness-class[1]: ")
        assert err.endswith("error: ForcingLabError: built certificate failed verification; "
                            "nothing written\n")
        assert not path.exists()


class TestDelta:
    def test_heisenberg_exact(self, capsys):
        code, out, _ = run(capsys, "delta", "preset:Heisenberg(3)",
                           "--ell", "5", "--no-header")
        assert code == 0
        assert out.rstrip().endswith("delta = 1/3911580")
        assert "closed form: 1/3911580 (matched)" in out

    def test_elementary_abelian_exact(self, capsys):
        code, out, _ = run(capsys, "delta", "preset:ElemAbelian(3,2)",
                           "--ell", "5", "--no-header")
        assert code == 0
        assert "delta = 1/1860" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "delta", "preset:Heisenberg(3)",
                           "--ell", "5", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["delta"] == "1/3911580"
        assert [r["rule"] for r in obj["trace"]] == ["base", "extension"]

    def test_even_prime_exit_code(self, capsys):
        code, _, err = run(capsys, "delta", "preset:ElemAbelian(2,2)",
                           "--ell", "3", "--no-header")
        assert code == 6
        assert "EvenPrimeBase" in err

    def test_sylow_violation_exit_code(self, capsys):
        code, _, err = run(capsys, "delta",
                           "product:preset:Cyclic(2)|preset:Cyclic(6)",
                           "--ell", "5", "--no-header")
        assert code == 5
        assert "SylowHypothesisViolated" in err
        assert "3" in err

    def test_base_override_file(self, capsys, tmp_path):
        override = tmp_path / "base.json"
        override.write_text('{"2": "1/100"}')
        code, out, _ = run(capsys, "delta", "preset:ElemAbelian(2,2)",
                           "--ell", "3", "--base-override", str(override),
                           "--no-header")
        assert code == 0
        assert "delta = 1/100" in out
        assert "(override)" in out

    def test_constants_flags_change_result(self, capsys):
        code, out, _ = run(capsys, "delta", "preset:ElemAbelian(3,2)",
                           "--ell", "5", "--beta", "40", "--gamma", "20",
                           "--no-header")
        assert code == 0
        assert "delta = 1/1860" in out  # base formula uses neither constant

        # beta=40 makes eta0(5,3,3) = (1/20)/(3/20 + 3*40) = 1/2403,
        # so delta = 1/(1860*2403)
        code, out, _ = run(capsys, "delta", "preset:Heisenberg(3)", "--ell", "5",
                           "--beta", "40", "--gamma", "20", "--no-header")
        assert code == 0
        assert "delta = 1/4469580" in out

    def test_forged_constants_rejected(self, capsys):
        code, _, err = run(capsys, "delta", "preset:Heisenberg(3)", "--ell", "5",
                           "--beta", "19", "--no-header")
        assert code == 1
        assert err == ("error: InvalidConstants: constants invariant rejected: "
                       "beta must exceed gamma + 1/2\n")

    @pytest.mark.parametrize("flag", ["--beta", "--gamma", "--eps-delta"])
    @pytest.mark.parametrize("value", ["1/0", "one"])
    def test_bad_rational_flag(self, capsys, flag, value):
        code, out, err = run(capsys, "delta", "preset:Heisenberg(3)", "--ell", "5",
                             flag, value, "--no-header")
        assert code == 1 and out == ""
        assert err == f"error: ForcingLabError: {flag} must be a rational like 1/100, got {value!r}\n"

    @pytest.mark.parametrize("flag, value", [("--beta", "1e2000000"), ("--gamma", "1E-2_000_000"),
                                             ("--eps-delta", "1/" + "7" * 64)])
    def test_huge_rational_is_refused_before_it_is_parsed(self, capsys, flag, value):
        start = time.perf_counter()
        code, out, err = run(capsys, "delta", "preset:Heisenberg(3)", "--ell", "5",
                             flag, value, "--no-header")
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert err.startswith(f"error: ForcingLabError: {flag} ")

    @pytest.mark.parametrize("content", ['{"2": "1/0"}', '{"2": [1]}', '{"2": null}',
                                         "[" * 200_000, '{"2": ' + "9" * 5000 + "}",
                                         '{"2": "1/100"', '{"2": "1e999"}', '{"two": "1/100"}'],
                             ids=["zero-denominator", "list", "null", "deep", "huge-int",
                                  "malformed", "huge-exponent", "non-integer-key"])
    def test_bad_base_override_file(self, capsys, tmp_path, content):
        override = tmp_path / "base.json"
        override.write_text(content)
        code, out, err = run(capsys, "delta", "preset:ElemAbelian(2,2)", "--ell", "3",
                             "--base-override", str(override), "--no-header")
        assert code == 1 and out == ""
        assert err.startswith("error: ForcingLabError: base override")

    def test_base_override_file_past_the_input_limit(self, capsys, tmp_path, monkeypatch):
        override = tmp_path / "base.json"
        override.write_text('{"2": "1/100"}')
        monkeypatch.setattr(certio, "MAX_INPUT_BYTES", 13)
        code, out, err = run(capsys, "delta", "preset:ElemAbelian(2,2)", "--ell", "3",
                             "--base-override", str(override), "--no-header")
        assert code == 1 and out == ""
        assert err == f"error: InputTooLarge: {override} is longer than 13 bytes\n"
        monkeypatch.setattr(certio, "MAX_INPUT_BYTES", 14)
        code, out, _ = run(capsys, "delta", "preset:ElemAbelian(2,2)", "--ell", "3",
                           "--base-override", str(override), "--no-header")
        assert code == 0 and "delta = 1/100" in out

    def test_deterministic_json(self, capsys):
        _, out1, _ = run(capsys, "delta", "preset:Heisenberg(3)", "--ell", "5", "--json")
        _, out2, _ = run(capsys, "delta", "preset:Heisenberg(3)", "--ell", "5", "--json")
        assert out1 == out2

    @pytest.mark.parametrize("digits", [2200, 4000])
    def test_delta_past_what_a_rational_can_write(self, capsys, digits):
        # argparse reads the ell, but the base delta's denominator is about
        # twice as long, past MAX_DIGITS
        code, out, err = run(capsys, "delta", "preset:Heisenberg(3)", "--ell", "9" * digits,
                             "--no-header")
        assert (code, out) == (1, "")
        assert err == ("error: PreconditionViolated: a rational with a part of more than "
                       "4300 digits cannot be written\n")

    def test_no_int_to_str_limit_still_refuses_past_max_digits(self, capsys, tmp_path):
        # without the interpreter's limit, str() writes the part; MAX_DIGITS
        # must still refuse it, or the tool writes a certificate it cannot read
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            with pytest.raises(PreconditionViolated):
                format_rational(Fraction(1, 10 ** 4300))
            out_path = tmp_path / "h3.fcert.json"
            code, out, err = run(capsys, "forcing-seq", "preset:Heisenberg(3)", "--ell",
                                 "9" * 2200, "--out", str(out_path), "--no-header")
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (1, "")
        assert err.startswith("error: PreconditionViolated: a rational with a part of more")
        assert not out_path.exists()
        assert format_rational(Fraction(-10 ** 4299, 3)) == f"-{10 ** 4299}/3"


class TestVerify:
    def test_tampered_file_fails_digest(self, capsys, tmp_path):
        out_path = tmp_path / "d4.fcert.json"
        run(capsys, "forcing-seq", "preset:Dihedral(8)", "--out", str(out_path),
            "--no-header")
        data = out_path.read_bytes()
        out_path.write_bytes(data.replace(b'"kernel_order":2', b'"kernel_order":4'))
        code, _, err = run(capsys, "verify", str(out_path), "--no-header")
        assert code == 1
        assert "DigestMismatch" in err

    def test_reforged_content_fails_named_condition(self, capsys, tmp_path):
        import hashlib

        out_path = tmp_path / "d4.fcert.json"
        run(capsys, "forcing-seq", "preset:Dihedral(8)", "--out", str(out_path),
            "--no-header")
        body = json.loads(out_path.read_bytes())
        # drop an element from the Frattini entry and re-stamp the digest
        body["certificate"]["chain"][1] = [0]
        del body["digest"]
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
        body["digest"] = hashlib.sha256(canonical).hexdigest()
        out_path.write_bytes(json.dumps(body, sort_keys=True,
                                        separators=(",", ":")).encode())
        code, out, _ = run(capsys, "verify", str(out_path), "--no-header")
        assert code == 1
        assert "FAIL" in out
        assert "chain-frattini" in out or "chain-index-p" in out

    def test_deeply_nested_file(self, capsys, tmp_path):
        path = tmp_path / "deep.fcert.json"
        path.write_bytes(b"[" * 200_000)
        code, out, err = run(capsys, "verify", str(path), "--no-header")
        assert code == 1
        assert out == "" and "error: Malformed: JSON nested too deeply" in err

    def test_integer_past_the_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "long.fcert.json"
        path.write_bytes(b'{"a": ' + b"9" * 5000 + b"}")
        code, out, err = run(capsys, "verify", str(path), "--no-header")
        assert code == 1
        assert out == "" and "error: Malformed: invalid JSON: Exceeds the limit" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "nope.fcert.json"),
                           "--no-header")
        assert code == 1
        assert "error" in err

    def test_file_longer_than_the_input_limit_is_refused_unread(self, capsys, tmp_path,
                                                                  monkeypatch):
        path = tmp_path / "d4.fcert.json"
        run(capsys, "forcing-seq", "preset:Dihedral(8)", "--out", str(path), "--no-header")
        size = path.stat().st_size
        monkeypatch.setattr(certio, "MAX_INPUT_BYTES", size)
        code, out, _ = run(capsys, "verify", str(path), "--no-header")
        assert code == 0 and "result: PASS" in out
        monkeypatch.setattr(certio, "MAX_INPUT_BYTES", size - 1)
        code, out, err = run(capsys, "verify", str(path), "--no-header")
        assert code == 1 and out == ""
        assert err == f"error: InputTooLarge: {path} is longer than {size - 1} bytes\n"

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_file_is_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(certio, "MAX_INPUT_BYTES", 8)
        code, out, err = run(capsys, "verify", "/dev/zero", "--no-header")
        assert code == 1 and out == ""
        assert err.startswith("error: InputTooLarge: /dev/zero ")


def _forge_drop_extension(report):
    # Heisenberg(3) has one step: without it, delta is the base value
    return replace(report, trace=report.trace[:1],
                   delta=Fraction(report.trace[0].outputs["delta"]))


def _forge_base_rank(report):
    # the base formula reads the rank only to refuse rank one
    base = report.trace[0]
    inputs = {**base.inputs, "rank": "3"}
    p, rank, ell = (int(inputs[k]) for k in ("p", "rank", "ell"))
    consts = AnalyticConstants(*(Fraction(inputs[k]) for k in ("beta", "gamma", "epsilon_delta")))
    outputs = {"delta": format_rational(base_delta_elementary_abelian(p, rank, ell, consts))}
    assert outputs == base.outputs
    return replace(report, trace=(TraceRecord("base", inputs, outputs),) + report.trace[1:])


def _forge_base_beta(report):
    # well-formed, but its constants break beta > gamma + 1/2
    base = report.trace[0]
    record = TraceRecord("base", {**base.inputs, "beta": "19/1"}, base.outputs)
    return replace(report, trace=(record,) + report.trace[1:])


def _forge_base_ell(text):
    """The base record with its ell field replaced by text."""
    def forge(report):
        base = report.trace[0]
        record = TraceRecord("base", {**base.inputs, "ell": text}, base.outputs)
        return replace(report, trace=(record,) + report.trace[1:])
    return forge


def _forge_long_override(report):
    # an override base of 4300 digits, which its extension takes past MAX_DIGITS
    base, extension = report.trace
    text = f"1/{10 ** 4299 + 1}"
    records = (TraceRecord("base", {**base.inputs, "source": "override"}, {"delta": text}),
               TraceRecord("extension", {**extension.inputs, "delta": text}, extension.outputs))
    return replace(report, trace=records)


def _forge_compositum(report):
    delta = format_rational(report.delta)
    record = TraceRecord("compositum", {"delta1": delta, "degree1": "27", "delta2": delta,
                                        "degree2": "27"}, {"delta": delta})
    return replace(report, trace=report.trace + (record,))


class TestVerifyTiesReportToCertificate:
    """Forged delta reports on Heisenberg(3)'s certificate, each with a
    recomputed digest: verify exits 1 and names the field that differs."""

    @pytest.mark.parametrize("forge, named", [
        (lambda report: delta_for_nilpotent(
            parse_group_spec("product:preset:Heisenberg(3)|preset:Cyclic(9)"), 5),
         "group_spec is 'product:preset:Heisenberg(3)|preset:Cyclic(9)', "
         "expected 'preset:Heisenberg(3)'"),
        (lambda report: replace(report, ell=7), "trace[0].inputs.ell is '5', expected '7'"),
        (_forge_drop_extension, "trace[1].rule is None, expected 'extension'"),
        (_forge_base_rank, "trace[0].inputs.rank is '3', expected '2'"),
        (_forge_compositum, "compositum exceeds available factors"),
        (_forge_base_beta, "constants invariant rejected: beta must exceed gamma + 1/2"),
        (_forge_base_ell("abc"), "record 0: ell: 'abc' is not an integer of at most 4300 digits"),
        (_forge_base_ell("9" * 5000), "record 0: ell: '" + "9" * 36 + "... is not an integer"),
        (lambda report: replace(report, closed_form_check=ClosedFormCheck(Fraction(1, 7), True)),
         "closed_form_check.predicted is '1/7', expected '1/3911580'"),
        (lambda report: replace(report, closed_form_check=None),
         "closed_form_check.predicted is None, expected '1/3911580'"),
        (_forge_long_override,
         "a rational with a part of more than 4300 digits cannot be written"),
    ], ids=["other-group", "ell", "dropped-extension", "base-rank", "compositum", "base-beta",
            "base-ell-text", "base-ell-digits", "closed-form-forged", "closed-form-dropped",
            "override-digits"])
    def test_forged_report_fails(self, capsys, tmp_path, forge, named):
        path = self._forged(capsys, tmp_path, forge)
        code, out, _ = run(capsys, "verify", str(path), "--no-header")
        assert code == 1
        assert "FAIL delta-replay: " in out and named in out
        assert "result: FAIL (1 of 24 conditions)" in out

    def test_forged_constants_give_a_json_report(self, capsys, tmp_path):
        path = self._forged(capsys, tmp_path, _forge_base_beta)
        code, out, err = run(capsys, "verify", str(path), "--json")
        assert code == 1 and err == ""
        report = json.loads(out)
        assert report["delta_replay"] is False and report["all_passed"] is False
        assert report["conditions"][-1] == {
            "condition": "delta-replay", "passed": False,
            "detail": "constants invariant rejected: beta must exceed gamma + 1/2"}

    @staticmethod
    def _forged(capsys, tmp_path, forge):
        """Heisenberg(3)'s l = 5 document with its report forged and the
        digest recomputed."""
        path = tmp_path / "heis.fcert.json"
        assert main(["forcing-seq", "preset:Heisenberg(3)", "--ell", "5", "--out", str(path),
                     "--no-header"]) == 0
        doc = certio.read_document(path)
        certio.write_document(replace(doc, delta_report=forge(doc.delta_report)), path)
        capsys.readouterr()
        return path

    @pytest.mark.parametrize("spec, ell, override, delta", [
        ("preset:Heisenberg(3)", "5", None, "1/3911580"),
        ("preset:Dihedral(16)", "3", "1/100", "1/17808400"),
    ])
    def test_valid_document_passes(self, capsys, tmp_path, spec, ell, override, delta):
        path = tmp_path / "doc.fcert.json"
        argv = ["forcing-seq", spec, "--ell", ell, "--out", str(path), "--no-header"]
        if override:
            (tmp_path / "base.json").write_text(json.dumps({"2": override}))
            argv += ["--base-override", str(tmp_path / "base.json")]
        assert main(argv) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "verify", str(path), "--json")
        assert code == 0
        assert json.loads(out)["conditions"][-1] == {
            "condition": "delta-replay", "detail": f"delta = {delta}", "passed": True}


class TestPaperChecks:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "paper-checks", "--no-header")
        assert code == 0
        assert "result: PASS" in out
        for name in ["constants-invariant", "quaternion-profile",
                     "quaternion-rejected", "hall-unique-involution",
                     "eta0-lower-bound", "closed-form-lower-bound",
                     "crossover-consistent", "crossover-implication"]:
            assert f"PASS {name}" in out

    def test_forged_beta_rejected(self, capsys):
        """Constants that break the invariant end as delta's do: an error
        on stderr, exit 1 and no table."""
        code, out, err = run(capsys, "paper-checks", "--beta", "19", "--no-header")
        assert (code, out) == (1, "")
        assert err == ("error: InvalidConstants: constants invariant rejected: "
                       "beta must exceed gamma + 1/2\n")

    def test_json_form(self, capsys):
        code, out, _ = run(capsys, "paper-checks", "--json")
        assert code == 0
        rows = json.loads(out)
        assert all(r["passed"] for r in rows)
        assert len(rows) == 8

    def test_miscounted_involutions_fail_the_hall_check(self, capsys, monkeypatch):
        """With one involution planted on every order-16 group, Dihedral(16)
        and Abelian(4,4) among them, hall-unique-involution fails: which groups
        are cyclic or quaternion is not read from a detector that counts the
        same involutions."""
        original = classify.count_order_p_subgroups

        def planted(G, p):
            return 1 if G.order == 16 else original(G, p)

        monkeypatch.setattr(classify, "count_order_p_subgroups", planted)
        monkeypatch.setattr(cli, "count_order_p_subgroups", planted)
        code, out, _ = run(capsys, "paper-checks", "--no-header")
        assert code == 1
        assert ("FAIL hall-unique-involution (64 cases) [Abelian(8,2);Abelian(4,4);Abelian(4,2,2)]"
                in out)
        assert "PASS quaternion-profile" in out and "PASS quaternion-rejected" in out

    def test_forged_beta_json(self, capsys):
        code, out, err = run(capsys, "paper-checks", "--beta", "19", "--json")
        assert (code, out) == (1, "")
        assert err == ("error: InvalidConstants: constants invariant rejected: "
                       "beta must exceed gamma + 1/2\n")


# one argv per subcommand, and a verify that exits 1;
# "GOOD" and "FORGED" stand for the files the output_dir fixture writes
_OUTPUT_ARGVS = [
    ["catalog"],
    ["analyze", "preset:Dihedral(8)"],
    ["analyze", "product:preset:GenQuaternion(1)|preset:Cyclic(3)"],
    ["forcing-seq", "preset:Heisenberg(3)", "--ell", "5", "--out", "h3.fcert.json"],
    ["delta", "preset:Heisenberg(3)", "--ell", "5"],
    ["verify", "GOOD"],
    ["verify", "FORGED"],
    ["paper-checks"],
]
_HEADER = re.compile(r"# forcing-lab ([a-z-]+) \d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ\n")


@pytest.fixture(scope="module")
def output_dir(tmp_path_factory):
    """Dihedral(8)'s certificate as GOOD, and as FORGED with its Frattini
    entry cut to the identity and the digest recomputed."""
    root = tmp_path_factory.mktemp("output")
    good = root / "GOOD"
    assert main(["forcing-seq", "preset:Dihedral(8)", "--out", str(good)]) == 0
    doc = certio.read_document(good)
    chain = (doc.certificate.chain[0], (0,)) + doc.certificate.chain[2:]
    certio.write_document(replace(doc, certificate=replace(doc.certificate, chain=chain)),
                          root / "FORGED")
    return root


class TestOutput:
    """Every command's stdout: a header line and text, or JSON alone."""

    @pytest.mark.parametrize("argv", _OUTPUT_ARGVS, ids=" ".join)
    def test_header_then_the_headerless_text(self, capsys, monkeypatch, output_dir, argv):
        monkeypatch.chdir(output_dir)
        code, out, err = run(capsys, *argv)
        plain = run(capsys, *argv, "--no-header")
        header = _HEADER.match(out)
        assert header and header[1] == argv[0]
        assert (code, out[header.end():], err) == plain
        assert plain[1] and not plain[1].startswith("#")
        assert code == (1 if "FORGED" in argv else 0)

    @pytest.mark.parametrize("argv", _OUTPUT_ARGVS, ids=" ".join)
    def test_json_alone(self, capsys, monkeypatch, output_dir, argv):
        monkeypatch.chdir(output_dir)
        code, out, err = run(capsys, *argv, "--json")
        assert code == (1 if "FORGED" in argv else 0) and err == ""
        assert out.endswith("\n") and out.count("\n") == 1
        json.loads(out)

    @pytest.mark.parametrize("argv", [
        ["catalog", "--cap", "4"],
        ["analyze", "preset:Nope(1)"],
        ["forcing-seq", "preset:Cyclic(8)", "--out", "x.fcert.json"],
        ["delta", "preset:ElemAbelian(2,2)", "--ell", "3"],
        ["verify", "missing.fcert.json"],
        ["paper-checks", "--beta", "one"],
        ["paper-checks", "--beta", "19"],
    ], ids=["catalog", "analyze", "forcing-seq", "delta", "verify", "paper-checks",
            "paper-checks-invariant"])
    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_a_command_that_raises_writes_no_stdout(self, capsys, monkeypatch, tmp_path, argv,
                                                     flags):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, *flags)
        assert code != 0 and out == "" and err.startswith("error: ")

    def test_stdout_is_written_only_by_finish(self):
        """Every write to stdout in cli.py, a print without file=sys.stderr
        or a use of sys.stdout, lies inside _finish, so each command has one
        way out."""
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        finish, = [node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "_finish"]
        inside = {id(node) for node in ast.walk(finish)}

        def to_stderr(call):
            return any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                       for kw in call.keywords)

        writes = [node for node in ast.walk(tree)
                  if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "print" and not to_stderr(node))
                  or (isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout")]
        assert writes and all(id(node) in inside for node in writes), \
            [f"line {node.lineno}" for node in writes if id(node) not in inside]


class TestHeaderAndCap:

    def test_cap_flag(self, capsys):
        code, _, err = run(capsys, "analyze", "preset:Cyclic(100)", "--cap", "50",
                           "--no-header")
        assert code == 1
        assert "OrderCapExceeded" in err

    def test_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FORCING_LAB_CAP", "50")
        code, _, err = run(capsys, "analyze", "preset:Cyclic(100)", "--no-header")
        assert code == 1
        assert "OrderCapExceeded" in err

    def test_flag_wins_over_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FORCING_LAB_CAP", "50")
        code, out, _ = run(capsys, "analyze", "preset:Cyclic(100)", "--cap", "2048",
                           "--no-header")
        assert code == 0
        assert "order: 100" in out

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("FORCING_LAB_CAP", "soon")
        code, _, err = run(capsys, "catalog", "--no-header")
        assert code == 1
        assert "FORCING_LAB_CAP" in err

    def test_cap_ceiling_is_the_largest_table_within_256_mib(self):
        assert 4 * MAX_ORDER_CAP ** 2 <= 256 * 2 ** 20 < 4 * (MAX_ORDER_CAP + 1) ** 2

    def test_cap_past_ceiling_is_refused_from_flag(self, capsys):
        code, _, err = run(capsys, "analyze", "preset:Heisenberg(3)", "--cap",
                           str(MAX_ORDER_CAP + 1), "--no-header")
        assert code == 1
        assert f"cap {MAX_ORDER_CAP + 1} exceeds {MAX_ORDER_CAP}" in err

    def test_cap_past_ceiling_is_refused_from_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FORCING_LAB_CAP", str(MAX_ORDER_CAP + 1))
        code, _, err = run(capsys, "analyze", "preset:Heisenberg(3)", "--no-header")
        assert code == 1
        assert f"cap {MAX_ORDER_CAP + 1} exceeds {MAX_ORDER_CAP}" in err

    @pytest.mark.parametrize("cap", ["-3", "0"])
    def test_cap_below_one_is_refused_from_flag(self, capsys, cap):
        code, out, err = run(capsys, "analyze", "preset:Dihedral(8)", "--cap", cap,
                             "--no-header")
        assert code == 1 and out == ""
        assert err == f"error: ForcingLabError: --cap must be at least 1, got {cap}\n"

    @pytest.mark.parametrize("cap", ["-1", "0"])
    def test_cap_below_one_is_refused_from_env(self, capsys, monkeypatch, cap):
        monkeypatch.setenv("FORCING_LAB_CAP", cap)
        code, out, err = run(capsys, "analyze", "preset:Dihedral(8)", "--no-header")
        assert code == 1 and out == ""
        assert err == f"error: ForcingLabError: FORCING_LAB_CAP must be at least 1, got {cap}\n"

    def test_cap_at_ceiling_runs(self, capsys):
        code, out, _ = run(capsys, "analyze", "preset:Heisenberg(3)", "--cap",
                           str(MAX_ORDER_CAP), "--no-header")
        assert code == 0
        assert "order: 27" in out


class TestUsageErrors:
    """A usage error exits 1, not 2, the code of cyclic input, and argparse's
    usage text stays on stderr."""

    @pytest.mark.parametrize("argv", [
        ["delta", "preset:Heisenberg(3)", "--ell", "abc"],
        ["delta", "preset:Heisenberg(3)", "--ell", "5" * 5000],
        ["analyze", "preset:Heisenberg(3)", "--cap", "abc"],
        ["nope"],
        [],
    ])
    def test_usage_error_exits_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage: forcing-lab") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["--help"], ["delta", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out.startswith("usage: forcing-lab") and err == ""


# the grammar of TestMainFuzz, each a (valid, invalid) pair: every table it
# can build has order at most 64, as every cap it passes is at most 64 or
# refused before a table is built
_FUZZ_SPECS = (
    ["preset:Dihedral(8)", "preset:Heisenberg(3)", "preset:Abelian(2,4)", "preset:Cyclic(4)",
     "preset:GenQuaternion(1)", "product:preset:Dihedral(8)|preset:Cyclic(3)",
     "product:preset:GenQuaternion(1)|preset:Cyclic(3)", "perm:4:(0 1 2 3),(1 3)",
     "perm:99999999999:(0 1)"],
    ["preset:Dihedral(128)", "perm:3:(0 1 2),(0 1)", "preset:Nope(1)", "preset:Dihedral(",
     "product:|", "", "perm:3:(0 1 2", "perm:2:(0 5)", "perm:x:()"],
)
_FUZZ_CAPS = (["8", "64"], ["-3", "0", "abc", "1.5", str(MAX_ORDER_CAP + 1), "9" * 40])
_FUZZ_ELLS = (["2", "3", "5"], ["0", "1", "-7", "abc", "5" * 5000])
_FUZZ_BAD_RATIONALS = ["1e99", "nan", "inf", "1/0", "-2", "1e-70", "", "3/2"]
_FUZZ_CONSTANTS = {"--beta": ["35", "40"], "--gamma": ["19", "1/2"], "--eps-delta": ["0", "1/100"]}
# input files besides "cert", a genuine certificate the fixture writes
_FUZZ_FILES = {
    "override": b'{"2": "1/100"}',
    "garbage": b"\x00not json",
    "bad-override": b'{"x": "1e99"}',
    "list": b"[1, 2]",
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, data in _FUZZ_FILES.items():
        (root / name).write_bytes(data)
    assert main(["forcing-seq", "preset:Heisenberg(3)", "--out", str(root / "cert"),
                 "--ell", "3", "--no-header"]) == 0
    return root


@st.composite
def _argv(draw, root):
    # half the argvs take valid values only; the rest draw half and half
    valid = draw(st.booleans())

    def pick(pair):
        good = st.sampled_from(pair[0])
        return good if valid else good | st.sampled_from(pair[1])

    command = draw(st.sampled_from(["catalog", "analyze", "forcing-seq", "delta", "verify",
                                    "paper-checks", "nope"]))
    files = pick(([str(root / "cert"), str(root / "override")],
                  [str(root / name) for name in ["garbage", "bad-override", "list", "missing"]]))
    argv = [command]
    if command in ("analyze", "forcing-seq", "delta"):
        argv.append(draw(pick(_FUZZ_SPECS)))
    if command == "forcing-seq":
        argv += ["--out", draw(pick(([str(root / "out.fcert.json")],
                                     [str(root), str(root / "missing" / "out")])))]
    if command == "verify":
        argv.append(draw(files))
    # one in four optional flags given, one in eight argvs with an unknown one
    sometimes = st.sampled_from([False, False, False, True])
    if command in ("forcing-seq", "delta") and not draw(sometimes):
        argv += ["--ell", draw(pick(_FUZZ_ELLS))]
    if command in ("forcing-seq", "delta", "paper-checks"):
        for flag, values in _FUZZ_CONSTANTS.items():
            if draw(sometimes):
                argv += [flag, draw(pick((values, _FUZZ_BAD_RATIONALS)))]
    if command in ("forcing-seq", "delta") and draw(st.booleans()):
        argv += ["--base-override", draw(files)]
    if draw(st.booleans()):
        argv += ["--cap", draw(pick(_FUZZ_CAPS))]
    argv += draw(st.lists(st.sampled_from(["--json", "--no-header"]), max_size=2))
    argv += draw(st.sampled_from([[]] * 7 + [["--bogus"]]))
    return argv


class TestMainFuzz:
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_main_returns_a_documented_code(self, fuzz_dir, data):
        argv = data.draw(_argv(fuzz_dir))
        orders = []
        init = FiniteGroup.__init__

        def recording(self, mul_table, *args, **kwargs):
            orders.append(len(mul_table))
            init(self, mul_table, *args, **kwargs)

        out, err = io.StringIO(), io.StringIO()
        # without --cap, the cap is 64
        with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            patch.setenv("FORCING_LAB_CAP", "64")
            patch.setattr(FiniteGroup, "__init__", recording)
            code = main(argv)
        assert code in range(7), argv
        assert "Traceback" not in err.getvalue(), argv
        assert max(orders, default=1) <= 64, argv


def _run_in_a_gibibyte(cwd, *argv):
    """forcing-lab argv in a subprocess under a 1 GiB address-space limit."""
    resource = pytest.importorskip("resource")
    limit = 1 << 30
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "forcing_lab", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))


def test_huge_perm_degree_is_spec_text_only(tmp_path):
    """A perm group is built on the points its cycles move, so a degree of
    10^11 allocates nothing of that size: analyze runs under a 1 GiB
    address-space limit."""
    result = _run_in_a_gibibyte(tmp_path, "analyze", "perm:99999999999:(0 1)", "--no-header")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("spec: perm:99999999999:(0 1)\norder: 2\n")


def test_long_forged_chain_is_refused_before_its_masks(tmp_path):
    """A 2 MB document of 500,000 one-element entries on Dihedral(2048)
    would take a 977 MiB membership mask; its step count is checked first,
    so verify names the fault under a 1 GiB address-space limit."""
    forged = ForcingCertificate(group_spec="preset:Dihedral(2048)", chain=((0,),) * 500_000,
                                steps=())
    path = certio.write_document(certio.CertificateDocument(certificate=forged),
                                 tmp_path / "long.fcert.json")
    assert path.stat().st_size > 2_000_000
    result = _run_in_a_gibibyte(tmp_path, "verify", str(path), "--no-header")
    assert result.returncode == 1
    assert result.stderr == ("error: MalformedCertificate: 0 steps do not match a chain of "
                             "500000 entries\n")


def test_commands_leave_numpy_ma_unimported(tmp_path):
    """np.unique and its relatives import numpy.ma, about 14 ms of a fresh
    interpreter's start, which no command needs."""
    cert = str(tmp_path / "sd32.fcert.json")
    commands = [["forcing-seq", "preset:SemiDihedral(32)", "--out", cert, "--no-header"],
                ["verify", cert, "--no-header"],
                ["analyze", "preset:Heisenberg(5)", "--no-header"],
                ["delta", "product:preset:Heisenberg(3)|preset:ElemAbelian(5,2)", "--ell", "7",
                 "--no-header"]]
    script = ("import contextlib, io, json, sys\n"
              "from forcing_lab.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        code = main(argv)\n"
              "    print(argv[0], code, 'numpy.ma' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script, json.dumps(commands)], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [f"{argv[0]} 0 False" for argv in commands]
