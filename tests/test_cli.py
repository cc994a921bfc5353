import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from forcing_lab import certio
from forcing_lab.cli import main
from forcing_lab.exponents import (
    AnalyticConstants,
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
    record = TraceRecord("base", {**base.inputs, "beta": "19"}, base.outputs)
    return replace(report, trace=(record,) + report.trace[1:])


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
    ], ids=["other-group", "ell", "dropped-extension", "base-rank", "compositum", "base-beta"])
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
        code, out, _ = run(capsys, "paper-checks", "--beta", "19", "--no-header")
        assert code == 1
        assert "FAIL constants-invariant" in out

    def test_json_form(self, capsys):
        code, out, _ = run(capsys, "paper-checks", "--json")
        assert code == 0
        rows = json.loads(out)
        assert all(r["passed"] for r in rows)
        assert len(rows) == 8


class TestHeaderAndCap:
    def test_header_present_by_default(self, capsys):
        _, out, _ = run(capsys, "catalog")
        assert out.startswith("# forcing-lab catalog ")

    def test_header_suppressed(self, capsys):
        _, out, _ = run(capsys, "catalog", "--no-header")
        assert not out.startswith("#")

    def test_json_suppresses_header(self, capsys):
        _, out, _ = run(capsys, "catalog", "--json")
        assert out.startswith("[")

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

    def test_cap_at_ceiling_runs(self, capsys):
        code, out, _ = run(capsys, "analyze", "preset:Heisenberg(3)", "--cap",
                           str(MAX_ORDER_CAP), "--no-header")
        assert code == 0
        assert "order: 27" in out


def test_huge_perm_degree_is_spec_text_only(tmp_path):
    """A perm group is built on the points its cycles move, so a degree of
    10^11 allocates nothing of that size: analyze runs under a 1 GiB
    address-space limit."""
    resource = pytest.importorskip("resource")
    limit = 1 << 30
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "forcing_lab", "analyze", "perm:99999999999:(0 1)", "--no-header"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("spec: perm:99999999999:(0 1)\norder: 2\n")


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
