"""Self-tests of the benchmark itself.

    python3 -m pytest bench -q

They check that a seed fixes the inputs, that a wrong pinned output counts as
a failure, that tracing does not change any output, and that timings are
scaled by the machine-speed reference as documented.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
import worker  # noqa: E402

SMALL = ["preset:Dihedral(8)", "preset:Heisenberg(3)", "preset:Cyclic(9)",
         "preset:GenQuaternion(1)", "product:preset:Dihedral(8)|preset:Cyclic(2)",
         "perm:8:(0 1 2 3),(1 3)(4 5 6 7)"]


@pytest.fixture(scope="module")
def pins():
    return wl.load_pins()


@pytest.fixture(scope="module")
def fl():
    return worker.import_package()


def test_same_seed_gives_same_inputs(pins):
    specs = wl.workload_specs(pins, "corpus-256")
    for k in range(3):
        assert wl.group_schedule(specs, 7, k) == wl.group_schedule(specs, 7, k)
        assert wl.cli_schedule(7, k) == wl.cli_schedule(7, k)
    assert wl.group_schedule(specs, 7, 0) != wl.group_schedule(specs, 8, 0)
    assert sorted(s for s, _ in wl.group_schedule(specs, 7, 0)) == sorted(specs)


def test_every_input_a_seed_can_produce_is_pinned(pins):
    assert len(pins["corpus_specs"]) == 147
    groups = pins["groups"]
    refused = [s for s in wl.workload_specs(pins, "corpus-256") if "refused" in groups[s]]
    assert len(refused) == 26
    for spec in wl.workload_specs(pins, "corpus-256") + wl.workload_specs(pins, "ladder-large"):
        assert "refused" in groups[spec] or set(groups[spec]) == {str(e) for e in wl.ELLS}
    for ell in wl.ELLS:
        assert set(pins["cli"][str(ell)]) == {c.key for u in wl.cli_commands(ell) for c in u}
        assert pins["cli"][str(ell)]["forcing-seq-refused"]["exit"] == 3
    for seed in range(20):
        _, commands = wl.cli_schedule(seed, 0)
        keys = [c.key for c in commands]
        assert keys.index("forcing-seq") + 1 == keys.index("verify")


def test_correct_outputs_pass_and_wrong_pins_fail(pins, fl):
    spec, ell = "preset:Dihedral(8)", 5
    outcome = wl.run_group(fl, spec, ell)
    pin = pins["groups"][spec]
    assert wl.check_group(outcome, pin, ell) == []

    wrong_digest = json.loads(json.dumps(pin))
    wrong_digest[str(ell)]["digest"] = "0" * 64
    assert any("digest" in p for p in wl.check_group(outcome, wrong_digest, ell))

    wrong_delta = json.loads(json.dumps(pin))
    wrong_delta[str(ell)]["delta"] = "1/42201"
    assert any("delta" in p for p in wl.check_group(outcome, wrong_delta, ell))

    assert wl.check_group(outcome, {"refused": "CyclicGroup"}, ell)
    assert wl.check_group(wl.run_group(fl, "preset:Cyclic(9)", ell), pin, ell)

    cli_pin = pins["cli"][str(ell)]["delta"]
    assert wl.check_command(cli_pin["exit"], cli_pin["stdout"], cli_pin) == []
    assert wl.check_command(1, cli_pin["stdout"], cli_pin)
    assert wl.check_command(cli_pin["exit"], cli_pin["stdout"] + "x", cli_pin)


def test_worker_counts_a_wrong_pin_as_failed(pins):
    spec = "preset:Dihedral(8)"
    tampered = {"corpus_specs": [["Dihedral(8)", spec], ["Cyclic(9)", "preset:Cyclic(9)"]],
                "groups": json.loads(json.dumps({s: pins["groups"][s]
                                                 for s in (spec, "preset:Cyclic(9)")}))}
    for ell in wl.ELLS:
        tampered["groups"][spec][str(ell)]["digest"] = "f" * 64
    record = worker.GroupRunner("corpus-256", 3, tampered).run_pass(0, 0)
    problems = {op["key"]: op["problems"] for op in record["ops"]}
    assert problems["preset:Cyclic(9)"] == []
    assert problems[spec] and "digest" in problems[spec][0]


def test_tracing_changes_no_output(fl):
    import forcing_lab.forcing

    original = forcing_lab.forcing.build_forcing_sequence
    plain = [wl.group_outputs(wl.run_group(fl, spec, 7)) for spec in SMALL]
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.memory = True
        traced = [wl.group_outputs(wl.run_group(fl, spec, 7)) for spec in SMALL]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert forcing_lab.forcing.build_forcing_sequence is original
    layers = tracer.take_pass(0)
    assert layers["forcing.refused"] == 2
    assert layers["forcing.build_forcing_sequence.calls"] == len(SMALL)
    assert layers["groupspec.parse_group_spec.calls"] == len(SMALL) + 2  # product parts
    assert layers["forcing.verify_certificate.peak_mb"] > 0


def test_traced_cli_matches_plain_cli(tmp_path, pins):
    wl.prepare_workdir(tmp_path)
    args = ["delta", "product:preset:Heisenberg(3)|preset:ElemAbelian(5,2)", "--ell", "5", "--no-header"]
    env = wl.cli_env()
    plain = subprocess.run([sys.executable, "-m", "forcing_lab", *args], cwd=tmp_path,
                           env=env, capture_output=True, text=True, timeout=120)
    out = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(BENCH / "cli_traced.py"), "--out", str(out),
                             "--op", "0", "--", *args], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert plain.returncode == 0
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    child = json.loads(out.read_text())
    assert child["layers"]["classify.sylow_decomposition.calls"] == 1
    assert {s[0] for s in child["spans"]} >= {"exponents.delta_for_nilpotent",
                                              "forcing.verify_certificate"}


def test_self_time_subtracts_children_and_total_skips_recursion():
    # name, start, end, parent, op, nested-in-same-name
    recorded = [
        ["op", 0.0, 10.0, None, 0, False],
        ["groupspec.parse_group_spec", 1.0, 5.0, 0, 0, False],
        ["groupspec.parse_group_spec", 1.5, 2.5, 1, 0, True],
        ["groups.from_generators", 2.6, 4.6, 1, 0, False],
    ]
    layers = spans.aggregate(recorded, 0, {}, {})
    assert layers["groupspec.parse_group_spec.calls"] == 2
    assert layers["groupspec.parse_group_spec.total_s"] == pytest.approx(4.0)
    assert layers["groupspec.parse_group_spec.self_s"] == pytest.approx(1.0 + 1.0)
    assert layers["groups.from_generators.self_s"] == pytest.approx(2.0)
    assert "op.calls" not in layers


def test_tail_is_a_fixed_percentile_with_ten_samples_beyond_it():
    assert wl.min_ops("corpus-256") == 182
    assert wl.min_ops("ladder-large") == wl.min_ops("cli-session") == 20
    for n in (182, 294, 882, 1029):
        times = [float(i) for i in range(n)]
        value = run.tail(times, 95.0)
        assert value == pytest.approx((n - 1) * 0.95)
        assert sum(1 for t in times if t > value) >= 10
    assert run.tail([float(i) for i in range(20)], 50.0) == pytest.approx(9.5)
    with pytest.raises(run.BenchError):
        run.tail([float(i) for i in range(181)], 95.0)
    with pytest.raises(run.BenchError):
        run.tail([1.0] * 19, 50.0)


def test_timings_are_scaled_by_the_reference_rounds():
    factor = 0.25 ** reference.SENSITIVITY
    slow = [4 * reference.ROUND_S * 10, 10]    # ten rounds at a quarter of the speed
    fast = [reference.ROUND_S * 10, 10]
    measuring = {"passes": [{"s": 2.0, "ops": [{"s": 0.5}, {"s": 1.5}], "ref": slow}] * 10,
                 "setup_ref": fast, "maxrss_kb": 1024}
    metrics = run.end_to_end([(0.4, {"setup_ref": slow}), (0.1, measuring)], "ladder-large")
    assert metrics["setup_s"][0] == pytest.approx((0.4 * factor + 0.1) / 2)
    assert metrics["ops_per_s"][0] == pytest.approx(2 / (2.0 * factor))
    assert metrics["op_s.p50"][0] == pytest.approx(1.0 * factor)
    assert metrics["peak_rss_mb"][0] == 1.0


def test_sampler_runs_a_share_of_each_operation_outside_the_pass(pins):
    runner = worker.GroupRunner("corpus-256", 1, pins)
    runner.specs = ["preset:Dihedral(8)", "preset:Cyclic(9)"]
    runner.schedule = {}
    runner.sampler = reference.Sampler()
    t0 = time.perf_counter()
    record = runner.run_pass(0, 0)
    wall = time.perf_counter() - t0
    seconds, rounds = record["ref"]
    assert rounds >= 2 and seconds >= reference.SHARE * sum(op["s"] for op in record["ops"])
    assert record["s"] == pytest.approx(wall - seconds, abs=0.01)
