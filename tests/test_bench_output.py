"""The benchmark's traced run must report every per-layer metric that
BENCHMARK.json declares.

``bench/run.py`` leaves out of its JSON line any declared metric that the
traced run never reached, so a program that stops calling a traced method
makes the benchmark's output malformed. This runs the corpus-256 pipeline
and the cli-session commands once each under the benchmark's own tracer and
checks that nothing is left out. It also counts one call the corpus pass
makes per group.
"""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from forcing_lab import certio, classify, cli, errors, exponents, forcing, groupspec

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is defined
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _unreached(spans, tracer):
    """The declared per-layer metrics that the traced calls did not reach."""
    metrics = spans.aggregate(tracer.spans, 0, tracer.counters, tracer.peaks)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # run.py computes the tracing overhead and the tracemalloc peaks itself
    return [m["name"] for m in declared if m["name"] != "trace.overhead"
            and not m["name"].endswith(".peak_mb") and m["name"] not in metrics]


def test_traced_corpus_pass_reaches_every_declared_per_layer_metric():
    spans, workloads = _load("spans"), _load("workloads")
    pins = workloads.load_pins()
    fl = SimpleNamespace(certio=certio, classify=classify, errors=errors,
                         exponents=exponents, forcing=forcing, groupspec=groupspec)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for spec in workloads.workload_specs(pins, "corpus-256"):
            outcome = workloads.run_group(fl, spec, 3)
            assert not workloads.check_group(outcome, pins["groups"][spec], 3), spec
    finally:
        tracer.uninstall()
    assert not _unreached(spans, tracer)


def test_traced_cli_session_reaches_every_declared_per_layer_metric(tmp_path, monkeypatch,
                                                                    capsys):
    spans, workloads = _load("spans"), _load("workloads")
    pins = workloads.load_pins()["cli"]["5"]
    workloads.prepare_workdir(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FORCING_LAB_CAP", raising=False)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for unit in workloads.cli_commands(5):
            for command in unit:
                code = cli.main(list(command.argv))
                problems = workloads.check_command(code, capsys.readouterr().out,
                                                   pins[command.key])
                assert not problems, (command.key, problems)
    finally:
        tracer.uninstall()
    assert not _unreached(spans, tracer)


def test_corpus_pass_asks_is_cyclic_at_most_twice_per_group(monkeypatch):
    """p_group_profile and build_forcing_sequence ask once each; the
    quaternion detector reads the largest element order itself."""
    workloads = _load("workloads")
    pins = workloads.load_pins()
    fl = SimpleNamespace(certio=certio, classify=classify, errors=errors,
                         exponents=exponents, forcing=forcing, groupspec=groupspec)
    original, calls = classify.is_cyclic, []

    def counting(G):
        calls.append(G.order)
        return original(G)

    monkeypatch.setattr(classify, "is_cyclic", counting)
    monkeypatch.setattr(forcing, "is_cyclic", counting)
    for spec in workloads.workload_specs(pins, "corpus-256"):
        calls.clear()
        workloads.run_group(fl, spec, 3)
        assert 1 <= len(calls) <= 2, (spec, len(calls))
