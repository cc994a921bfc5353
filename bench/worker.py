"""One workload in one fresh interpreter; started by ``run.py``.

The worker does its set-up (imports, inputs, pinned outputs), notes the
moment it is ready to send the first operation, then runs whole passes as a
closed loop: one caller, each operation sent when the previous one has
finished. Right after set-up, and between the operations of an untraced
run, it times rounds of the machine-speed reference (``reference.py``). It
prints one JSON object of raw samples; ``run.py`` turns them into metrics.

    python3 bench/worker.py --workload W --seed N --seconds S [--trace 0|1]
                            [--setup-only] [--spans-out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import reference
import spans
import workloads as wl

CLI_TIMEOUT_S = 120


def import_package() -> SimpleNamespace:
    sys.path.insert(0, str(wl.SRC))
    from forcing_lab import certio, classify, errors, exponents, forcing, groupspec

    return SimpleNamespace(certio=certio, classify=classify, errors=errors,
                           exponents=exponents, forcing=forcing, groupspec=groupspec)


class GroupRunner:
    """corpus-256 and ladder-large: groups through the in-process pipeline."""

    def __init__(self, workload: str, seed: int, pins: dict[str, Any]) -> None:
        self.fl = import_package()
        self.seed = seed
        self.specs = wl.workload_specs(pins, workload)
        self.pins = pins["groups"]
        self.schedule = {0: wl.group_schedule(self.specs, seed, 0)}
        self.sampler: reference.Sampler | None = None
        self.tracer: spans.Tracer | None = None
        self.tracing = False

    def run_pass(self, index: int, op_base: int) -> dict[str, Any]:
        schedule = self.schedule.pop(index, None) or wl.group_schedule(self.specs, self.seed, index)
        tracer = self.tracer if self.tracing else None
        first_span = len(tracer.spans) if tracer else 0
        ops = []
        t_pass = time.perf_counter()
        for k, (spec, ell) in enumerate(schedule):
            if tracer:
                tracer.op = op_base + k
                sid = tracer.begin("op")
            t0 = time.perf_counter()
            try:
                outcome = wl.run_group(self.fl, spec, ell)
            except Exception as exc:  # an unexpected exception is a failed op
                outcome = {"error": f"{type(exc).__name__}: {exc}"}
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.end(sid)
            if self.sampler:
                self.sampler.sample(reference.SHARE * elapsed)
            if "error" in outcome:
                problems = [outcome["error"]]
            else:
                problems = wl.check_group(outcome, self.pins[spec], ell)
            ops.append({"key": spec, "ell": ell, "s": elapsed, "problems": problems,
                        "kind": "refused" if "refused" in outcome else "certified"})
        record = pass_record(time.perf_counter() - t_pass, ops, self.sampler)
        if tracer:
            record["layers"] = tracer.take_pass(first_span)
            if tracer.memory:
                del tracer.spans[first_span:]  # their times carry tracemalloc's cost
        return record

    def set_tracing(self, on: bool, memory: bool = False) -> None:
        if self.tracer is None:
            self.tracer = spans.Tracer()
        if on:
            self.tracer.install()
        else:
            self.tracer.uninstall()
        self.tracer.memory = memory
        self.tracing = on

    def finish(self, spans_path: Path | None) -> None:
        if self.tracer:
            self.set_tracing(False)
            if spans_path:
                spans.write_spans(spans_path, self.tracer.spans)


class CliRunner:
    """cli-session: one user's shell session, each command a fresh interpreter."""

    def __init__(self, workload: str, seed: int, pins: dict[str, Any]) -> None:
        self.seed = seed
        self.pins = pins["cli"]
        self.workdir = wl.RESULTS_DIR / f"work-{os.getpid()}"
        wl.prepare_workdir(self.workdir)
        self.env = wl.cli_env()
        self.schedule = {0: wl.cli_schedule(seed, 0)}
        self.sampler: reference.Sampler | None = None
        self.spans: list[list[Any]] = []
        self.tracing = False
        self.memory = False

    def run_pass(self, index: int, op_base: int) -> dict[str, Any]:
        ell, commands = self.schedule.pop(index, None) or wl.cli_schedule(self.seed, index)
        ops = []
        layers = []
        t_pass = time.perf_counter()
        for k, command in enumerate(commands):
            op = op_base + k
            child_out = self.workdir / f"spans-{op}.json"
            if not self.tracing:
                argv = [sys.executable, "-m", "forcing_lab", *command.argv]
            else:
                argv = [sys.executable, str(wl.BENCH_DIR / "cli_traced.py"),
                        "--out", str(child_out), "--op", str(op),
                        *(["--memory"] if self.memory else []), "--", *command.argv]
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(argv, cwd=self.workdir, env=self.env, capture_output=True,
                                      text=True, timeout=CLI_TIMEOUT_S)
                problems = wl.check_command(proc.returncode, proc.stdout,
                                            self.pins[str(ell)][command.key])
            except subprocess.TimeoutExpired:
                problems = [f"timed out after {CLI_TIMEOUT_S} s"]
            t1 = time.perf_counter()
            if self.sampler:
                self.sampler.sample(reference.SHARE * (t1 - t0))
            if self.tracing and child_out.exists():
                child = json.loads(child_out.read_text())
                child_out.unlink()
                if not self.memory:  # their times carry tracemalloc's cost
                    sid = len(self.spans)
                    self.spans.append([f"cli.{command.key}", t0, t1, None, op, False])
                    spans.adopt(self.spans, child["spans"], sid)
                layers.append(child["layers"])
            ops.append({"key": command.key, "ell": ell, "s": t1 - t0, "problems": problems,
                        "kind": "command"})
        record = pass_record(time.perf_counter() - t_pass, ops, self.sampler)
        if self.tracing:
            record["layers"] = spans.merge(layers)
        return record

    def set_tracing(self, on: bool, memory: bool = False) -> None:
        self.tracing = on
        self.memory = memory

    def finish(self, spans_path: Path | None) -> None:
        if self.spans and spans_path:
            spans.write_spans(spans_path, self.spans)
        shutil.rmtree(self.workdir, ignore_errors=True)


def pass_record(wall_s: float, ops: list[dict[str, Any]],
                sampler: reference.Sampler | None) -> dict[str, Any]:
    """A pass's time, its operations and, when sampled, the reference
    rounds run between them, whose time is not counted in the pass."""
    if sampler is None:
        return {"s": wall_s, "ops": ops}
    ref = sampler.take()
    return {"s": wall_s - ref[0], "ops": ops, "ref": ref}


def all_ops(passes: list[dict[str, Any]]) -> list[dict[str, Any]]:
    return [op for p in passes for op in p["ops"]]


def run_passes(runner: Any, seconds: float, min_ops: int) -> list[dict[str, Any]]:
    """Whole passes, sampling the reference between operations, until
    ``seconds`` have gone by and ``min_ops`` are done."""
    passes: list[dict[str, Any]] = []
    runner.sampler = reference.Sampler()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(all_ops(passes)) < min_ops:
        passes.append(runner.run_pass(len(passes), len(all_ops(passes))))
    return passes


def run_traced(runner: Any, seconds: float, out: dict[str, Any]) -> None:
    """A warm-up pass, then traced and untraced passes in turn until
    ``seconds`` have gone by, so drift and warm-up stay out of the overhead;
    last, one pass with tracemalloc, for the peaks only."""
    start = time.perf_counter()
    records: list[dict[str, Any]] = []

    def one_pass() -> dict[str, Any]:
        records.append(runner.run_pass(len(records), len(all_ops(records))))
        return records[-1]

    out["warmup_pass"] = one_pass()
    out["passes"], out["traced_passes"] = [], []
    while not out["passes"] or time.perf_counter() - start < seconds:
        runner.set_tracing(True)
        out["traced_passes"].append(one_pass())
        runner.set_tracing(False)
        out["passes"].append(one_pass())
    runner.set_tracing(True, memory=True)
    out["memory_pass"] = one_pass()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    pins = wl.load_pins()
    factory: Callable[..., Any] = CliRunner if args.workload == "cli-session" else GroupRunner
    runner = factory(args.workload, args.seed, pins)
    ready = time.monotonic()
    out: dict[str, Any] = {"ready": ready}
    if not args.trace:
        sampler = reference.Sampler()
        sampler.sample(reference.SETUP_SAMPLE_S)
        out["setup_ref"] = sampler.take()
    if args.setup_only:
        runner.finish(None)
        print(json.dumps(out))
        return 0

    if args.trace:
        run_traced(runner, args.seconds, out)
    else:
        out["passes"] = run_passes(runner, args.seconds, wl.min_ops(args.workload))
    runner.finish(Path(args.spans_out) if args.spans_out else None)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["children_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
