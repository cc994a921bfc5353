"""forcing-lab benchmark: one command for every workload and metric.

    python3 bench/run.py --workload corpus-256 --seed 1 --seconds 30 --trace 0

Workloads (see README.md): ``corpus-256``, ``ladder-large``, ``cli-session``;
``BENCHMARK.json`` gates the first and the last. It also names the metrics
and their units.
With ``--trace 0`` it measures the end-to-end metrics: it starts the workload
several times only to time set-up, then once more to run it, each time in a
fresh interpreter. With ``--trace 1`` the worker runs half the time untraced
and half with the span recorder installed, and reports per-layer metrics and
the recorder's overhead. Every operation's output is checked against
``pins.json``. End-to-end timings are scaled to the machine-speed reference
of ``reference.py``; the report prints the raw wall times beside them.

Output: a readable report (metrics by name, unit and sample count, plus an
environment stamp), then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result, with
every sample, goes to ``results/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

import workloads as wl
from reference import scale
from worker import all_ops

WORKER = wl.BENCH_DIR / "worker.py"

SETUP_LAUNCHES = 15       # set-up samples per run, the measuring launch included
RUN_DEADLINE_S = 170      # the whole command must end within 180 s

# Per-layer metrics that some workloads never reach, so they are not in
# BENCHMARK.json, whose per-layer metrics every traced run must report. They
# are printed and written to the result file where they are reached.
REPORTED_ONLY = {
    "forcing.refused": "count",
    "classify.sylow_decomposition.total_s": "s",
    "exponents.delta_for_nilpotent.total_s": "s",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares."""
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or 'unknown' outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args: argparse.Namespace) -> dict[str, Any]:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(wl.ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "loop": "closed, concurrency 1",
        "utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def launch(extra: list[str], deadline: float) -> tuple[float, dict[str, Any]]:
    """Start a worker; return its set-up time and its output."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before a worker could start")
    t_launch = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *extra], cwd=wl.ROOT,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {remaining:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["ready"] - t_launch, out


def tail(times: list[float], q: float) -> float:
    """Percentile ``q`` of ``times``, interpolated as ``statistics.median``
    does; it must have at least ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if wl.samples_beyond(n, q) < 10:
        raise BenchError(f"{n} samples leave fewer than ten beyond p{q:g}")
    pos = (n - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(launches: list[tuple[float, dict[str, Any]]], workload: str) -> dict[str, Any]:
    """The end-to-end metrics from the set-up launches and the measuring
    launch, which is last. Timings are scaled to the reference speed: a
    launch's set-up by the rounds sampled right after it, a pass and its
    operations by the rounds sampled between its operations."""
    out = launches[-1][1]
    passes = out["passes"]
    factors = [scale(p["ref"]) for p in passes]
    pass_s = [p["s"] * f for p, f in zip(passes, factors)]
    times = [op["s"] * f for p, f in zip(passes, factors) for op in p["ops"]]
    raw_times = [op["s"] for op in all_ops(passes)]
    per_pass = len(passes[0]["ops"])
    q = wl.TAIL_PERCENTILE[workload]
    rss_kb = out["children_maxrss_kb"] if workload == "cli-session" else out["maxrss_kb"]
    raw = "raw wall time"
    return {
        "setup_s": (statistics.median(s * scale(o["setup_ref"]) for s, o in launches),
                    f"n={len(launches)} launches; {raw} "
                    f"{statistics.median(s for s, _ in launches):.4g}"),
        "ops_per_s": (per_pass / statistics.median(pass_s),
                      f"one pass over its median time, n={len(passes)} passes; {raw} "
                      f"{per_pass / statistics.median(p['s'] for p in passes):.4g}"),
        "op_s.p50": (statistics.median(times),
                     f"n={len(times)} ops; {raw} {statistics.median(raw_times):.4g}"),
        "op_s.tail": (tail(times, q),
                      f"p{q:g}, n={len(times)} ops; {raw} {tail(raw_times, q):.4g}"),
        "peak_rss_mb": (rss_kb / 1024, "max over CLI children" if workload == "cli-session"
                        else "worker process"),
    }


def per_command(passes: list[dict[str, Any]]) -> dict[str, float]:
    by_key: dict[str, list[float]] = defaultdict(list)
    for op in all_ops(passes):
        by_key[op["key"]].append(op["s"])
    return {f"cli.{key}.wall_s": statistics.median(v) for key, v in sorted(by_key.items())}


def per_layer(out: dict[str, Any]) -> dict[str, tuple[float, str]]:
    traced = out["traced_passes"]
    names = sorted({name for p in traced for name in p["layers"]})
    n = f"median of n={len(traced)} traced passes"
    layers = {name: (statistics.median(p["layers"].get(name, 0.0) for p in traced), n)
              for name in names if not name.endswith(".peak_mb")}
    for name, value in out["memory_pass"]["layers"].items():
        if name.endswith(".peak_mb"):
            layers[name] = (value, "max over calls in one pass with tracemalloc")
    untraced_s = statistics.median(p["s"] for p in out["passes"])
    traced_s = statistics.median(p["s"] for p in traced)
    layers["trace.overhead"] = (traced_s / untraced_s - 1,
                                f"traced {traced_s:.4g} s vs untraced {untraced_s:.4g} s per pass")
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="forcing-lab benchmark")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (wl.SRC / "forcing_lab" / "__init__.py").is_file():
        print(f"error: no forcing_lab package under {wl.SRC}", file=sys.stderr)
        return 2
    if not wl.PINS_PATH.is_file():
        print(f"error: pinned outputs {wl.PINS_PATH} are missing", file=sys.stderr)
        return 2
    wl.RESULTS_DIR.mkdir(exist_ok=True)
    env = environment(args)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    launches: list[tuple[float, dict[str, Any]]] = []
    try:
        if args.trace:
            spans_path = wl.RESULTS_DIR / f"{stem}.spans.jsonl"
            _, out = launch(common + ["--spans-out", str(spans_path)], deadline)
            metrics = per_layer(out)
        else:
            # The first launch compiles and caches; it is not a sample.
            launch(common + ["--setup-only"], deadline)
            launches = [launch(common + ["--setup-only"], deadline)
                        for _ in range(SETUP_LAUNCHES - 1)]
            launches.append(launch(common, deadline))
            out = launches[-1][1]
            metrics = end_to_end(launches, args.workload)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = all_ops(out["passes"] + out.get("traced_passes", [])
                  + [out[k] for k in ("warmup_pass", "memory_pass") if k in out])
    failed = [op for op in ops if op["problems"]]
    kinds: dict[str, int] = defaultdict(int)
    for op in ops:
        kinds[op["kind"]] += 1
    commands = per_command(out["passes"]) if args.workload == "cli-session" else {}
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    report = {name: metrics[name] for name in declared if name in metrics}

    print(f"forcing-lab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()
                             if k not in ("workload", "seed", "seconds")))
    print(f"load: closed loop, concurrency 1, {len(out['passes'])} passes"
          + (f" untraced, {len(out['traced_passes'])} traced, a warm-up and a tracemalloc pass"
             if args.trace else "")
          + ", " + ", ".join(f"{n} {k}" for k, n in sorted(kinds.items())))
    for name, unit in declared.items():
        if name in report:
            value, note = report[name]
            print(f"  {name:<58} {value:>14.6g} {unit:<6} ({note})")
        else:
            print(f"  {name:<58} {'-':>14} {unit:<6} (not reached, left out of the JSON line)")
    print(f"  {'failed_frac':<58} {len(failed) / len(ops):>14.6g} {'ratio':<6} "
          f"({len(failed)} of {len(ops)} ops)")
    if args.trace:
        for name, unit in REPORTED_ONLY.items():
            if name in metrics:
                print(f"  {name:<58} {metrics[name][0]:>14.6g} {unit:<6} "
                      "(not reached on every workload)")
    for name, value in commands.items():
        print(f"  {name:<58} {value:>14.6g} s      (median, untraced)")
    for op in failed[:10]:
        print(f"  FAILED {op['key']} ell={op['ell']}: {'; '.join(op['problems'])}")

    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, (value, _) in report.items()},
    }
    (wl.RESULTS_DIR / f"{stem}.json").write_text(json.dumps({
        "env": env, "result": result,
        "all_metrics": {name: value for name, (value, _) in metrics.items()},
        "cli_commands": commands, "worker": out,
        "setup_launches": [[setup, o.get("setup_ref")] for setup, o in launches],
    }, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
