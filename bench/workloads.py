"""The benchmark's workloads: seeded inputs, the operations, and their checks.

Inputs come from the seed alone: it fixes the order in which the groups (or
the CLI commands) are sent and the ``ell`` drawn from ``ELLS`` for each one.
The specs themselves are read from ``pins.json``, which also holds every
output the program gave for them when the pins were made, so the benchmark
does not depend on the program to tell it what its inputs are.

This module imports nothing from ``forcing_lab`` at load time; the group
pipeline receives the package modules as an argument, so the tracer can
patch them before any call is made.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS_PATH = BENCH_DIR / "pins.json"
RESULTS_DIR = BENCH_DIR / "results"

WORKLOADS = ("corpus-256", "ladder-large", "cli-session")
ELLS = (3, 5, 7)

# op_s.tail is this fixed percentile of one workload's operation times, so it
# does not change with the number of passes that fit in a run. Each is the
# highest percentile that a run of a few passes can hold with ten samples
# beyond it; a run keeps going until it has that many (``min_ops``).
TAIL_PERCENTILE = {"corpus-256": 95.0, "ladder-large": 50.0, "cli-session": 50.0}

# Fixed base exponent for every p = 2 group: the built-in base formula only
# covers odd p, so without an override no 2-group would get a delta.
P2_BASE_OVERRIDE = "1/100"
OVERRIDE_FILE = "override.json"
CERT_FILE = "d1024.fcert.json"

LADDER_SPECS = (
    "preset:Abelian(16,16,2)",
    "preset:Dihedral(1024)",
    "preset:Heisenberg(11)",
    "preset:ElemAbelian(2,11)",
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a session; ``key`` names it in pins and metrics."""

    key: str
    argv: tuple[str, ...]


def cli_commands(ell: int) -> tuple[tuple[Command, ...], ...]:
    """The session's commands, grouped into units whose order is shuffled.

    ``verify`` reads the file ``forcing-seq`` writes, so the two stay one
    unit, in that order.
    """
    n = str(ell)
    return (
        (Command("analyze", ("analyze", "preset:Heisenberg(11)", "--no-header")),),
        (Command("forcing-seq", ("forcing-seq", "preset:Dihedral(1024)", "--ell", n,
                                 "--base-override", OVERRIDE_FILE, "--out", CERT_FILE,
                                 "--no-header")),
         Command("verify", ("verify", CERT_FILE, "--no-header"))),
        (Command("delta-product", ("delta", "product:preset:Heisenberg(5)|preset:ElemAbelian(3,2)",
                                   "--ell", n, "--no-header")),),
        (Command("delta", ("delta", "preset:Heisenberg(3)", "--ell", n, "--no-header")),),
        (Command("catalog", ("catalog", "--no-header")),),
        (Command("paper-checks", ("paper-checks", "--no-header")),),
        (Command("forcing-seq-refused", ("forcing-seq", "preset:GenQuaternion(2)",
                                         "--out", "q16.fcert.json", "--no-header")),),
    )


def samples_beyond(n: int, q: float) -> int:
    """Samples above the interpolation point of percentile ``q`` of ``n``."""
    return n - 1 - math.floor((n - 1) * q / 100)


def min_ops(workload: str) -> int:
    """The fewest operations whose op_s.tail has ten samples beyond it."""
    n = 1
    while samples_beyond(n, TAIL_PERCENTILE[workload]) < 10:
        n += 1
    return n


def _rng(seed: int, pass_index: int) -> random.Random:
    # A str seed is hashed with sha512, so it does not depend on PYTHONHASHSEED.
    return random.Random(f"forcing-lab-bench:{seed}:{pass_index}")


def group_schedule(specs: list[str], seed: int, pass_index: int) -> list[tuple[str, int]]:
    """One pass: every spec once, in seeded order, each with a seeded ell."""
    rng = _rng(seed, pass_index)
    order = list(specs)
    rng.shuffle(order)
    return [(spec, rng.choice(ELLS)) for spec in order]


def cli_schedule(seed: int, pass_index: int) -> tuple[int, list[Command]]:
    """One session: a seeded ell shared by its commands, and their order."""
    rng = _rng(seed, pass_index)
    ell = rng.choice(ELLS)
    units = list(cli_commands(ell))
    rng.shuffle(units)
    return ell, [command for unit in units for command in unit]


def load_pins(path: Path = PINS_PATH) -> dict[str, Any]:
    return json.loads(path.read_text())


def workload_specs(pins: dict[str, Any], workload: str) -> list[str]:
    if workload == "corpus-256":
        return [spec for _, spec in pins["corpus_specs"]]
    if workload == "ladder-large":
        return list(LADDER_SPECS)
    raise ValueError(f"{workload} has no group specs")


def run_group(fl: Any, spec: str, ell: int) -> dict[str, Any]:
    """Take one group through the whole pipeline; ``fl`` holds the modules.

    Functions are looked up on the modules at call time, so a patched
    (traced) module is used when one is installed.
    """
    G = fl.groupspec.parse_group_spec(spec)
    profile = fl.classify.p_group_profile(G)
    try:
        cert = fl.forcing.build_forcing_sequence(G)
    except (fl.errors.CyclicGroup, fl.errors.QuaternionGroup) as exc:
        return {"refused": type(exc).__name__}
    report = fl.forcing.verify_certificate(G, cert)
    override = Fraction(P2_BASE_OVERRIDE) if profile.p == 2 else None
    delta = fl.exponents.delta_for_p_group(profile, cert, ell, base_override=override)
    data = fl.certio.emit(fl.certio.CertificateDocument(certificate=cert, delta_report=delta))
    back = fl.certio.parse(data)
    replayed = fl.exponents.replay_trace(back.delta_report)
    return {
        "verified": report.all_passed,
        "data": data,
        "delta": f"{delta.delta.numerator}/{delta.delta.denominator}",
        "replayed": f"{replayed.numerator}/{replayed.denominator}",
    }


def group_outputs(outcome: dict[str, Any]) -> dict[str, Any]:
    """The outputs pinned for a group at one ell."""
    if "refused" in outcome:
        return {"refused": outcome["refused"]}
    return {"digest": json.loads(outcome["data"])["digest"], "delta": outcome["delta"]}


def check_group(outcome: dict[str, Any], pin: dict[str, Any], ell: int) -> list[str]:
    """Every way the outcome differs from what was pinned; empty when correct."""
    if "refused" in pin:
        if outcome.get("refused") != pin["refused"]:
            return [f"expected refusal {pin['refused']}, got {outcome.get('refused', 'a certificate')}"]
        return []
    if "refused" in outcome:
        return [f"unexpected refusal {outcome['refused']}"]
    expected = pin[str(ell)]
    got = group_outputs(outcome)
    problems = []
    if not outcome["verified"]:
        problems.append("verification FAIL")
    if got["digest"] != expected["digest"]:
        problems.append(f"digest {got['digest'][:16]} != pinned {expected['digest'][:16]}")
    if got["delta"] != expected["delta"]:
        problems.append(f"delta {got['delta']} != pinned {expected['delta']}")
    if outcome["replayed"] != expected["delta"]:
        problems.append(f"replayed delta {outcome['replayed']} != pinned {expected['delta']}")
    return problems


def check_command(exit_code: int, stdout: str, pin: dict[str, Any]) -> list[str]:
    problems = []
    if exit_code != pin["exit"]:
        problems.append(f"exit {exit_code} != pinned {pin['exit']}")
    if stdout != pin["stdout"]:
        problems.append("stdout differs from pinned")
    return problems


def cli_env() -> dict[str, str]:
    """Environment for CLI commands: the package from ``src``, default cap."""
    env = dict(os.environ)
    env.pop("FORCING_LAB_CAP", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def prepare_workdir(path: Path) -> None:
    """Create the directory CLI commands run in, with the p = 2 override file."""
    path.mkdir(parents=True, exist_ok=True)
    (path / OVERRIDE_FILE).write_text(json.dumps({"2": P2_BASE_OVERRIDE}) + "\n")
