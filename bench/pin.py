"""Regenerate ``pins.json``: the program's outputs for every input a seed can
produce, taken from the commit the benchmark runs on.

    python3 bench/pin.py

Run it only at a commit whose outputs are known to be right. The file holds
the corpus specs, each group's certificate digest and exact delta (or its
refusal) at every ell in ``ELLS``, and each CLI command's exit code and
``--no-header`` stdout at every ell. Pinning refuses to write when a built
certificate fails verification or its trace does not replay.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads as wl
from worker import import_package


def pin_groups(fl, specs: list[str]) -> dict[str, dict]:
    pins: dict[str, dict] = {}
    for spec in specs:
        entry: dict = {}
        for ell in wl.ELLS:
            outcome = wl.run_group(fl, spec, ell)
            if "refused" in outcome:
                entry = {"refused": outcome["refused"]}
                break
            if not outcome["verified"] or outcome["replayed"] != outcome["delta"]:
                raise SystemExit(f"{spec} at ell={ell} does not verify; not pinning")
            entry[str(ell)] = wl.group_outputs(outcome)
        pins[spec] = entry
    return pins


def pin_cli() -> dict[str, dict]:
    pins: dict[str, dict] = {}
    env = wl.cli_env()
    for ell in wl.ELLS:
        with tempfile.TemporaryDirectory(dir=wl.BENCH_DIR) as tmp:
            workdir = Path(tmp)
            wl.prepare_workdir(workdir)
            entry = {}
            for unit in wl.cli_commands(ell):
                for command in unit:
                    proc = subprocess.run([sys.executable, "-m", "forcing_lab", *command.argv],
                                          cwd=workdir, env=env, capture_output=True, text=True,
                                          timeout=300)
                    entry[command.key] = {"exit": proc.returncode, "stdout": proc.stdout}
        pins[str(ell)] = entry
    return pins


def main() -> int:
    fl = import_package()
    from forcing_lab.catalog import p_group_specs
    import numpy

    corpus = [list(pair) for pair in p_group_specs(256)]
    specs = [spec for _, spec in corpus] + list(wl.LADDER_SPECS)
    pins = {
        "made_with": {"python": platform.python_version(), "numpy": numpy.__version__},
        "corpus_specs": corpus,
        "groups": pin_groups(fl, specs),
        "cli": pin_cli(),
    }
    wl.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    refused = sum(1 for _, spec in corpus if "refused" in pins["groups"][spec])
    print(f"pinned {len(corpus)} corpus groups ({refused} refused), "
          f"{len(wl.LADDER_SPECS)} ladder groups, {len(pins['cli'])} CLI sessions "
          f"to {wl.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
