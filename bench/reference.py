"""The machine-speed reference that the end-to-end timings are scaled by.

On a shared virtual machine the speed of the same code changes from one
second to the next, by up to 40% over a few minutes, so two runs of one
commit can differ by more than a regression bound. The worker therefore
times short rounds of a fixed piece of work between operations: after each
operation, rounds that take ``SHARE`` of that operation's time, and at least
one. Sampled that way, the rounds see the machine at the speed the pass ran
at. The rounds' own time is not counted in the pass.

The rounds react to the machine's slow spells about twice as strongly as the
program does: on the machine the benchmark was built on, when the rounds ran
30% slower, corpus passes ran about 15% slower. So ``run.py`` scales a pass
and its operations by the square root (``SENSITIVITY``) of the rounds'
nominal time (``ROUND_S`` each) over their measured time; README.md gives
the spreads that this and the alternatives left. A scaled timing is in
seconds at the speed at which one round takes ``ROUND_S``; the raw wall
times are reported beside it.

The rounds use nothing from ``forcing_lab``, so no change to the program
changes the work they do. They run with the garbage collector off, so that
the program's heap does not change their time. Each is a pure-Python dict
loop and a numpy gather, the two kinds of work the program spends its time
in.
"""

from __future__ import annotations

import gc
import time
from typing import Any

# Nominal time of one round: its typical time on the 2-vCPU x86_64 virtual
# machine the benchmark was built on. It only sets the scale.
ROUND_S = 0.0013
SENSITIVITY = 0.5
SHARE = 0.05
SETUP_SAMPLE_S = 0.03     # sampled right after set-up, to scale set-up time


def _round(table: Any) -> int:
    counts: dict[int, int] = {}
    total = 0
    for i in range(4_000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + i
        total += key & 3
    x = table
    for _ in range(2):
        x = x[table[:, 0]][:, table[0]]
    return total + int(x[0, 0])


class Sampler:
    """Rounds of the reference work and their total time since ``take``."""

    def __init__(self) -> None:
        import numpy as np  # here, so that set-up does not pay for it

        self.table = np.arange(256 * 256, dtype=np.int32).reshape(256, 256) % 256
        self.seconds = 0.0
        self.rounds = 0

    def sample(self, seconds: float) -> None:
        """Run rounds until they took ``seconds``; at least one."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            spent = 0.0
            while True:
                t0 = time.perf_counter()
                _round(self.table)
                spent += time.perf_counter() - t0
                self.rounds += 1
                if spent >= seconds:
                    break
        finally:
            if was_enabled:
                gc.enable()
        self.seconds += spent

    def take(self) -> list[float]:
        """[seconds, rounds] since the last call."""
        taken = [self.seconds, self.rounds]
        self.seconds, self.rounds = 0.0, 0
        return taken


def scale(taken: list[float]) -> float:
    """The factor a timing is multiplied by, from ``Sampler.take()``."""
    seconds, rounds = taken
    return (ROUND_S * rounds / seconds) ** SENSITIVITY
