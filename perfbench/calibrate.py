"""Host-speed calibration: a fixed pure-Python loop timed next to every operation.

The machines this benchmark runs on are shared: their single-thread speed
drifts by up to 2x over minutes, and the pass-to-pass spread of raw times
follows it.  `spin()` times a fixed loop of interpreter work (dict updates
and integer arithmetic, no allocation that grows, no numpy), and each raw
time is scaled by `SPIN_REF_S / spin time` measured around it (`Laps`).  The scaled
time reads as seconds on a host where `spin()` takes `SPIN_REF_S`, which is
about its time on the 2-core Intel Xeon VM the benchmark was sized on.  A
change to the program moves the scaled time; a change of host speed moves
the operation and the spin alike and cancels.

The loop uses only built-ins, so it runs before `import heilbronn` as well
as after, and nothing in the program can change it.  Raw times are reported
next to the scaled ones.
"""

from __future__ import annotations

import time

SPIN_STEPS = 200_000
SPIN_REF_S = 0.0375


def spin() -> tuple[float, float]:
    """Run the fixed loop once; return (wall seconds, CPU seconds of this thread)."""
    w0, c0 = time.monotonic(), time.thread_time()
    table: dict[int, int] = {}
    acc = 0
    for i in range(SPIN_STEPS):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc += i * i % 7
    return time.monotonic() - w0, time.thread_time() - c0


WINDOW = 3


class Laps:
    """Consecutive timed segments with a spin between every two.

    `lap()` ends the current segment, spins, and starts the next one, so the
    spins are in no segment.  The first segment starts at `start` (a
    `time.monotonic()` reading); `spin_before` is a spin taken just before
    it, if there was one.  `scaled()` gives each segment in seconds at the
    reference speed, using the mean of the `WINDOW` spins before it and the
    `WINDOW` spins after it (fewer at the ends): one spin is noisy, and the
    host's speed drifts over seconds to minutes, not between neighbours.
    """

    def __init__(self, start: float, spin_before: float | None = None):
        self.raw: list[float] = []
        self.spins: list[tuple[float, float]] = []
        self._walls = [] if spin_before is None else [spin_before]
        self._start = start

    def lap(self) -> None:
        end = time.monotonic()
        wall, cpu = spin()
        self.raw.append(end - self._start)
        self.spins.append((wall, cpu))
        self._walls.append(wall)
        self._start = time.monotonic()

    def scaled(self) -> list[float]:
        offset = len(self._walls) - len(self.raw)  # 1 with a spin before the first
        out = []
        for i, raw in enumerate(self.raw):
            after = i + offset  # the spin that ends segment i
            near = self._walls[max(0, after - WINDOW):after + WINDOW]
            out.append(raw * SPIN_REF_S / (sum(near) / len(near)))
        return out
