"""Reference-speed probe: rescales timings to a fixed host speed.

On a shared host each vCPU runs fast or up to about 2x slower, for seconds
to minutes at a time.  A run cannot average that away, so untraced runs start
a probe: a second process that repeats one fixed unit of benchmark-owned code
(`unit`, about 2 ms) and stamps the end of each.  The timed thread and the
probe swap CPUs every 10 ms, in step with the monotonic clock, so over any
interval both see the same mix of vCPUs.  An interval's scaled duration is
its raw duration times the probe's units per second around it, times
UNIT_S: the time it would have taken at the speed where one unit takes
UNIT_S.  The probe runs no segscan code, so a change to segscan moves the
scaled times as much as the raw ones.

    python3 perfbench/speedprobe.py OUT.npy    # stamps until stdin closes
"""

from __future__ import annotations

import contextlib
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

UNIT_S = 0.002
HOP_S = 0.01
MIN_WINDOW_S = 1.0
STOP_TIMEOUT_S = 30

_rng = np.random.default_rng(12345)
_ROWS = [",".join(repr(float(x)) for x in row) for row in _rng.normal(size=(300, 3))]
_CUMSUM = np.cumsum(_rng.normal(size=(400, 2)), axis=0)


def unit() -> float:
    """A fixed mix of what segscan spends time on: float parsing, small numpy ops, dicts."""
    acc = 0.0
    for line in _ROWS:
        acc += sum(float(cell) for cell in line.split(","))
    for end in range(1, 400, 2):
        seg = _CUMSUM[end] - _CUMSUM[end // 2]
        acc += float(seg @ seg) / (end - end // 2)
    table = {}
    for i in range(2000):
        table[(i, i % 7)] = i * 0.5
    return acc + sum(table.values())


@contextlib.contextmanager
def alternating_cpus(phase: int):
    """Move the calling thread to allowed CPU (k + phase) in the k-th HOP_S tick of the clock.

    Each timing then averages the vCPUs instead of drawing one, and threads
    with different phases stay on different CPUs.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        yield
        return
    tid = threading.get_native_id()
    stop = threading.Event()

    def hop():
        while True:
            now = time.perf_counter()
            tick = math.floor(now / HOP_S) + 1
            if stop.wait(tick * HOP_S - now):
                return
            os.sched_setaffinity(tid, {cpus[(tick + phase) % len(cpus)]})

    hopper = threading.Thread(target=hop, daemon=True)
    hopper.start()
    try:
        yield
    finally:
        stop.set()
        hopper.join()
        os.sched_setaffinity(tid, cpus)


class Probe:
    """Runs the probe process for the duration of a ``with`` block, then loads its stamps.

    Start it while the calling thread may use every allowed CPU: the probe
    inherits the caller's affinity.
    """

    def __init__(self, out: Path):
        self.out = out
        self.proc = None
        self.stamps = np.empty(0)

    def __enter__(self) -> "Probe":
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.out)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        if self.proc.stdout.readline() != b"ready\n":
            self._kill()
            raise RuntimeError("speed probe did not start")
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._kill()
            raise
        finally:
            self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"speed probe exited {code}")
        self.stamps = np.load(self.out)

    def _kill(self) -> None:
        self.proc.kill()
        self.proc.wait()

    def scaled(self, start: float, end: float) -> float:
        """Duration of [start, end) at reference speed.

        The probe's rate is taken over the interval widened to MIN_WINDOW_S
        around its middle, and kept inside the probe's own span.
        """
        stamps = self.stamps
        width = min(max(end - start, MIN_WINDOW_S), stamps[-1] - stamps[0])
        lo = min(max((start + end - width) / 2, stamps[0]), stamps[-1] - width)
        # units finished in the window, counting the units cut by its edges in part
        done = np.interp([lo, lo + width], stamps, np.arange(len(stamps)))
        return (end - start) * (done[1] - done[0]) / width * UNIT_S

    def unit_ms(self) -> float:
        """Median time of one probe unit over the whole run."""
        return float(np.median(np.diff(self.stamps))) * 1e3


def _serve(out: str) -> None:
    done = threading.Event()

    def wait_for_eof():
        sys.stdin.buffer.read()
        done.set()

    threading.Thread(target=wait_for_eof, daemon=True).start()
    stamps = [time.perf_counter()]
    with alternating_cpus(phase=1):
        sys.stdout.buffer.write(b"ready\n")
        sys.stdout.buffer.flush()
        while not done.is_set():
            unit()
            stamps.append(time.perf_counter())
    np.save(out, np.asarray(stamps))


if __name__ == "__main__":
    _serve(sys.argv[1])
