"""Host-speed probe: divides the shared host's speed out of a measured run.

The benchmark's host is a virtual machine whose cores another tenant shares.
Its speed switches, many times a second, between a fast state and one about
1.75 times slower, and the share of time spent slow drifts over minutes. A
whole run's wall time therefore varies by 10-20% with no change in the
program, and no window the benchmark can afford averages that out.

So a measured child interrupts itself every ``INTERVAL_S`` (SIGALRM, handled
in the main thread, hence on the same CPU as the program) and times a fixed
piece of numpy work that does not depend on the program: a trilinear gather
of ``PROBE_ROWS`` nearby points from a 64^3 lattice, the same kind of work
on the same size of lattice as the simulator's sampler. A probe's duration
tells how fast the host was at that moment. For an interval of the run,

    normalized seconds = (wall - probe time) * REFERENCE_S * mean(1 / probe)

is the time the interval would have taken had the host run throughout at the
reference speed, the speed at which one probe takes ``REFERENCE_S``. Since
the probe code never changes, a change to the program moves the normalized
time exactly as it moves the wall time at a steady host speed.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.02
PROBE_ROWS = 32
PROBE_CALLS = 10
REFERENCE_S = 0.8e-3
# An interval with fewer probes inside it uses the probes nearest to it.
LEAST_PROBES = 5

_N = 64  # lattice nodes per axis
_CORNERS = np.array([0, 1, _N, _N + 1, _N * _N, _N * _N + 1, _N * _N + _N, _N * _N + _N + 1])


class HostProbe:
    """Samples the host's speed while installed; ``samples`` holds (end, seconds)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._data = rng.standard_normal((_N ** 3, 3))
        self._points = rng.uniform(0.3, 0.5, size=(PROBE_ROWS, 3))
        self.samples: list = []
        self._previous = None

    def _sample(self, points: np.ndarray) -> np.ndarray:
        g = points * (_N - 3)
        cell = np.floor(g).astype(np.int64)
        frac = g - cell
        flat = (cell[:, 0] * _N + cell[:, 1]) * _N + cell[:, 2]
        c = self._data[flat[:, np.newaxis] + _CORNERS]
        fx, fy, fz = frac[:, 0, np.newaxis], frac[:, 1, np.newaxis], frac[:, 2, np.newaxis]
        c00 = (1.0 - fz) * c[:, 0] + fz * c[:, 1]
        c01 = (1.0 - fz) * c[:, 2] + fz * c[:, 3]
        c10 = (1.0 - fz) * c[:, 4] + fz * c[:, 5]
        c11 = (1.0 - fz) * c[:, 6] + fz * c[:, 7]
        return (1.0 - fx) * ((1.0 - fy) * c00 + fy * c01) + fx * ((1.0 - fy) * c10 + fy * c11)

    def _probe(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        for _ in range(PROBE_CALLS):
            self._sample(self._points)
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def __enter__(self):
        for _ in range(3):  # warm up outside the record
            self._probe()
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalize(self, start: float, end: float) -> float:
        """The seconds ``[start, end]`` would have taken at the reference speed."""
        inside = [(t, d) for t, d in self.samples if start <= t - d and t <= end]
        busy = sum(d for _, d in inside)
        used = inside
        if len(used) < LEAST_PROBES:
            middle = (start + end) / 2.0
            used = sorted(self.samples, key=lambda s: abs(s[0] - middle))[:LEAST_PROBES]
        if not used:
            raise RuntimeError("no host-speed probe was taken")
        speed = sum(1.0 / d for _, d in used) / len(used)
        return (end - start - busy) * REFERENCE_S * speed
