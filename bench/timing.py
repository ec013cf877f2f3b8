"""Wall-clock timing that corrects for how fast the shared core runs right now.

On a small shared machine the same code runs up to twice as slowly for
seconds at a time while neighbours load the core; thread CPU time slows
down with it, so it is no escape. A fixed numpy kernel, timed between
requests, slows down by the same factor. Each request's wall time is
scaled by ``NOMINAL_S / kernel time`` around it, which expresses it in
milliseconds of an undisturbed core: the ratio of request to kernel time
repeats to a few percent where raw wall time varies by 2x. Set-up times
of fresh interpreters are scaled the same way by the start-up of an
interpreter that only imports numpy. Raw figures are reported beside the
scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# kernel time on an undisturbed core of the 2-vCPU Xeon (2.1 GHz) used
# to define the benchmark; only the scale of the reported times depends
# on it, not their ratios between two commits
NOMINAL_S = 0.4e-3
# start-up time of an interpreter that only imports numpy
# (``python3 -c "import numpy"``) on the same machine. Start-up of a fresh
# process drifts by a third between spells of minutes, mostly in loading
# numpy's libraries, and follows neither the kernel above nor a bare
# interpreter's start-up (which followed about a quarter of it). Set-up times
# are scaled by this over the numpy start-up timed next to them: over seven
# minutes the medians of 40 samples then stayed within 2.2% where the raw
# ones moved by 26%, against 4.9% when scaled by a bare interpreter.
NOMINAL_NUMPY_START_S = 0.11


class SpeedProbe:
    """A fixed kernel of small numpy calls, the kind the package makes."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._mats = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                      for _ in range(3)]

    def _kernel(self) -> float:
        acc = 0.0
        for a in self._mats:
            k = np.kron(a, a)
            s = np.linalg.svd(k, compute_uv=False)
            e = np.linalg.eigvalsh(a + a.conj().T)
            acc += float(s[0]) + float(e[0]) + abs(np.trace(a @ a))
            kept = []
            for _ in range(4):
                h = np.asarray(a, dtype=complex)
                kept.append((h + h.conj().T) / 2.0)
                acc += float(np.linalg.eigvalsh(kept[-1]).min())
        return acc

    def measure(self) -> float:
        """Seconds the kernel takes now: the median of three back-to-back
        runs, as the first run after a request finds its caches cold."""
        took = []
        for _ in range(3):
            t0 = time.perf_counter()
            self._kernel()
            took.append(time.perf_counter() - t0)
        return sorted(took)[1]


class ScaledClock:
    """Times requests in blocks, probing the core speed between blocks.

    ``time(fn, *args)`` runs one request and returns its result. A block
    closes after ``BLOCK_S`` seconds of requests. The speed of a block is
    the median probe time within ``WINDOW_S`` of it, which damps the noise
    of single probes while following slow spells that last seconds.
    """

    BLOCK_S = 0.05
    WINDOW_S = 0.1

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.raw: list[float] = []
        self._block_of: list[int] = []
        self._blocks: list[tuple[float, float]] = []
        self._probes: list[tuple[float, float]] = []
        self._open = 0.0
        self._start = 0.0
        self._probe()

    def _probe(self):
        self._probes.append((time.perf_counter(), self.probe.measure()))

    def time(self, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        if self._open == 0.0:
            self._start = t0
        self.raw.append(dt)
        self._block_of.append(len(self._blocks))
        self._open += dt
        if self._open >= self.BLOCK_S:
            self.flush()
        return out

    def flush(self):
        if self._open == 0.0:
            return
        self._blocks.append((self._start, time.perf_counter()))
        self._open = 0.0
        self._probe()

    @property
    def scale(self) -> np.ndarray:
        """Per-request factor NOMINAL_S / probe time."""
        self.flush()
        at = np.array([t for t, _ in self._probes])
        took = np.array([p for _, p in self._probes])
        factors = []
        for start, end in self._blocks:
            near = (at >= start - self.WINDOW_S) & (at <= end + self.WINDOW_S)
            factors.append(NOMINAL_S / float(np.median(took[near])))
        return np.asarray(factors)[self._block_of]

    def scaled(self) -> np.ndarray:
        return np.asarray(self.raw) * self.scale
