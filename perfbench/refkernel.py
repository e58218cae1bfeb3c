"""Fixed reference kernels that measure how fast the CPU runs right now.

On a few vCPUs of a shared host the same child process runs up to about
three times as slowly at some moments as at others, and the speed changes
within a second: wall and CPU time rise together, so the cause is the speed
of the CPU the child gets, not waiting.  `Sampler` runs one short pass of
this kernel on a timer signal all through the workload window, in the
child's own thread, so the passes see the same CPU at the same moments as
the workload.  The benchmark's time metrics divide the window's time, less
the time the passes took, by the mean pass time.  A change to ans2d moves
the window, never the kernel, so a gain still shows.

The kernel uses numpy alone, in the proportions the workloads run it:
batched 16x16 transforms (the ensembles), 64x64 transforms (det64) and
small elementwise calls (per-step bookkeeping, mode_law).  Its buffers are
allocated once, so a pass does not depend on the allocator state the
workload leaves behind.

Set-up (importing numpy, scipy and ans2d) runs before numpy is there, so it
is scaled by a pure-Python pass instead, timed just before and just after
set-up: setup_s is the set-up time the child would have taken had that pass
taken INTERP_NOMINAL_S.  This module imports numpy only when a RefKernel is
made, so that the child can time numpy's import as set-up.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.1  # between passes in the window; a pass takes about 3 ms
WARMUP_PASSES = 3
INTERP_PASSES = 6  # each side of set-up; a pass takes about 1 ms
INTERP_NOMINAL_S = 1e-3


def interp_passes(n: int = INTERP_PASSES) -> list[float]:
    """Seconds taken by each of n passes of a pure-Python kernel."""
    out = []
    for _ in range(n):
        start = time.perf_counter()
        table: dict[str, int] = {}
        for i in range(2000):
            key = f"m{i % 61}.attr"
            table[key] = table.get(key, 0) + len(key.split("."))
        sorted(table.items())
        out.append(time.perf_counter() - start)
    return out


def scaled_setup_s(setup_s: float, passes: list[float]) -> float:
    """Set-up time at the nominal interpreter speed."""
    return setup_s * INTERP_NOMINAL_S / statistics.mean(passes)


class RefKernel:
    def __init__(self) -> None:
        import numpy as np

        self.np = np
        rng = np.random.default_rng(12345)
        self.batch = rng.standard_normal((100, 2, 16, 16)).astype(complex)
        self.batch_hat = np.empty_like(self.batch)
        self.decay = np.exp(-0.001 * rng.random((16, 16)))
        self.field = rng.standard_normal((64, 64)).astype(complex)
        self.field_hat = np.empty_like(self.field)
        self.small = rng.standard_normal((8, 2, 4, 4))
        self.small_tmp = np.empty_like(self.small)

    def one_pass(self) -> float:
        """Seconds taken by one pass."""
        np = self.np
        start = time.perf_counter()
        np.fft.fft2(self.batch, out=self.batch_hat)
        np.multiply(self.batch_hat, self.decay, out=self.batch_hat)
        np.fft.ifft2(self.batch_hat, out=self.batch)
        for _ in range(2):
            np.fft.fft2(self.field, out=self.field_hat)
            np.fft.ifft2(self.field_hat, out=self.field)
        for _ in range(30):
            np.multiply(self.small, 0.999, out=self.small_tmp)
            np.add(self.small_tmp, 0.001, out=self.small)
        return time.perf_counter() - start


class Sampler:
    """Passes of the kernel on SIGALRM while it is active.

    `passes` holds each pass's time; `spent_s` the whole time spent in the
    signal handler, which the runner takes off the window's time.
    """

    def __init__(self) -> None:
        self.kernel = RefKernel()
        for _ in range(WARMUP_PASSES):
            self.kernel.one_pass()
        self.passes: list[float] = []
        self.spent_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.passes.append(self.kernel.one_pass())
        self.spent_s += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S / 2, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.passes:  # a window shorter than the first interval
            self._on_alarm(signal.SIGALRM, None)
