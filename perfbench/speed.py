"""The machine's speed at the moment a piece of work was measured.

Other tenants of a shared machine slow a process by up to 1.6x for minutes
at a time, longer than one benchmark run, so the fastest or median piece
of a run still varies with the load.  A fixed probe, timed right before and
right after each measured piece, gives the speed at that moment; a piece is
then rescaled to the speed at which the probe takes REFERENCE_S.

The probe does what the trainer's hot loop does, per-sample Python calls
into small NumPy operations, but calls nothing in affectmtl and no BLAS:
a change to the package, or to BLAS threading, cannot change the probe.
"""

from __future__ import annotations

import time

import numpy as np

# Probe seconds on the machine the bounds were set on (2 logical
# CPUs, Intel Xeon, NumPy 2.4.6) when it ran fastest.
REFERENCE_S = 0.016

_IMAGE = np.random.default_rng(7).random((16, 16))


def probe() -> float:
    """Seconds one fixed piece of interpreter and small-array work takes."""
    rng = np.random.default_rng(1)
    total = 0.0
    started = time.perf_counter()
    for _ in range(400):
        padded = np.pad(_IMAGE, 2, mode="reflect")
        top, left = (int(v) for v in rng.integers(0, 5, size=2))
        view = padded[top : top + 16, left : left + 16]
        if rng.random() < 0.5:
            view = view[:, ::-1]
        total += float(np.clip(view * 1.1, 0.0, 1.0).sum())
    return time.perf_counter() - started


def rescaled(piece) -> float:
    """(seconds, probe seconds) as seconds at the reference speed."""
    seconds, probe_s = piece
    return seconds * REFERENCE_S / probe_s


def timed(fn):
    """Run fn(); returns (result, (seconds, mean probe seconds around it))."""
    before = probe()
    started = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - started
    return result, (seconds, (before + probe()) / 2)
