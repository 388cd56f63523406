"""Host speed, read from a fixed probe, to take out of timings.

The benchmark runs on a shared host whose speed drifts by a fifth or more over
tens of seconds.  ``probe`` times work that never changes and is made like a
trial's: an interpreted loop, then many numpy calls on small arrays (index,
min, argmin, and now and then a pseudo-inverse and an FFT).  Its time follows
the drift and nothing else.  A timing multiplied by ``scale`` of the probes
taken just before and just after it is the time the same work takes on a host
whose probe reads ``REFERENCE_S``: a change of the program moves it, a change
of host speed mostly does not.  Work that keeps both cores busy is scaled by
``probe_pair`` against ``REFERENCE_PAIR_S`` instead, since a neighbour on the
second core slows it without showing in a probe on one.
"""

from __future__ import annotations

import os
import struct
import time

import numpy as np

PY_LOOPS = 85_000
NP_LOOPS = 300
# medians on the host the baseline was taken on: of ``probe``, and of each
# reading of ``probe_pair``, which is slower as the two copies share the host
REFERENCE_S = 0.020
REFERENCE_PAIR_S = 0.023

_PREV = (2 * np.arange(64)[:, None] + np.arange(2)) % 64
_MATRIX = np.exp(1j * np.arange(32.0)).reshape(8, 4)
_SIGNAL = np.exp(0.1j * np.arange(256.0))


def probe() -> float:
    """Seconds the fixed work takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(PY_LOOPS):
        acc += i * i % 7
    metric = np.zeros(64, dtype=np.int64)
    for k in range(NP_LOOPS):
        cand = metric[_PREV] + (k & 3)
        np.argmin(cand, axis=1)
        metric = np.min(cand, axis=1) - np.min(cand)
        if k % 8 == 0:
            np.linalg.pinv(_MATRIX)
            np.fft.fft(_SIGNAL)
    return time.perf_counter() - start


def scale(probes, reference: float = REFERENCE_S) -> float:
    """Factor that brings a timing taken between ``probes`` to the speed at
    which they would read ``reference``."""
    return reference * len(probes) / sum(probes)


def probe_pair() -> tuple:
    """``probe`` in this process and in a forked copy at the same time, so
    both cores are busy as in a 2-worker sweep; returns both seconds."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            os.write(write_end, struct.pack("d", probe()))
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        mine = probe()
        with os.fdopen(read_end, "rb") as fh:
            theirs = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0 or len(theirs) != 8:
        raise RuntimeError("host-speed probe in the forked copy failed")
    return mine, struct.unpack("d", theirs)[0]
