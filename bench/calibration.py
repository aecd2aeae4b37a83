"""A fixed reference kernel that tracks the machine's current speed.

On a shared host the same code runs at a speed that drifts by up to a
factor of two over tens of seconds, as the cores' other tenants come and
go, so a raw wall time says as much about the host as about the program.
The benchmark therefore times this kernel between the program's calls,
all through a run, and reports each round's timings at the reference
speed:

    reported = measured * REF_CHUNK_S / (mean of the samples around the round)

The kernel does what localsym's hot paths do, on tensors of the same
size, with numpy alone: apply a 2x2 matrix to each qubit of a 2^6
tensor, take that qubit's 2x2 reduction and its eigenvalues, and
renormalise.  It never calls localsym, so a change to the library
leaves it alone.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

N_QUBITS = 6
PASSES = 6        # kernel passes in one chunk (about 2 ms)
CHUNKS = 5        # chunks in one sample; the sample is their mean
EVERY_S = 0.25    # least program time between two samples
# About the mean chunk time on the reference machine (2 cores of a shared
# x86-64 host, numpy 2.4, Python 3.11; 1.9-2.1 ms when the host is at its
# usual speed); reported times are scaled to this speed.
REF_CHUNK_S = 2.0e-3


def _inputs():
    rng = np.random.default_rng(20240101)
    shape = (2,) * N_QUBITS
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mats = rng.standard_normal((N_QUBITS, 2, 2)) + 1j * rng.standard_normal((N_QUBITS, 2, 2))
    # unitary factors keep the tensor's scale fixed from pass to pass
    mats = np.linalg.qr(mats)[0]
    return psi / np.linalg.norm(psi), mats


def _chunk(psi, mats) -> float:
    start = time.perf_counter()
    for _ in range(PASSES):
        for k in range(N_QUBITS):
            psi = np.moveaxis(np.tensordot(mats[k], psi, axes=([1], [k])), 0, k)
            flat = np.moveaxis(psi, k, 0).reshape(2, -1)
            np.linalg.eigvalsh(flat @ flat.conj().T)
        psi = psi / np.linalg.norm(psi)
    return time.perf_counter() - start


class Calibrator:
    """Kernel samples taken between program calls, and the time they took.

    ``maybe()`` takes a sample when at least ``EVERY_S`` has passed since
    the last one; ``factor(start, stop)`` scales a timing made between
    samples ``start`` and ``stop`` - 1 to the reference speed.
    """

    def __init__(self):
        self._psi, self._mats = _inputs()
        _chunk(self._psi, self._mats)  # warm-up, not recorded
        self.samples: list[float] = []
        self.spent_s = 0.0           # total time spent in the kernel
        self._last = float("-inf")

    def sample(self) -> None:
        start = time.perf_counter()
        chunks = [_chunk(self._psi, self._mats) for _ in range(CHUNKS)]
        self.samples.append(statistics.fmean(chunks))
        end = time.perf_counter()
        self.spent_s += end - start
        self._last = end

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def factor(self, start: int, stop: int) -> float:
        """REF_CHUNK_S over the mean of samples ``start`` to ``stop`` - 1."""
        return REF_CHUNK_S / statistics.fmean(self.samples[start:stop])
