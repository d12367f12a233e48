"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's host can be a shared virtual machine whose speed drifts by
up to 2x within tens of seconds, with CPU time tracking wall time, so no
process-time clock hides it.  Every timed round is therefore bracketed by
this kernel, and the round's times are scaled by
``NOMINAL_S / (mean kernel time before and after the round)``: the reported
timings read as on a host where the kernel takes ``NOMINAL_S``.

The kernel imports nothing from the program.  A change to the program moves
the round times and leaves the kernel's time alone, so it shows in full.
It mixes the two kinds of work the workloads do: small stacked NumPy solves
in the shape of the ALS sweeps, and plain Python object and dict traffic.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

#: Kernel seconds on the reference host the timings are scaled to (about the
#: kernel's time on an idle 2-vCPU Xeon virtual machine).
NOMINAL_S = 0.012
#: Repeats per measurement; the median of them is the measurement.
REPEATS = 3

_RNG = np.random.default_rng(0)
_STACK, _CYCLES, _CELLS, _RANK = 8, 48, 20, 3
_VALUES = _RNG.random((_STACK, _CYCLES, _CELLS))
_MASK = (_RNG.random((_STACK, _CYCLES, _CELLS)) < 0.4).astype(float)
_RIDGE = 0.1 * np.eye(_RANK)


def _stacked_als(sweeps: int = 6) -> np.ndarray:
    observed = _VALUES * _MASK
    cycle_factors = np.full((_STACK, _CYCLES, _RANK), 0.5)
    for _ in range(sweeps):
        grams = np.einsum("ktn,ktr,kts->knrs", _MASK, cycle_factors, cycle_factors) + _RIDGE
        rhs = np.einsum("ktn,ktr->knr", observed, cycle_factors)
        cell_factors = np.linalg.solve(grams, rhs[..., None])[..., 0]
        grams = np.einsum("ktn,knr,kns->ktrs", _MASK, cell_factors, cell_factors) + _RIDGE
        rhs = np.einsum("ktn,knr->ktr", observed, cell_factors)
        cycle_factors = np.linalg.solve(grams, rhs[..., None])[..., 0]
    return cycle_factors


class _Record:
    __slots__ = ("cell", "value")

    def __init__(self, cell: int, value: float) -> None:
        self.cell = cell
        self.value = value


def _objects(count: int = 6_000) -> float:
    total = 0.0
    by_cell = {}
    for index in range(count):
        record = _Record(index % _CELLS, index * 0.5)
        by_cell.setdefault(record.cell, []).append(record)
        total += by_cell[record.cell][-1].value
    return total


def kernel_s() -> float:
    """Seconds one pass of the reference kernel takes now (median of ``REPEATS``)."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            start = perf_counter()
            _stacked_als()
            _objects()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scale(before_s: float, after_s: float) -> float:
    """The factor that turns a round's seconds into reference-host seconds."""
    return NOMINAL_S / ((before_s + after_s) / 2.0)
