"""Leakage-aware stabilizer-circuit simulation.

The paper extends Google's Stim with leakage errors.  Stim itself has no
leakage support (and is not available in this offline environment), so this
subpackage provides a from-scratch, numpy-vectorised Pauli-frame simulator
that tracks, per physical qubit, an X/Z error frame plus a leakage flag.  The
simulator executes the lightweight circuit IR defined in
:mod:`repro.sim.circuit` and implements the circuit-level noise and leakage
model of Section 5.2 of the paper.

Two engines share that IR:

* :class:`~repro.sim.frame_simulator.LeakageFrameSimulator` — the scalar
  reference engine; one Monte-Carlo shot per instance, frames are
  ``(num_qubits,)`` boolean arrays.
* :class:`~repro.sim.packed_frame_simulator.PackedLeakageFrameSimulator` —
  the vectorised engine; frames are ``(ceil(shots / 64), num_qubits)``
  uint64 words (64 shots per word), gates are word-wide XOR/AND kernels, and
  noise is sampled sparsely (binomial hit counts on random distinct cells),
  so per-channel work scales with the expected number of errors instead of
  with ``shots``.

The experiment harness (:class:`~repro.experiments.memory.MemoryExperiment`)
selects between them via its ``engine`` argument (``"auto"`` uses the packed
engine whenever the scheduling policy supports vectorised decisions, which
all built-in policies do) and sizes the batches with ``batch_size``.  The
engines draw random numbers in different orders, so they are *statistically*
— not bitwise — equivalent; noise-free circuits produce exactly equal output
on both.  ``tests/test_engine_equivalence.py`` enforces this contract.
"""

from repro.sim.circuit import (
    Cnot,
    Hadamard,
    LeakISwap,
    LrcFinalize,
    Measure,
    MeasureReset,
    Operation,
    Reset,
    RoundNoise,
)
from repro.sim.frame_simulator import LeakageFrameSimulator, MeasurementRecord
from repro.sim.packed_frame_simulator import (
    BatchedMeasurementRecord,
    PackedLeakageFrameSimulator,
)
from repro.sim.rng import make_rng

__all__ = [
    "Operation",
    "RoundNoise",
    "Hadamard",
    "Cnot",
    "Measure",
    "MeasureReset",
    "Reset",
    "LrcFinalize",
    "LeakISwap",
    "LeakageFrameSimulator",
    "MeasurementRecord",
    "BatchedMeasurementRecord",
    "PackedLeakageFrameSimulator",
    "make_rng",
]
