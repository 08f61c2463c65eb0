"""Result containers for memory experiments and policy sweeps.

Carries the quantities the paper reports per configuration: the logical
error rate of Equation (4), the per-round leakage population ratio of
Equation (5), LRCs scheduled per round (Table 4) and speculation confusion
counts (Figure 16).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.metrics import SpeculationCounts, binomial_stderr, wilson_interval


@dataclass
class MemoryExperimentResult:
    """Aggregated outcome of one memory-experiment configuration.

    Attributes:
        policy: Canonical policy name.
        distance: Surface code distance.
        rounds: Number of syndrome-extraction rounds per shot.
        physical_error_rate: The physical error rate ``p``.
        shots: Number of Monte-Carlo shots.
        logical_errors: Number of shots that ended in a logical error
            (``-1`` when decoding was disabled).
        lpr_total / lpr_data / lpr_parity: Per-round leakage population ratios
            averaged over shots (Equation 5).
        lrcs_per_round: Average number of leakage-removal operations per round.
        speculation: Confusion-matrix counts of the per-round LRC decisions.
        metadata: Free-form extra information (protocol, transport model, ...).
    """

    policy: str
    distance: int
    rounds: int
    physical_error_rate: float
    shots: int
    logical_errors: int
    lpr_total: np.ndarray
    lpr_data: np.ndarray
    lpr_parity: np.ndarray
    lrcs_per_round: float
    speculation: SpeculationCounts
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def logical_error_rate(self) -> float:
        """LER as defined by Equation (4)."""
        if self.shots == 0 or self.logical_errors < 0:
            return float("nan")
        return self.logical_errors / self.shots

    @property
    def logical_error_rate_stderr(self) -> float:
        """Plug-in binomial standard error of the LER.

        Degenerate at the boundary: a zero-failure run reports exactly
        ``0.0``, which is a breakdown of the normal approximation rather
        than zero uncertainty (see
        :func:`~repro.experiments.metrics.binomial_stderr`).  Kept for
        backward compatibility; uncertainty reporting should prefer
        :attr:`logical_error_rate_interval`, whose upper bound stays
        strictly positive at zero observed failures.
        """
        if self.logical_errors < 0:
            return float("nan")
        return binomial_stderr(self.logical_errors, self.shots)

    @property
    def logical_error_rate_interval(self) -> Tuple[float, float]:
        """95% Wilson score interval ``(low, high)`` on the LER.

        Well-behaved where :attr:`logical_error_rate_stderr` is not: at zero
        observed failures the upper bound is still roughly ``3.84 /
        (shots + 3.84)`` (the rule of three), so low-LER points carry honest,
        nonzero-width error bars.
        """
        if self.logical_errors < 0:
            return (float("nan"), float("nan"))
        return wilson_interval(self.logical_errors, self.shots)

    @property
    def mean_lpr(self) -> float:
        """Time-averaged leakage population ratio."""
        if self.lpr_total.size == 0:
            return float("nan")
        return float(np.mean(self.lpr_total))

    @property
    def final_lpr(self) -> float:
        """Leakage population ratio after the last round."""
        if self.lpr_total.size == 0:
            return float("nan")
        return float(self.lpr_total[-1])

    def to_state(self) -> "Tuple[Dict[str, object], Dict[str, np.ndarray]]":
        """Lossless serialised form: ``(scalars, arrays)``.

        The scalar part is JSON-serialisable; the arrays are float64.
        Together they round-trip through :meth:`from_state` exactly;
        :func:`result_to_wire` is their all-JSON form.
        """
        scalars = {
            "policy": self.policy,
            "distance": self.distance,
            "rounds": self.rounds,
            "physical_error_rate": self.physical_error_rate,
            "shots": self.shots,
            "logical_errors": self.logical_errors,
            "lrcs_per_round": self.lrcs_per_round,
            "speculation": [
                self.speculation.true_positive,
                self.speculation.false_positive,
                self.speculation.true_negative,
                self.speculation.false_negative,
            ],
            "metadata": dict(self.metadata),
        }
        arrays = {
            "lpr_total": np.asarray(self.lpr_total, dtype=np.float64),
            "lpr_data": np.asarray(self.lpr_data, dtype=np.float64),
            "lpr_parity": np.asarray(self.lpr_parity, dtype=np.float64),
        }
        return scalars, arrays

    @classmethod
    def from_state(
        cls, scalars: Dict[str, object], arrays: Dict[str, np.ndarray]
    ) -> "MemoryExperimentResult":
        """Rebuild a result from the output of :meth:`to_state`."""
        tp, fp, tn, fn = (int(v) for v in scalars["speculation"])
        return cls(
            policy=str(scalars["policy"]),
            distance=int(scalars["distance"]),
            rounds=int(scalars["rounds"]),
            physical_error_rate=float(scalars["physical_error_rate"]),
            shots=int(scalars["shots"]),
            logical_errors=int(scalars["logical_errors"]),
            lpr_total=np.asarray(arrays["lpr_total"], dtype=np.float64),
            lpr_data=np.asarray(arrays["lpr_data"], dtype=np.float64),
            lpr_parity=np.asarray(arrays["lpr_parity"], dtype=np.float64),
            lrcs_per_round=float(scalars["lrcs_per_round"]),
            speculation=SpeculationCounts(tp, fp, tn, fn),
            metadata=dict(scalars.get("metadata", {})),
        )

    def statistically_equal(self, other: "MemoryExperimentResult") -> bool:
        """Exact equality of every aggregate statistic (arrays bit-for-bit)."""
        return (
            self.policy == other.policy
            and self.distance == other.distance
            and self.rounds == other.rounds
            and self.physical_error_rate == other.physical_error_rate
            and self.shots == other.shots
            and self.logical_errors == other.logical_errors
            and self.lrcs_per_round == other.lrcs_per_round
            and self.speculation == other.speculation
            and np.array_equal(self.lpr_total, other.lpr_total)
            and np.array_equal(self.lpr_data, other.lpr_data)
            and np.array_equal(self.lpr_parity, other.lpr_parity)
        )

    def to_dict(self) -> Dict[str, object]:
        """Plain-dictionary form suitable for JSON/CSV serialisation."""
        return {
            "policy": self.policy,
            "distance": self.distance,
            "rounds": self.rounds,
            "p": self.physical_error_rate,
            "shots": self.shots,
            "logical_errors": self.logical_errors,
            "logical_error_rate": self.logical_error_rate,
            "ler_stderr": self.logical_error_rate_stderr,
            "ler_ci_low": self.logical_error_rate_interval[0],
            "ler_ci_high": self.logical_error_rate_interval[1],
            "mean_lpr": self.mean_lpr,
            "final_lpr": self.final_lpr,
            "lrcs_per_round": self.lrcs_per_round,
            "speculation_accuracy": self.speculation.accuracy,
            "false_positive_rate": self.speculation.false_positive_rate,
            "false_negative_rate": self.speculation.false_negative_rate,
            **{f"meta_{k}": v for k, v in self.metadata.items()},
        }

    def summary(self) -> str:
        """One-line human readable summary."""
        ler = self.logical_error_rate
        ler_text = f"{ler:.3e}" if ler == ler else "n/a"
        return (
            f"{self.policy:>11s}  d={self.distance:<2d} rounds={self.rounds:<4d} "
            f"p={self.physical_error_rate:.0e} shots={self.shots:<6d} "
            f"LER={ler_text}  mean LPR={self.mean_lpr:.2e}  "
            f"LRCs/round={self.lrcs_per_round:6.2f}  "
            f"acc={100 * self.speculation.accuracy:5.1f}%"
        )


def result_to_wire(result: MemoryExperimentResult) -> Dict[str, object]:
    """All-JSON form of a result: scalar stats plus per-round arrays as lists.

    Python's JSON encoder emits shortest-round-trip float reprs, so the
    statistics survive a JSON round trip *bit-identically*.  This is the form
    the on-disk result store and the sweep service's HTTP API both carry.
    """
    scalars, arrays = result.to_state()
    return {
        "scalars": scalars,
        "arrays": {name: array.tolist() for name, array in arrays.items()},
    }


def result_from_wire(payload: Dict[str, object]) -> MemoryExperimentResult:
    """Inverse of :func:`result_to_wire` (bit-identical round trip).

    Raises ``ValueError`` (or ``KeyError``/``TypeError``) on a payload that
    is not a result, e.g. arrays that are not flat lists of numbers.
    """
    arrays = {
        name: np.asarray(values, dtype=np.float64)
        for name, values in payload["arrays"].items()  # type: ignore[union-attr]
    }
    if any(array.ndim != 1 for array in arrays.values()):
        raise ValueError("result arrays must be one-dimensional")
    return MemoryExperimentResult.from_state(payload["scalars"], arrays)


@dataclass
class PolicySweepResult:
    """Collection of :class:`MemoryExperimentResult` across a parameter sweep."""

    results: List[MemoryExperimentResult] = field(default_factory=list)

    def add(self, result: MemoryExperimentResult) -> None:
        self.results.append(result)

    def filter(self, **criteria) -> "PolicySweepResult":
        """Select results whose attributes match the given keyword criteria."""
        selected = []
        for result in self.results:
            if all(getattr(result, key) == value for key, value in criteria.items()):
                selected.append(result)
        return PolicySweepResult(selected)

    def by_policy(self, policy: str) -> List[MemoryExperimentResult]:
        return [r for r in self.results if r.policy == policy]

    def policies(self) -> List[str]:
        seen: List[str] = []
        for result in self.results:
            if result.policy not in seen:
                seen.append(result.policy)
        return seen

    def distances(self) -> List[int]:
        return sorted({r.distance for r in self.results})

    def ler_table(self) -> Dict[str, Dict[int, float]]:
        """Nested mapping ``policy -> distance -> LER`` (Figure 14 shape)."""
        table: Dict[str, Dict[int, float]] = {}
        for result in self.results:
            table.setdefault(result.policy, {})[result.distance] = result.logical_error_rate
        return table

    def lrc_table(self) -> Dict[str, Dict[int, float]]:
        """Nested mapping ``policy -> distance -> average LRCs per round`` (Table 4)."""
        table: Dict[str, Dict[int, float]] = {}
        for result in self.results:
            table.setdefault(result.policy, {})[result.distance] = result.lrcs_per_round
        return table

    def to_rows(self) -> List[Dict[str, object]]:
        return [r.to_dict() for r in self.results]

    def format_table(self) -> str:
        """Multi-line human-readable summary of every result in the sweep."""
        return "\n".join(result.summary() for result in self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)
