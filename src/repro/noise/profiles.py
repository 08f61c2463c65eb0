"""Noise profiles: structured deviations from the paper's uniform error model.

The paper's Section 5.2.1 error model applies one scalar rate ``p`` to every
qubit and mechanism.  A :class:`NoiseProfile` generalises that model along the
axes real devices actually vary on, while keeping the uniform model as the
degenerate (and default) case:

* ``uniform()`` — the paper's model; resolves back to the plain
  :class:`~repro.noise.model.NoiseParams` fast path, so seeded runs are
  bit-identical with and without a profile.
* ``biased(eta)`` — Z-biased depolarising noise: a depolarising event applies
  Z with ``eta`` times the probability of X (or Y).  ``eta = 1`` recovers the
  uniform Pauli mix.
* ``heterogeneous(seed, spread)`` — per-qubit rate multipliers drawn from a
  log-normal distribution (median 1, ``sigma = spread`` in log-space) from a
  dedicated seeded generator, so a profile is reproducible across processes.
* ``hot_spot(indices, factor)`` — a few bad qubits whose rates are scaled by
  ``factor``; every other qubit keeps the nominal rates.

A profile is a pure *shape*: it modulates a base :class:`NoiseParams` (which
continues to carry the headline rate ``p``) into either that same object
(uniform) or a :class:`QubitNoise` carrying per-qubit channel arrays that
both Monte-Carlo engines consume.  Profiles serialise to canonical JSON and
participate in :class:`~repro.experiments.jobs.SweepJob` cache identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.noise.model import NoiseParams

#: Profile kinds understood by :class:`NoiseProfile`.
PROFILE_KINDS = ("uniform", "biased", "heterogeneous", "hot_spot")

#: Pauli code conventions shared with the simulators: 1 = X, 2 = Y, 3 = Z.
_NUM_SINGLE_PAULIS = 3
_NUM_PAIR_PAULIS = 15


@dataclass(frozen=True)
class QubitNoise:
    """Per-qubit resolved noise rates (the non-uniform face of ``NoiseParams``).

    Carries one probability per physical qubit for every circuit-level error
    mechanism of Section 5.2.1, plus optional cumulative distributions that
    bias the Pauli drawn by the depolarising channels.  Exposes the same
    attribute names as :class:`~repro.noise.model.NoiseParams`, so the two
    Monte-Carlo engines dispatch on array-ness alone.

    Attributes:
        params: The base (headline) parameters the arrays were derived from.
        p_round_depolarize / p_gate1 / p_gate2 / p_measure / p_reset /
            p_multilevel_readout_error: ``(num_qubits,)`` float arrays.
        pauli1_cdf: Optional cumulative weights over the single-qubit Paulis
            (X, Y, Z); ``None`` keeps the uniform integer draw.
        pauli2_cdf: Optional cumulative weights over the 15 non-identity
            two-qubit Pauli pairs; ``None`` keeps the uniform integer draw.
    """

    params: NoiseParams
    p_round_depolarize: np.ndarray
    p_gate1: np.ndarray
    p_gate2: np.ndarray
    p_measure: np.ndarray
    p_reset: np.ndarray
    p_multilevel_readout_error: np.ndarray
    pauli1_cdf: Optional[np.ndarray] = None
    pauli2_cdf: Optional[np.ndarray] = None

    #: Channel attributes resolved per qubit.
    CHANNELS = (
        "p_round_depolarize",
        "p_gate1",
        "p_gate2",
        "p_measure",
        "p_reset",
        "p_multilevel_readout_error",
    )

    @property
    def p(self) -> float:
        """Headline physical error rate (for reporting, as on ``NoiseParams``)."""
        return self.params.p

    @property
    def num_qubits(self) -> int:
        """Number of physical qubits the per-qubit arrays cover."""
        return int(self.p_round_depolarize.shape[0])

    def validate(self) -> None:
        """Raise :class:`ValueError` on shape mismatches or invalid rates."""
        self.params.validate()
        n = self.num_qubits
        if n <= 0:
            raise ValueError("per-qubit noise arrays must be non-empty")
        for name in self.CHANNELS:
            array = getattr(self, name)
            if array.shape != (n,):
                raise ValueError(
                    f"{name} has shape {array.shape}, expected ({n},)"
                )
            if not ((array >= 0.0) & (array <= 1.0)).all():
                raise ValueError(f"{name} contains values outside [0, 1]")
        for name in ("pauli1_cdf", "pauli2_cdf"):
            cdf = getattr(self, name)
            if cdf is None:
                continue
            expected = _NUM_SINGLE_PAULIS if name == "pauli1_cdf" else _NUM_PAIR_PAULIS
            if cdf.shape != (expected,):
                raise ValueError(f"{name} must have shape ({expected},)")
            if (np.diff(cdf) < 0).any() or abs(float(cdf[-1]) - 1.0) > 1e-12:
                raise ValueError(f"{name} is not a cumulative distribution")


def channel_active(p) -> bool:
    """Whether a scalar-or-per-qubit channel rate can ever fire.

    Shared by both Monte-Carlo engines so the dispatch condition cannot
    drift between them.
    """
    if isinstance(p, np.ndarray):
        return bool(p.any())
    return p > 0.0


def draw_pauli_codes(rng, cdf: Optional[np.ndarray], size, num_codes: int) -> np.ndarray:
    """Draw non-identity Pauli error codes ``1 .. num_codes``.

    ``cdf = None`` is the uniform draw of the paper's model (byte-identical
    to the pre-profile engines' ``rng.integers`` call); a cumulative
    distribution (from :func:`_biased_pauli_cdfs`) biases the mix.  One
    shared implementation serves both engines — the scalar/packed
    statistical-equivalence contract rests on the two drawing codes the
    same way, so the convention must not be able to drift between them.
    """
    if cdf is None:
        return rng.integers(1, num_codes + 1, size=size)
    return 1 + np.searchsorted(cdf, rng.random(size), side="right")


def _biased_pauli_cdfs(eta: float) -> Tuple[np.ndarray, np.ndarray]:
    """Cumulative Pauli distributions for Z-bias ratio ``eta``.

    Single-qubit letter weights are ``(X, Y, Z) = (1, 1, eta)`` normalised;
    the two-qubit distribution takes each operand's letter independently from
    ``(I, X, Y, Z) = (1, wx, wy, wz)`` (with the single-qubit weights scaled
    to sum to 3, so ``eta = 1`` recovers the uniform 15-pair distribution)
    conditioned on the pair not being identity.  Pair codes follow the
    simulator convention ``code = 4 * control + target``.
    """
    wz = 3.0 * eta / (eta + 2.0)
    wx = wy = 3.0 / (eta + 2.0)
    single = np.array([wx, wy, wz], dtype=np.float64)
    letters = np.array([1.0, wx, wy, wz], dtype=np.float64)
    joint = np.outer(letters, letters).ravel()[1:]  # drop the (I, I) pair
    return _cdf_from_weights(single), _cdf_from_weights(joint)


def _cdf_from_weights(weights: np.ndarray) -> np.ndarray:
    """Exact cumulative distribution from non-negative weights.

    Accumulate first, normalise by the total afterwards: dividing every
    partial sum by the same positive total is order-preserving under IEEE
    rounding, so the result is monotone by construction, and the last entry
    is exactly ``total / total == 1.0``.  (Normalising the weights *before*
    the cumsum can float past 1.0 at extreme ratios such as ``eta = 1e-12``,
    where pinning ``cdf[-1] = 1.0`` afterwards left a negative final diff.)
    """
    cdf = np.cumsum(np.asarray(weights, dtype=np.float64))
    total = cdf[-1]
    if not total > 0.0:
        raise ValueError("Pauli weights must have a positive total")
    return cdf / total


@dataclass(frozen=True)
class NoiseProfile:
    """A named, serialisable shape modulating the Section 5.2.1 error model.

    Build instances through the classmethod constructors (:meth:`uniform`,
    :meth:`biased`, :meth:`heterogeneous`, :meth:`hot_spot`); the dataclass
    fields are storage, and only the fields a kind uses participate in its
    canonical serialisation.
    """

    kind: str = "uniform"
    eta: float = 1.0
    seed: int = 0
    spread: float = 0.0
    hot_indices: Tuple[int, ...] = ()
    hot_factor: float = 1.0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls) -> "NoiseProfile":
        """The paper's uniform model (the degenerate, default profile)."""
        return cls(kind="uniform")

    @classmethod
    def biased(cls, eta: float) -> "NoiseProfile":
        """Z-biased depolarising noise with bias ratio ``eta`` (>= 0)."""
        profile = cls(kind="biased", eta=float(eta))
        profile.validate()
        return profile

    @classmethod
    def heterogeneous(cls, seed: int, spread: float) -> "NoiseProfile":
        """Log-normal per-qubit rate multipliers, deterministic from ``seed``."""
        profile = cls(kind="heterogeneous", seed=int(seed), spread=float(spread))
        profile.validate()
        return profile

    @classmethod
    def hot_spot(cls, indices, factor: float) -> "NoiseProfile":
        """Scale the rates of the given qubit indices by ``factor``."""
        profile = cls(
            kind="hot_spot",
            hot_indices=tuple(sorted(int(i) for i in indices)),
            hot_factor=float(factor),
        )
        profile.validate()
        return profile

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def is_uniform(self) -> bool:
        """Whether this profile is the degenerate uniform model."""
        return self.kind == "uniform"

    def validate(self) -> None:
        """Raise :class:`ValueError` for malformed profile parameters."""
        if self.kind not in PROFILE_KINDS:
            raise ValueError(
                f"unknown noise profile kind {self.kind!r}; "
                f"choose from {PROFILE_KINDS}"
            )
        if self.kind == "biased" and self.eta < 0.0:
            raise ValueError("bias ratio eta must be >= 0")
        if self.kind == "heterogeneous":
            if self.spread < 0.0:
                raise ValueError("spread must be >= 0")
            if self.seed < 0:
                raise ValueError("seed must be a non-negative integer")
        if self.kind == "hot_spot":
            if self.hot_factor < 0.0:
                raise ValueError("hot-spot factor must be >= 0")
            if not self.hot_indices:
                raise ValueError("hot_spot requires at least one qubit index")
            if any(i < 0 for i in self.hot_indices):
                raise ValueError("hot-spot qubit indices must be non-negative")

    def to_config(self) -> Dict[str, object]:
        """JSON-serialisable form carrying exactly the fields this kind uses."""
        config: Dict[str, object] = {"kind": self.kind}
        if self.kind == "biased":
            config["eta"] = self.eta
        elif self.kind == "heterogeneous":
            config["seed"] = self.seed
            config["spread"] = self.spread
        elif self.kind == "hot_spot":
            config["indices"] = list(self.hot_indices)
            config["factor"] = self.hot_factor
        return config

    @classmethod
    def from_config(cls, config: Dict[str, object]) -> "NoiseProfile":
        """Rebuild a profile from :meth:`to_config` output."""
        kind = str(config.get("kind", "uniform"))
        if kind == "uniform":
            return cls.uniform()
        if kind == "biased":
            return cls.biased(config["eta"])
        if kind == "heterogeneous":
            return cls.heterogeneous(config["seed"], config["spread"])
        if kind == "hot_spot":
            return cls.hot_spot(config["indices"], config["factor"])
        raise ValueError(
            f"unknown noise profile kind {kind!r}; choose from {PROFILE_KINDS}"
        )

    def canonical_json(self) -> str:
        """Canonical JSON (sorted keys, no spaces) — the cache-identity form."""
        return json.dumps(self.to_config(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "NoiseProfile":
        """Inverse of :meth:`canonical_json`."""
        return cls.from_config(json.loads(text))

    @classmethod
    def parse(cls, spec: str) -> "NoiseProfile":
        """Parse a CLI profile spec.

        Accepted forms::

            uniform
            biased:eta=4
            heterogeneous:seed=7,spread=0.5
            hot-spot:indices=0+3+9,factor=8
        """
        head, _, tail = spec.strip().partition(":")
        kind = head.strip().lower().replace("-", "_")
        kwargs: Dict[str, str] = {}
        if tail:
            for item in tail.split(","):
                key, sep, value = item.partition("=")
                if not sep:
                    raise ValueError(
                        f"malformed profile option {item!r} in {spec!r} "
                        f"(expected key=value)"
                    )
                kwargs[key.strip().lower()] = value.strip()
        try:
            if kind == "uniform":
                profile = cls.uniform()
            elif kind == "biased":
                profile = cls.biased(float(kwargs.pop("eta")))
            elif kind == "heterogeneous":
                profile = cls.heterogeneous(
                    int(kwargs.pop("seed", 0)), float(kwargs.pop("spread"))
                )
            elif kind == "hot_spot":
                indices = [int(i) for i in kwargs.pop("indices").split("+")]
                profile = cls.hot_spot(indices, float(kwargs.pop("factor")))
            else:
                raise ValueError(
                    f"unknown noise profile kind {head!r}; choose from {PROFILE_KINDS}"
                )
        except KeyError as error:
            raise ValueError(
                f"profile spec {spec!r} is missing required option {error.args[0]!r}"
            ) from None
        if kwargs:
            # A misspelled option must not silently fall back to a default —
            # that would run (and cache) a different experiment than asked for.
            raise ValueError(
                f"profile spec {spec!r} has unknown option(s) {sorted(kwargs)} "
                f"for kind {kind!r}"
            )
        return profile

    def describe(self) -> str:
        """Short human-readable label used in tables and reports."""
        if self.kind == "biased":
            return f"biased(eta={self.eta:g})"
        if self.kind == "heterogeneous":
            return f"heterogeneous(seed={self.seed}, spread={self.spread:g})"
        if self.kind == "hot_spot":
            return f"hot_spot(x{self.hot_factor:g} on {len(self.hot_indices)} qubit(s))"
        return "uniform"

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def qubit_multipliers(self, num_qubits: int) -> np.ndarray:
        """Per-qubit rate multipliers over ``num_qubits`` physical qubits.

        Deterministic: the heterogeneous draw uses its own seeded ``PCG64``
        generator (stable across processes and numpy versions per NEP 19),
        never the experiment's stream.
        """
        if self.kind == "heterogeneous":
            rng = np.random.default_rng(np.random.SeedSequence(self.seed))
            return np.exp(rng.normal(0.0, self.spread, size=num_qubits))
        multipliers = np.ones(num_qubits, dtype=np.float64)
        if self.kind == "hot_spot":
            if self.hot_indices and max(self.hot_indices) >= num_qubits:
                raise ValueError(
                    f"hot-spot qubit index {max(self.hot_indices)} is out of "
                    f"range for {num_qubits} qubits"
                )
            multipliers[list(self.hot_indices)] = self.hot_factor
        return multipliers

    def materialize(
        self, params: NoiseParams, num_qubits: int
    ) -> Union[NoiseParams, QubitNoise]:
        """Resolve this profile against base parameters for a concrete code.

        The uniform profile returns ``params`` unchanged — the scalar fast
        path both engines already run, which is what keeps seeded uniform
        statistics bit-identical whether or not a profile is supplied.  Every
        other kind returns a validated :class:`QubitNoise`.
        """
        self.validate()
        params.validate()
        if self.is_uniform:
            return params
        multipliers = self.qubit_multipliers(num_qubits)
        pauli1_cdf = pauli2_cdf = None
        if self.kind == "biased":
            pauli1_cdf, pauli2_cdf = _biased_pauli_cdfs(self.eta)

        def per_qubit(rate: float) -> np.ndarray:
            return np.clip(rate * multipliers, 0.0, 1.0)

        noise = QubitNoise(
            params=params,
            p_round_depolarize=per_qubit(params.p_round_depolarize),
            p_gate1=per_qubit(params.p_gate1),
            p_gate2=per_qubit(params.p_gate2),
            p_measure=per_qubit(params.p_measure),
            p_reset=per_qubit(params.p_reset),
            p_multilevel_readout_error=per_qubit(params.p_multilevel_readout_error),
            pauli1_cdf=pauli1_cdf,
            pauli2_cdf=pauli2_cdf,
        )
        noise.validate()
        return noise
