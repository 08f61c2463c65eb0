"""Job-based sweep planning: fully-specified, seed-stable units of work.

A sweep (LER vs distance, an LPR time series, a DQLR comparison, ...) is
*planned* before it is executed: every point of the parameter grid becomes one
:class:`SweepJob` — a frozen record of primitives that completely determines a
Monte-Carlo run, including its random stream.  Planning and execution are
separated so that the :class:`~repro.experiments.executor.SweepExecutor` can
run jobs serially or across processes, cache them content-addressed on disk,
and resume interrupted sweeps, all without changing a single statistic.

Seed discipline
---------------
A plan derives one root entropy value from the user's seed and gives job ``i``
the :class:`numpy.random.SeedSequence` spawn key ``(i,)``.  Each job further
splits its shots into fixed-size chunks, and chunk ``c`` of job ``i`` draws
from the child sequence with spawn key ``(i, c)``.  Because spawn keys are
data (not "how many times has this generator been used so far"), the stream
feeding every chunk is independent of execution order, of which worker runs
it, and of whether any other chunk ran at all: serial and parallel execution
of the same plan produce bit-identical statistics, and a cached result is
exactly the result a fresh run would have produced.

Chunking also keeps a pool busy: one huge configuration becomes many tasks
instead of serialising the sweep behind a single worker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.codes import DEFAULT_CODE_FAMILY, canonical_code_family, make_code
from repro.core.policies import make_policy
from repro.core.policies.base import LrcPolicy
from repro.core.qsg import PROTOCOL_SWAP, PROTOCOLS
from repro.decoder.matching import canonical_method
from repro.experiments.memory import ENGINES, MemoryExperiment
from repro.experiments.results import MemoryExperimentResult
from repro.experiments.store import config_hash
from repro.noise.leakage import LeakageModel, LeakageTransportModel
from repro.noise.model import NoiseParams
from repro.noise.profiles import NoiseProfile
from repro.sim.rng import RngLike

#: Shots per executor task unless the plan overrides it.  Small enough that a
#: four-configuration sweep still fans out across a pool, large enough that
#: per-task overhead (fork, pickle, simulator setup) stays negligible.
DEFAULT_CHUNK_SHOTS = 256

#: Version of what a cached result *means*.  Folded into every job's
#: :meth:`SweepJob.config_dict` (and so into its cache key, its chunk-spill
#: keys and its adaptive prefix keys) and into the key of the report's
#: density-matrix study record; bump it whenever a change alters the
#: statistics an unchanged configuration produces, so a warm cache never
#: serves a stale answer.  Version 1: ``engine="auto"`` resolves to the
#: packed engine at every shot count.
RESULT_SEMANTICS_VERSION = 1

#: Wire keys of removed perf-only fields, ignored by
#: :meth:`SweepJob.from_wire`.  ``decoder_dp_threshold`` capped the retired
#: bitmask-DP matcher, ``decoder_cache_size`` bounded the decoder's
#: correction LRU, ``decoder_artifact_dir`` named the retired on-disk
#: store of LRU snapshots and ``target_rel_halfwidth`` was the stopping
#: rule's relative target; none joined :meth:`SweepJob.config_dict`, so
#: dropping them leaves every cache key unchanged.
_RETIRED_WIRE_FIELDS = frozenset(
    {
        "decoder_dp_threshold",
        "decoder_cache_size",
        "decoder_artifact_dir",
        "target_rel_halfwidth",
    }
)

#: :class:`SweepJob` field metadata key declaring the field's role in the
#: cache identity.  A field without it always joins
#: :meth:`SweepJob.config_dict`, so a field nobody classified moves cache
#: keys instead of letting a warm cache serve a stale answer.
_ROLE = "identity"
#: Never part of the identity: the field changes how fast the job runs, or
#: how many of its position-keyed chunks run, never what any chunk computes.
_PERF_ONLY = {_ROLE: "perf-only"}
#: Part of the identity only when it differs from its default, so cache
#: entries written before the field existed keep their addresses.
_UNLESS_DEFAULT = {_ROLE: "unless-default"}


def resolve_policy(name: str, **kwargs) -> LrcPolicy:
    """Instantiate any schedulable policy, including the DQLR baseline."""
    key = name.strip().lower()
    if key == "dqlr":
        # Imported lazily: repro.dqlr.protocol itself builds on this package.
        from repro.dqlr.protocol import DqlrBaselinePolicy

        return DqlrBaselinePolicy(**kwargs)
    return make_policy(name, **kwargs)


@lru_cache(maxsize=256)
def canonical_policy_name(name: str) -> str:
    """The canonical name a policy reports in results (resolves aliases)."""
    return resolve_policy(name).name


@lru_cache(maxsize=256)
def _check_policy_kwargs(name: str, kwargs: Tuple[Tuple[str, object], ...]) -> None:
    """Instantiate policy ``name`` with ``kwargs`` once; raise if it refuses.

    Memoised per (policy, kwargs), so a plan of many jobs sharing one
    configuration builds the policy once per process.
    """
    try:
        resolve_policy(name, **dict(kwargs))
    except TypeError as error:
        raise ValueError(
            f"policy {name!r} rejects policy_kwargs {dict(kwargs)}: {error}"
        ) from None


def canonical_noise_profile(profile) -> Optional[str]:
    """Normalise any accepted noise-profile form for :class:`SweepJob` storage.

    Accepts ``None``, a :class:`~repro.noise.profiles.NoiseProfile`, its
    canonical JSON (as a string or as the parsed config dict), or a CLI spec
    string (``"biased:eta=4"``).  The uniform profile normalises to ``None``
    so the degenerate case shares the cache identity (and random stream) of
    a profile-less job.
    """
    if profile is None:
        return None
    if isinstance(profile, str):
        return _canonical_profile_text(profile)
    if isinstance(profile, dict):
        profile = NoiseProfile.from_config(profile)
    profile.validate()
    return None if profile.is_uniform else profile.canonical_json()


@lru_cache(maxsize=256)
def _canonical_profile_text(text: str) -> Optional[str]:
    """:func:`canonical_noise_profile` of a JSON or CLI-spec string."""
    text = text.strip()
    return canonical_noise_profile(
        NoiseProfile.from_json(text) if text.startswith("{") else NoiseProfile.parse(text)
    )


def canonical_transport_model(model) -> str:
    """The value of a :class:`LeakageTransportModel` given as member or name."""
    try:
        return LeakageTransportModel(model).value
    except ValueError:
        names = tuple(member.value for member in LeakageTransportModel)
        raise ValueError(
            f"unknown transport model {model!r}; expected one of {names}"
        ) from None


@dataclass(frozen=True)
class SweepJob:
    """One fully-specified Monte-Carlo configuration.

    Every field is a primitive, so a job pickles cheaply to worker processes
    and serialises canonically for content-addressed caching.  ``seed_entropy``
    and ``spawn_key`` pin the job's random stream (see the module docstring);
    ``chunk_shots`` is part of the identity because it determines how the
    shots split across child streams.

    Construction is the one place a job is normalised: names resolve to their
    canonical spelling (policy and code-family aliases, any noise-profile
    form, transport members, decoder-method aliases), ``policy_kwargs`` is
    sorted and ``spawn_key`` becomes a tuple, and an unknown name raises
    ``ValueError`` — as do ``policy_kwargs`` the policy's constructor
    refuses.  Plan builders, :meth:`from_wire` and ``replace()``
    therefore all yield the same record and the same :meth:`cache_key`.
    Each field's role in the identity is declared on the field itself.
    """

    distance: int
    policy: str
    shots: int
    rounds: int
    p: float = 1e-3
    #: Code family the experiment runs on (see :func:`repro.codes.make_code`).
    code_family: str = field(default=DEFAULT_CODE_FAMILY, metadata=_UNLESS_DEFAULT)
    #: Canonical JSON of a non-uniform :class:`~repro.noise.profiles.NoiseProfile`
    #: (``None`` = the paper's uniform model).
    noise_profile: Optional[str] = field(default=None, metadata=_UNLESS_DEFAULT)
    leakage_enabled: bool = True
    transport_model: str = LeakageTransportModel.REMAIN.value
    protocol: str = PROTOCOL_SWAP
    decode: bool = True
    decoder_method: str = "auto"
    engine: str = "auto"
    batch_size: Optional[int] = None
    policy_kwargs: Tuple[Tuple[str, object], ...] = ()
    seed_entropy: int = 0
    spawn_key: Tuple[int, ...] = ()
    chunk_shots: int = DEFAULT_CHUNK_SHOTS
    #: Sequential stopping rule (``repro.experiments.adaptive``): stop
    #: dispatching chunks once the Wilson interval on the job's LER is
    #: tighter than this absolute half-width.  Perf-only: adaptivity only
    #: decides *how many* of the job's position-keyed chunks run, never the
    #: content of any chunk, so a truncated run is bit-identical to the
    #: prefix of a fixed run and is cached under that prefix job's address.
    target_ci_halfwidth: Optional[float] = field(default=None, metadata=_PERF_ONLY)
    #: Minimum chunks the stopping rule must observe before it may stop
    #: (``None`` = the module default).  Perf-only.
    adaptive_min_chunks: Optional[int] = field(default=None, metadata=_PERF_ONLY)

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValueError(
                f"shots must be >= 1, got {self.shots}: a zero-shot job has "
                "no Monte-Carlo stream and would cache a degenerate result"
            )
        if self.chunk_shots < 1:
            raise ValueError(f"chunk_shots must be >= 1, got {self.chunk_shots}")
        # Checked here, not only by MemoryExperiment, so a bad name is
        # rejected when a plan is built or a submission is decoded instead
        # of failing the whole sweep later inside a worker.
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; expected one of {PROTOCOLS}"
            )
        canonical = {
            "policy": canonical_policy_name(str(self.policy)),
            "code_family": canonical_code_family(str(self.code_family)),
            "noise_profile": canonical_noise_profile(self.noise_profile),
            "transport_model": canonical_transport_model(self.transport_model),
            "decoder_method": canonical_method(self.decoder_method),
            "policy_kwargs": tuple(
                sorted((str(key), value) for key, value in dict(self.policy_kwargs).items())
            ),
            "spawn_key": tuple(int(value) for value in self.spawn_key),
        }
        for name, value in canonical.items():
            object.__setattr__(self, name, value)  # frozen dataclass
        if self.policy_kwargs:
            _check_policy_kwargs(self.policy, self.policy_kwargs)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def config_dict(self) -> Dict[str, object]:
        """JSON-serialisable form of every identity field (see :data:`_ROLE`).

        Fields marked identity-unless-default join only when they deviate
        from the degenerate defaults (rotated surface code, uniform noise).
        :data:`RESULT_SEMANTICS_VERSION` is always present.
        """
        config: Dict[str, object] = {"semantics": RESULT_SEMANTICS_VERSION}
        for name, default in _IDENTITY_UNLESS_DEFAULT:
            value = getattr(self, name)
            if value != default:
                config[name] = value
        for name in _IDENTITY_FIELDS:
            config[name] = getattr(self, name)
        config["policy_kwargs"] = dict(self.policy_kwargs)
        config["spawn_key"] = list(self.spawn_key)
        return config

    def cache_key(self) -> str:
        """Content address of this job (SHA-256 of the canonical config)."""
        return config_hash(self.config_dict())

    # ------------------------------------------------------------------
    # Wire form (sweep-service submissions)
    # ------------------------------------------------------------------
    def to_wire(self) -> Dict[str, object]:
        """Every field as JSON primitives — the sweep-service submit body.

        Unlike :meth:`config_dict` this is *lossless* (perf-only knobs ride
        along) so a service-side job is exactly the job the client built,
        including its cache identity.
        """
        wire = {name: getattr(self, name) for name in _WIRE_FIELDS}
        wire["policy_kwargs"] = [list(item) for item in self.policy_kwargs]
        wire["spawn_key"] = list(self.spawn_key)
        return wire

    @classmethod
    def from_wire(cls, payload: Dict[str, object]) -> "SweepJob":
        """Rebuild a job from :meth:`to_wire` (inverse, bit-identical).

        Keys in :data:`_RETIRED_WIRE_FIELDS` are dropped whatever their value,
        so journals and submissions written before a knob was removed still
        decode; any other unknown key raises ``TypeError``.  Construction
        normalises the rest, so a non-canonical spelling decodes to the job
        (and cache key) a plan builder would have produced.
        """
        return cls(**{
            key: value for key, value in payload.items() if key not in _RETIRED_WIRE_FIELDS
        })

    # ------------------------------------------------------------------
    # Seeds and chunks
    # ------------------------------------------------------------------
    def seed_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.seed_entropy, spawn_key=self.spawn_key)

    @property
    def num_chunks(self) -> int:
        return max(1, math.ceil(self.shots / self.chunk_shots))

    def chunk_sizes(self) -> List[int]:
        """Shots per chunk; all chunks full-size except possibly the last."""
        sizes = [self.chunk_shots] * (self.num_chunks - 1)
        sizes.append(self.shots - self.chunk_shots * (self.num_chunks - 1))
        return sizes

    def chunk_seed(self, index: int) -> np.random.SeedSequence:
        """The child sequence for chunk ``index``.

        Constructed directly from the extended spawn key (equivalent to
        ``self.seed_sequence().spawn(...)[index]``) so any chunk's stream can
        be rebuilt in any process without spawning its predecessors.
        """
        if not 0 <= index < self.num_chunks:
            raise IndexError(f"chunk index {index} out of range for {self.num_chunks} chunks")
        return np.random.SeedSequence(
            self.seed_entropy, spawn_key=self.spawn_key + (index,)
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def build_experiment(self, rng: RngLike) -> MemoryExperiment:
        """Materialise the configuration into a ready-to-run experiment."""
        noise = NoiseParams.standard(self.p)
        profile = (
            NoiseProfile.from_json(self.noise_profile)
            if self.noise_profile is not None
            else None
        )
        if self.leakage_enabled:
            leakage = LeakageModel.standard(
                self.p, transport_model=LeakageTransportModel(self.transport_model)
            )
        else:
            leakage = LeakageModel.disabled()
        return MemoryExperiment(
            code=make_code(self.code_family, self.distance),
            policy=resolve_policy(self.policy, **dict(self.policy_kwargs)),
            noise=noise,
            noise_profile=profile,
            leakage=leakage,
            rounds=self.rounds,
            protocol=self.protocol,
            decode=self.decode,
            decoder_method=self.decoder_method,
            seed=rng,
            engine=self.engine,
            batch_size=self.batch_size,
        )

    def run_chunk(self, index: int) -> MemoryExperimentResult:
        """Run one chunk of this job on its own deterministic stream."""
        shots = self.chunk_sizes()[index]
        rng = np.random.default_rng(self.chunk_seed(index))
        return self.build_experiment(rng).run(shots)

    def run(self) -> MemoryExperimentResult:
        """Run every chunk in-process and merge (the serial reference path)."""
        return merge_chunk_results(
            [self.run_chunk(index) for index in range(self.num_chunks)]
        )


#: Every :class:`SweepJob` field, in declaration order (the wire form).
_WIRE_FIELDS = tuple(spec.name for spec in fields(SweepJob))
#: Identity fields that always join :meth:`SweepJob.config_dict`.
_IDENTITY_FIELDS = tuple(
    spec.name for spec in fields(SweepJob) if _ROLE not in spec.metadata
)
#: ``(name, default)`` of the identity fields that join only when non-default.
_IDENTITY_UNLESS_DEFAULT = tuple(
    (spec.name, spec.default)
    for spec in fields(SweepJob)
    if spec.metadata == _UNLESS_DEFAULT
)


def merge_chunk_results(
    parts: Sequence[MemoryExperimentResult],
) -> MemoryExperimentResult:
    """Combine per-chunk results into the whole-job result.

    Chunks must be passed in chunk order; the shot-weighted arithmetic is then
    fixed, so merged statistics are identical no matter which backend (or
    which worker interleaving) produced the parts.
    """
    if not parts:
        raise ValueError("cannot merge zero chunk results")
    first = parts[0]
    if len(parts) == 1:
        return first
    total_shots = sum(part.shots for part in parts)
    lpr_total = np.zeros_like(first.lpr_total)
    lpr_data = np.zeros_like(first.lpr_data)
    lpr_parity = np.zeros_like(first.lpr_parity)
    speculation = first.speculation
    logical_errors = 0
    total_lrcs = 0.0
    decode = first.logical_errors >= 0
    for index, part in enumerate(parts):
        if part.rounds != first.rounds or part.policy != first.policy:
            raise ValueError("chunk results describe different configurations")
        lpr_total += part.lpr_total * part.shots
        lpr_data += part.lpr_data * part.shots
        lpr_parity += part.lpr_parity * part.shots
        total_lrcs += part.lrcs_per_round * part.shots * part.rounds
        logical_errors += max(part.logical_errors, 0)
        if index:
            speculation = speculation.merge(part.speculation)
    return MemoryExperimentResult(
        policy=first.policy,
        distance=first.distance,
        rounds=first.rounds,
        physical_error_rate=first.physical_error_rate,
        shots=total_shots,
        logical_errors=logical_errors if decode else -1,
        lpr_total=lpr_total / total_shots,
        lpr_data=lpr_data / total_shots,
        lpr_parity=lpr_parity / total_shots,
        lrcs_per_round=total_lrcs / (total_shots * first.rounds),
        speculation=speculation,
        metadata=dict(first.metadata),
    )


def resolve_rounds(distance: int, cycles: Optional[int], rounds: Optional[int]) -> int:
    """Normalise the paper's ``cycles`` convention (1 cycle = d rounds)."""
    if rounds is not None:
        return int(rounds)
    if cycles is None:
        raise ValueError("provide either rounds or cycles")
    return int(cycles) * int(distance)


def root_entropy(seed: RngLike) -> int:
    """Derive the plan-level entropy from any accepted seed form.

    Integers pass through (so identical user seeds address identical cache
    entries); ``None`` draws fresh OS entropy (unseeded sweeps stay random
    between invocations but remain internally deterministic); a live
    ``Generator`` contributes one draw from its stream.
    """
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**63))
    entropy = np.random.SeedSequence(seed).entropy
    return int(entropy)


@dataclass
class SweepPlan:
    """An ordered list of jobs sharing one root seed derivation."""

    jobs: List[SweepJob] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        configs: Sequence[Dict[str, object]],
        seed: RngLike = None,
        chunk_shots: Optional[int] = None,
    ) -> "SweepPlan":
        """Turn a list of configuration dicts into seeded jobs.

        Each config supplies ``distance``, ``policy``, ``shots`` and either
        ``cycles`` or ``rounds``, plus any optional :class:`SweepJob` field.
        Job ``i`` receives spawn key ``(i,)`` under the shared root entropy.
        """
        entropy = root_entropy(seed)
        chunk = DEFAULT_CHUNK_SHOTS if chunk_shots is None else int(chunk_shots)
        jobs = []
        for index, config in enumerate(configs):
            config = dict(config)
            distance = int(config.pop("distance"))
            cycles = config.pop("cycles", None)
            rounds = resolve_rounds(distance, cycles, config.pop("rounds", None))
            jobs.append(
                SweepJob(
                    distance=distance,
                    rounds=rounds,
                    seed_entropy=entropy,
                    spawn_key=(index,),
                    chunk_shots=chunk,
                    **config,
                )
            )
        return cls(jobs)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[SweepJob]:
        return iter(self.jobs)

    @property
    def total_shots(self) -> int:
        return sum(job.shots for job in self.jobs)

    @property
    def total_chunks(self) -> int:
        return sum(job.num_chunks for job in self.jobs)

    def with_seed(self, seed: RngLike) -> "SweepPlan":
        """The same grid re-derived from a different root seed."""
        entropy = root_entropy(seed)
        return SweepPlan([replace(job, seed_entropy=entropy) for job in self.jobs])

    def to_wire(self) -> Dict[str, object]:
        """JSON form of the whole plan (the sweep-service submit body)."""
        return {"jobs": [job.to_wire() for job in self.jobs]}

    @classmethod
    def from_wire(cls, payload: Dict[str, object]) -> "SweepPlan":
        """Rebuild a plan from :meth:`to_wire` (inverse, bit-identical)."""
        return cls([SweepJob.from_wire(job) for job in payload.get("jobs", [])])
