"""Decoder-artifact store: cold vs artifact-warm startup, per process.

The MWPM decoder (paper Section 5.3) front-loads one table per decoding
graph — the space-time table of :mod:`repro.decoder.matching`, a Dijkstra
row per layer-0 check with frame parities and an ambiguity mask — and every
worker process of a sweep pays that cost again from scratch.  The artifact
store (:mod:`repro.decoder.artifacts`) persists the table once, content-addressed
by the graph identity, and every later process memory-maps them back, so the
fleet shares one physical copy and the startup cost is paid once per
machine, not once per process.

Three lanes are reported per distance:

* **in-process** — best-of-``REPEATS`` wall clock of preparing a fresh
  graph's table with an empty store (cold build) vs a populated store
  (mmap load).  This is the lane the acceptance floor guards: at d=7 the
  warm path must eliminate >= 90% of the cold build time.
* **subprocess** — the same measurement taken inside a child interpreter,
  certifying that the warm start survives process boundaries (the child
  also proves ``frame_table_builds == 0`` via the dispatch counters).
* **decode-on** — end-to-end ``MemoryExperiment.run`` with decoding, cold
  vs artifact-warm, with the shared-graph registry cleared between runs so
  each run pays (or skips) the real per-process startup.

The numbers are written to ``BENCH_artifacts.json`` at the repository root.
Bit-identity of corrections with the store on vs off is certified by
``tests/test_decoder_artifacts.py``; this benchmark only asserts the
startup-time floor.

Environment knobs (see ``conftest.py``): ``ERASER_REPRO_MAX_DISTANCE``
(default 5; the 90% acceptance floor applies when it reaches 7, CI quick
mode is guarded by a looser 50% floor), ``ERASER_REPRO_SHOTS`` for the
decode-on lane, ``ERASER_REPRO_SEED``, and ``ERASER_REPRO_BENCH_OUT`` to
redirect the JSON.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

from conftest import emit

from repro.codes import DEFAULT_CODE_FAMILY, make_code
from repro.core.policies import make_policy
from repro.decoder.artifacts import get_artifact_store
from repro.decoder.graph import DecodingGraph, clear_shared_graphs
from repro.decoder.matching import _all_pairs
from repro.experiments.memory import MemoryExperiment

CYCLES = 2
REPEATS = 3
DECODE_POLICY = "eraser"

#: Acceptance: at d=7 the artifact-warm table preparation must eliminate
#: >= 90% of the cold space-time table build time.  Quick mode (smaller
#: max distance) only guards against losing the edge.
TARGET_DISTANCE = 7
TARGET_REDUCTION = 0.90
QUICK_REDUCTION = 0.50

_CHILD = r"""
import json, sys, time
from repro.codes import make_code
from repro.decoder.artifacts import get_artifact_store
from repro.decoder.graph import DecodingGraph
from repro.decoder.matching import _all_pairs

distance, rounds, store_dir = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
store = get_artifact_store(store_dir) if store_dir else None
graph = DecodingGraph(
    make_code("{family}", distance), rounds, artifact_store=store
)
start = time.perf_counter()
_all_pairs(graph)
print(json.dumps({{
    "prepare_s": time.perf_counter() - start,
    "artifact_hits": graph.artifact_hits,
    "frame_table_builds": graph.frame_table_builds,
    "apsp_builds": graph.apsp_builds,
}}))
""".format(family=DEFAULT_CODE_FAMILY)


def _prepare_time(distance, rounds, store):
    """Best-of-REPEATS wall clock of preparing a fresh graph's table."""
    best = float("inf")
    graph = None
    for _ in range(REPEATS):
        graph = DecodingGraph(
            make_code(DEFAULT_CODE_FAMILY, distance), rounds, artifact_store=store
        )
        start = time.perf_counter()
        _all_pairs(graph)
        best = min(best, time.perf_counter() - start)
    return best, graph


def _child_prepare(distance, rounds, store_dir):
    """The same measurement inside a fresh interpreter (true process cost)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    output = subprocess.run(
        [sys.executable, "-c", _CHILD, str(distance), str(rounds), store_dir or ""],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(output.stdout)


def _decode_run(distance, shots, seed, artifact_dir):
    """End-to-end experiment wall clock, shared-graph registry cleared first."""
    best = float("inf")
    for _ in range(REPEATS):
        clear_shared_graphs()
        experiment = MemoryExperiment(
            distance=distance,
            policy=make_policy(DECODE_POLICY),
            cycles=CYCLES,
            seed=seed,
            decode=True,
            decoder_artifact_dir=artifact_dir,
        )
        start = time.perf_counter()
        result = experiment.run(shots)
        best = min(best, time.perf_counter() - start)
    return best, result


def test_artifact_warm_start(distances, shots, seed):
    rows = []
    report = {
        "workload": {
            "cycles": CYCLES,
            "repeats": REPEATS,
            "shots": shots,
            "seed": seed,
            "code_family": DEFAULT_CODE_FAMILY,
        },
        "distances": {},
    }
    reductions = {}
    with tempfile.TemporaryDirectory() as artifact_dir:
        store = get_artifact_store(artifact_dir)
        for distance in distances:
            rounds = CYCLES * distance
            cold_s, _ = _prepare_time(distance, rounds, None)
            # First warm pass populates the store; measure the loads after it.
            _prepare_time(distance, rounds, store)
            warm_s, warm_graph = _prepare_time(distance, rounds, store)
            assert warm_graph.frame_table_builds == 0, "warm lane rebuilt tables"
            assert warm_graph.artifact_hits >= 1, "warm lane missed the store"

            child_cold = _child_prepare(distance, rounds, None)
            child_warm = _child_prepare(distance, rounds, artifact_dir)
            assert child_warm["frame_table_builds"] == 0, child_warm
            assert child_warm["artifact_hits"] >= 1, child_warm

            reductions[distance] = 1.0 - warm_s / cold_s
            rows.append(
                f"d={distance}  in-process: cold {cold_s * 1e3:8.2f}ms"
                f"  warm {warm_s * 1e3:8.2f}ms  ({100 * reductions[distance]:5.1f}%"
                f" saved)   subprocess: cold {child_cold['prepare_s'] * 1e3:8.2f}ms"
                f"  warm {child_warm['prepare_s'] * 1e3:8.2f}ms"
            )
            report["distances"][str(distance)] = {
                "rounds": rounds,
                "in_process": {
                    "cold_build_s": cold_s,
                    "artifact_warm_s": warm_s,
                    "reduction": reductions[distance],
                },
                "subprocess": {
                    "cold_build_s": child_cold["prepare_s"],
                    "artifact_warm_s": child_warm["prepare_s"],
                    "warm_frame_table_builds": child_warm["frame_table_builds"],
                    "warm_artifact_hits": child_warm["artifact_hits"],
                },
            }

        decode_distance = max(distances)
        cold_dec_s, cold_result = _decode_run(decode_distance, shots, seed, None)
        warm_dec_s, warm_result = _decode_run(
            decode_distance, shots, seed, artifact_dir
        )
        assert cold_result.logical_errors == warm_result.logical_errors, (
            "artifact store changed corrections"
        )
        rows.append(
            f"decode-on d={decode_distance}, {shots} shots: cold"
            f" {cold_dec_s:6.3f}s  warm {warm_dec_s:6.3f}s"
            f"  ({cold_dec_s / warm_dec_s:4.2f}x)"
        )
        report["decode_on"] = {
            "distance": decode_distance,
            "shots": shots,
            "cold_s": cold_dec_s,
            "artifact_warm_s": warm_dec_s,
            "speedup": cold_dec_s / warm_dec_s,
            "logical_error_rate": warm_result.logical_error_rate,
        }
    clear_shared_graphs()

    out_path = os.environ.get(
        "ERASER_REPRO_BENCH_OUT",
        os.path.join(os.path.dirname(__file__), "..", "BENCH_artifacts.json"),
    )
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    emit(
        "Decoder artifact store: cold vs warm table preparation",
        "\n".join(rows + [f"-> {os.path.abspath(out_path)}"]),
    )

    # Regression guard.  Full-size runs (max distance >= 7) must hold the
    # 90% acceptance reduction at d=7; quick mode guards the largest swept
    # distance against losing the edge entirely.
    guard_distance = max(distances)
    floor = TARGET_REDUCTION if guard_distance >= TARGET_DISTANCE else QUICK_REDUCTION
    assert reductions[guard_distance] >= floor, (
        f"artifact warm start lost its edge at d={guard_distance}: "
        f"{reductions} (floor {floor:.0%})"
    )
