"""The repository benchmark: one workload per run, end-to-end or traced.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig14-grid --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` alternates an untraced and a traced pass on the same inputs and
reports the per-layer metrics (see ``layers.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Earlier lines print every metric by name with its unit, the
correctness checks and the run's provenance; the same record, and in traced
runs every span, is written under ``.perfbench/out/``.

The exit code is 0 only when every correctness check passed and no operation
failed; a checkout without the program's sources exits 2 before measuring.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

from speed import SAMPLER

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics: name -> unit.  Every untraced run reports all of them.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "warm_wall_s": "s",
    "shots_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Fresh processes timed from spawn to ready; ``setup_s`` is their median.
SETUP_PROBES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="internal: set up, print READY, tear down")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(args, workload) -> Dict[str, object]:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params(),
    }


def probe_setup(args, env) -> Tuple[float, float]:
    """(raw, reference-speed) seconds from spawning a process until it is ready.

    The child samples its own CPU speed while it sets up and reports the
    scale factor and the time its probes took with the ``READY`` line.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env) as child:
        watchdog = threading.Timer(150, child.kill)
        watchdog.start()
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait()
        finally:
            watchdog.cancel()
    fields = line.split()
    if code != 0 or len(fields) != 3 or fields[0] != "READY":
        raise RuntimeError(f"set-up probe failed (exit {code})")
    scale, spent = float(fields[1]), float(fields[2])
    return elapsed, (elapsed - spent) * scale


class Run:
    """Accumulates pass results, checks and failures for one benchmark run."""

    def __init__(self) -> None:
        self.passes: List = []
        self.layer_passes: List[Dict[str, float]] = []
        self.checks: Dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.setup: List[Tuple[float, float]] = []

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def record(self, result, measured: bool = True) -> None:
        """Count a pass's operations and checks; keep its times if ``measured``."""
        if measured:
            self.passes.append(result)
        self.attempted += result.attempted
        self.failed += result.failed
        for name, ok in result.checks.items():
            self.check(name, ok)

    def fail(self, ops: int, error: BaseException) -> None:
        self.attempted += ops
        self.failed += ops
        self.errors.append("".join(traceback.format_exception(error)).strip())

    @property
    def correct(self) -> bool:
        return self.failed == 0 and bool(self.passes) and all(self.checks.values())

    def end_to_end(self, scaled: bool) -> Dict[str, float]:
        """End-to-end values, raw or at the reference CPU speed."""
        def times(kind: str) -> List[float]:
            return [
                t * (scale if scaled else 1.0)
                for r in self.passes
                for t, scale in zip(getattr(r, kind), getattr(r, f"{kind}_scale"))
            ]

        fresh, warm = times("fresh"), times("warm")
        setup = [normalised if scaled else raw for raw, normalised in self.setup]
        fresh_time = sum(t for t in fresh if math.isfinite(t))
        return {
            "setup_s": statistics.median(setup) if setup else 0.0,
            "wall_s": statistics.median(fresh) if fresh else 0.0,
            "warm_wall_s": statistics.median(warm) if warm else 0.0,
            "shots_per_s": sum(r.shots for r in self.passes) / fresh_time if fresh_time else 0.0,
            "peak_rss_mb": peak_rss_mb(),
        }


def measured_pass(workload, seed: int):
    """One untraced pass with the speed sampler running."""
    SAMPLER.start()
    try:
        return workload.run_pass(seed, replica=0)
    finally:
        SAMPLER.stop()


def run_passes(args, workload, tracer, run: Run) -> List:
    """Repeat passes until ``--seconds`` is used up; returns untraced passes."""
    from layers import derive
    from tracer import aggregate
    from workloads import sub_seed

    main_thread = threading.get_ident()
    deadline = time.perf_counter() + args.seconds
    untraced: List = []
    index = 0
    last = 0.0
    # A pass starts only if half of the previous one still fits.
    while index == 0 or time.perf_counter() + last / 2 < deadline:
        seed = sub_seed(args.seed, index)
        index += 1
        started = time.perf_counter()
        try:
            plain = measured_pass(workload, seed)
        except Exception as error:  # noqa: BLE001 - reported through failed_ops_frac
            run.fail(workload.planned_ops(seed), error)
            continue
        run.record(plain)
        untraced.append(plain)
        last = time.perf_counter() - started
        if tracer is None:
            continue
        mark = len(tracer.spans)
        tracer.counts.clear()
        tracer.enabled = True
        try:
            traced = workload.run_pass(seed, replica=1)
        except Exception as error:  # noqa: BLE001
            run.fail(workload.planned_ops(seed), error)
            continue
        finally:
            tracer.enabled = False
        run.record(traced, measured=False)
        run.check("traced result digest equals untraced", traced.digest == plain.digest)
        layer = derive(aggregate(tracer.spans[mark:], main_thread), tracer.counts, traced.busy)
        layer.update(traced.layer)
        layer["trace.overhead_frac"] = traced.busy / plain.busy - 1.0 if plain.busy else 0.0
        run.layer_passes.append(layer)
        last = time.perf_counter() - started
    return untraced


def probe_main(args, workloads, scratch: Path) -> int:
    """``--probe-setup``: set up once, report readiness and the CPU speed."""
    workload = workloads.WORKLOADS[args.workload](scratch)
    workload.setup(args.seed)
    SAMPLER.stop()
    print(f"READY {SAMPLER.scale()!r} {SAMPLER.spent!r}", flush=True)
    workload.close()
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # One thread per native library, so the speed sampler, which measures the
    # CPU of the main thread, sees all the work (set before numpy loads).
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    if args.probe_setup:
        SAMPLER.start()
    workdir = ROOT / ".perfbench"
    scratch = workdir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(scratch)
    env = dict(os.environ, TMPDIR=str(scratch))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as error:
        SAMPLER.stop()
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        SAMPLER.stop()
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if workloads.WORKLOADS[args.workload].pin_cpu:
        # Threads and processes started from here on inherit the pinning.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.probe_setup:
        return probe_main(args, workloads, scratch)

    import layers
    from tracer import Tracer

    run = Run()
    for _ in range(SETUP_PROBES):
        try:
            run.setup.append(probe_setup(args, env))
        except (RuntimeError, OSError) as error:
            run.fail(1, error)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(layers.TARGETS)
        layers.install_counters(tracer)
    workload = workloads.WORKLOADS[args.workload](scratch, tracer)
    try:
        workload.setup(args.seed, replicas=2 if args.trace else 1)
        untraced = run_passes(args, workload, tracer, run)
        summary = workload.trace_summary(untraced) if args.trace and untraced else {}
    except Exception as error:  # noqa: BLE001 - the run still reports
        run.fail(1, error)
        summary = {}
    finally:
        workload.close()
        for child in multiprocessing.active_children():
            child.join(timeout=30)

    raw, scaled = run.end_to_end(scaled=False), run.end_to_end(scaled=True)
    end_to_end = {name: scaled[name] if name in workload.cpu_bound else raw[name] for name in raw}
    failed_frac = run.failed / run.attempted if run.attempted else 0.0
    if args.trace:
        units = {name: unit for name, unit, _ in layers.METRICS}
        values = {
            name: statistics.median([p.get(name, 0.0) for p in run.layer_passes])
            if run.layer_passes else 0.0
            for name in units
        }
        values.update(summary)
        values["trace.missing_targets"] = len(tracer.missing)
        values["failed_ops_frac"] = failed_frac
    else:
        units, values = END_TO_END, end_to_end
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}

    record = {
        "provenance": provenance(args, workload),
        "end_to_end": end_to_end,
        "end_to_end_raw": raw,
        "cpu_bound": list(workload.cpu_bound),
        "fresh_scales": [s for r in run.passes for s in r.fresh_scale],
        "setup_samples": run.setup,
        "samples": {"fresh": sum(len(r.fresh) for r in run.passes),
                    "warm": sum(len(r.warm) for r in run.passes),
                    "passes": len(run.passes)},
        "failed_ops_frac": failed_frac,
        "checks": run.checks,
        "errors": run.errors,
        "missing_targets": tracer.missing if tracer else [],
        "metrics": metrics,
    }
    if getattr(workload, "excess_sample", None):
        record["ler_excess_sample"] = dict(zip(("default_failures", "exact_failures", "shots"),
                                               workload.excess_sample))
    out = workdir / "out"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(str(out / f"{stem}-spans.json.gz"))

    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name, ok in run.checks.items():
        print(f"check {'PASS' if ok else 'FAIL'} {name}")
    for error in run.errors:
        print(f"error {error}", file=sys.stderr)
    print(f"samples {json.dumps(record['samples'])} failed_ops_frac {failed_frac:.6g}")
    print("raw (measured) " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items())
          + "; speed factor per cold operation " + ", ".join(
              f"{s:.3f}" for r in run.passes for s in r.fresh_scale))
    if args.trace:
        for name, value in end_to_end.items():
            print(f"untraced {name} {value:.6g} {END_TO_END[name]}")
        shares = sorted((m["value"], n) for n, m in metrics.items() if n.startswith("share."))
        print("layers by share " + ", ".join(f"{n[6:]} {v:.1%}" for v, n in reversed(shares)))
        for name in tracer.missing:
            print(f"missing target {name} (reads as a zero-time layer)")
    if "ler_excess_sample" in record:
        print(f"ler_excess sample {json.dumps(record['ler_excess_sample'])}")
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": run.correct, "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
