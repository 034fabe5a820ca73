"""cpumap benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload fixed-point --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory.  After set-up and one untimed warm-up batch, the workload's
fixed batch of items runs again and again until ``--seconds`` have passed
(at least twice).  Every item's outputs are checked; a failed check or an
unexpected exception counts against that item and the run goes on.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced batches: the traced ones
give per-layer busy time and calls for every public function called, the
untraced ones the base of ``trace.overhead_ratio``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TMP_PARENT = ROOT / ".perfbench_tmp"
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PAIRS = 9
GENERATE_REPEATS = 5
MIN_BATCHES = 2
# Times are reported in reference-host seconds.  Batch, item and generation
# times are measured seconds times PROBE_REFERENCE_S over the run's mean
# probe time (see probe_seconds).  The import time is the package's import
# over numpy's alone, times NUMPY_IMPORT_REFERENCE_S (see import_seconds).
PROBE_REFERENCE_S = 0.010
NUMPY_IMPORT_REFERENCE_S = 0.100
IMPORT_TIMER = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"

# Public functions the workloads call inside timed batches, by module.
LAYER_FUNCTIONS = {
    "linalg": ("is_psd", "kron", "partial_trace_second"),
    "choi": ("FixedPointSpec", "build_fixed_point_choi", "positivity_bounds",
             "check_unital", "check_fixed_point"),
    "dual_map": ("kraus_from_fixed_point", "unitality_residual", "choi_from_kraus",
                 "apply_dual_kraus", "apply_dual_choi", "idempotence_residual"),
    "battery": ("EnvState", "aligned_env", "env_kraus", "phi", "dual_apply_number",
                "BatteryConfig", "simulate_charging", "swap_unitary"),
    "metric": ("MetricParams", "build_profile"),
    "cli": ("choi-build", "kraus-extract", "metric-profile", "choi-check", "map-apply",
            "evolve", "battery-sim"),
    "selftest": ("run_selftest",),
}
COUNTER_UNITS = {
    "choi.choi_bytes": "bytes",
    "choi.bounds_checks": "count",
    "dual_map.kraus_ops": "count",
    "serialize.bytes_out": "bytes",
    "serialize.bytes_in": "bytes",
    "metric.points": "count",
}


@dataclass
class Batch:
    wall: float
    latencies: list[float]
    failed: int
    counts: Counter
    spans: list | None


def prepare_process() -> None:
    """Pin the BLAS thread count, unset CPUMAP_THREADS and import from src."""
    if not (SRC / "cpumap" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cpumap package under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("CPUMAP_THREADS", None)
    sys.path.insert(0, str(SRC))


def import_seconds(pairs: int) -> float:
    """Import time of the package in fresh interpreters, in reference-host
    seconds.

    Each package import is paired with an import of numpy alone in the
    interpreter started just before it.  A fresh interpreter's import time
    follows the host's load more closely than any in-process probe does;
    the ratio of a pair cancels that load, and the median over the pairs
    is scaled to a host that imports numpy in NUMPY_IMPORT_REFERENCE_S.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def timed(modules: str) -> float:
        done = subprocess.run([sys.executable, "-c", IMPORT_TIMER.format(modules)], env=env,
                              cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        return float(done.stdout)

    ratios = []
    for _ in range(pairs):
        numpy_alone = timed("numpy")
        ratios.append(timed("cpumap, cpumap.cli, cpumap.selftest") / numpy_alone)
    return statistics.median(ratios) * NUMPY_IMPORT_REFERENCE_S


def probe_seconds() -> float:
    """Time a fixed computation that does not involve cpumap.

    It mixes a pure-Python loop with small LAPACK and BLAS calls, the two
    kinds of work the workloads do, so its time follows the host's speed.
    On a shared host that speed can drift by a quarter within minutes, and
    scaling by the probe keeps that drift out of the reported times.
    """
    import numpy as np

    n = np.arange(48.0)
    h = np.add.outer(n, n) % 7.0 + 1j * np.sign(np.subtract.outer(n, n))
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    for _ in range(12):
        np.linalg.eigvalsh(h)
        h @ h
    return time.perf_counter() - start


def git_sha() -> str:
    """Commit of the checkout, or "unknown" outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "CPUMAP_THREADS": os.environ.get("CPUMAP_THREADS"),
        "git": git_sha(),
        "seed": seed,
    }


def run_batch(items, api, spans) -> Batch:
    from workloads import CheckFailed

    api.spans = spans
    counts: Counter = Counter()
    latencies, failed = [], 0
    start = time.perf_counter()
    for index, item in enumerate(items):
        began = time.perf_counter()
        try:
            item(api, counts)
        except CheckFailed as exc:
            failed += 1
            print(f"perfbench: item {index} failed: {exc}", file=sys.stderr)
        except Exception:
            failed += 1
            print(f"perfbench: item {index} raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
        latencies.append(time.perf_counter() - began)
    return Batch(time.perf_counter() - start, latencies, failed, counts, spans)


def end_to_end(setup_s: float, batches: list[Batch], speed: float) -> dict:
    latencies = [x for b in batches for x in b.latencies]
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "setup_s": (setup_s, "s"),
        # the mean, not the median: on a shared host the CPU's speed can
        # switch between states that last seconds, and the median of batch
        # times jumps from one state to the other where the mean moves smoothly
        "wall_s": (statistics.fmean(b.wall for b in batches) * speed, "s"),
        "item_p50_ms": (deciles[4] * speed * 1e3, "ms"),
        "item_p90_ms": (deciles[8] * speed * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(timed: list[Batch], speed: float, probe: float) -> dict:
    """Per-batch means over the traced batches, which alternate with
    untraced ones starting with an untraced batch."""
    import tracing

    traced = timed[1::2]
    k = len(traced)
    table = tracing.summarize([s for b in traced for s in b.spans])
    counts = sum((b.counts for b in traced), Counter())
    metrics = {}
    for module, functions in LAYER_FUNCTIONS.items():
        for key in (*(f"{module}.{fn}" for fn in functions), module):
            busy, calls = table.get(key, (0.0, 0))
            metrics[f"{key}.busy_s"] = (busy / k * speed, "s")
            metrics[f"{key}.calls"] = (calls / k, "count")
    for key, unit in COUNTER_UNITS.items():
        metrics[key] = (counts[key] / k, unit)
    checks, points = counts["choi.bounds_checks"], counts["metric.points"]
    metrics["choi.bounds_agree_ratio"] = (counts["choi.bounds_agree"] / checks if checks else 0.0, "ratio")
    metrics["metric.clipped_ratio"] = (counts["metric.clipped"] / points if points else 0.0, "ratio")
    busy_total = sum(end - start for b in traced for _, start, end in b.spans)
    metrics["bench.self_s"] = ((sum(b.wall for b in traced) - busy_total) / k * speed, "s")
    metrics["bench.probe_ms"] = (probe * 1e3, "ms")
    # each traced batch against the mean of the untraced batches either side
    # of it, which cancels a steady drift of the host's speed across the three
    overhead = statistics.median(
        timed[i].wall / statistics.fmean(b.wall for b in timed[i - 1:i + 2:2])
        for i in range(1, len(timed), 2))
    metrics["trace.overhead_ratio"] = (overhead - 1.0, "ratio")
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Set up, warm up and time one workload; return the result object."""
    import cpumap
    import cpumap.cli
    import cpumap.selftest
    import tracing
    import workloads

    make = workloads.WORKLOADS[workload]
    import_s = import_seconds(1 if small else IMPORT_PAIRS)
    TMP_PARENT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=TMP_PARENT) as tmp:
            generation = []
            for rep in range(GENERATE_REPEATS):
                workdir = Path(tmp) / f"inputs{rep}"
                workdir.mkdir()
                began = time.perf_counter()
                items = make(seed, small, workdir)
                generation.append(time.perf_counter() - began)
            # generation has a floor and only ever slows (the first draw also
            # pays for numpy's first calls), so its fastest repeat is steady
            generate_s = min(generation)

            api = tracing.Api(cpumap, cpumap.cli, cpumap.selftest)
            probes = [probe_seconds()]
            warmup = run_batch(items, api, None)
            timed: list[Batch] = []
            start = time.perf_counter()
            while len(timed) < MIN_BATCHES or time.perf_counter() - start < seconds:
                traced = trace and len(timed) % 2 == 1
                probes.append(probe_seconds())
                timed.append(run_batch(items, api, [] if traced else None))
    finally:
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass

    probe = statistics.fmean(probes)
    speed = PROBE_REFERENCE_S / probe
    setup_s = import_s + generate_s * speed
    if trace:
        metrics = per_layer(timed, speed, probe)
    else:
        metrics = end_to_end(setup_s, timed, speed)
    failed = warmup.failed + sum(b.failed for b in timed)
    return {
        "correct": failed == 0,
        "attempted": len(items) * (1 + len(timed)),
        "failed": failed,
        "batches": len(timed),
        "probe_s": probe,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    prepare_process()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps({"workload": args.workload, **environment(args.seed)}))
    print(f"batches {result['batches']} items {result['attempted']} "
          f"(warm-up included) failed {result['failed']}")
    print(f"fail_ratio {result['failed'] / result['attempted']!r} ratio")
    print(f"probe_ms {result['probe_s'] * 1e3!r} ms (times below are scaled by "
          f"{PROBE_REFERENCE_S * 1e3} ms over this)")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
