"""Run every workload over seeds 1..10 and summarize the results.

    python3 perfbench/baseline.py [--out FILE]

Each run is a fresh ``perfbench/run.py`` process with the settings in
BENCHMARK.json.  For every workload and end-to-end metric this prints the
median over the seeds, the quartiles and the spread (interquartile range
over the median) against the metric's bound; one traced run per workload
then gives the per-layer table.  ``--out`` writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark process; returns (environment, result)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=600)
    lines = done.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def summarize(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    report = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in bench["workloads"]:
        name = workload["name"]
        results = []
        for seed in report["seeds"]:
            env, result = run(name, seed, seconds, 0)
            results.append(result)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {"why": workload["why"], "fail_ratio": failed / attempted,
                 "attempted": attempted, "end_to_end": {}}
        print(f"{name}: fail_ratio {failed / attempted} ({failed}/{attempted})")
        for metric, bound in bounds.items():
            stats = summarize([r["metrics"][metric]["value"] for r in results], bound)
            entry["end_to_end"][metric] = {"unit": units[metric], **stats}
            flag = "" if stats["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {metric} median {stats['median']:.6g} {units[metric]} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} "
                  f"spread {stats['spread']:.4f} bound {bound}{flag}")
        _, traced = run(name, report["seeds"][0], seconds, 1)
        entry["per_layer"] = traced["metrics"]
        for metric, value in traced["metrics"].items():
            if value["value"]:
                print(f"  {metric} {value['value']:.6g} {value['unit']}")
        report["env"] = {key: env[key] for key in env if key not in ("workload", "seed")}
        report["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
