"""Run every workload and print each metric by name, with its unit.

    python3 perfbench/report.py                      # one run per workload
    python3 perfbench/report.py --seeds 1 2 3 4 5    # spread over seeds
    python3 perfbench/report.py --trace 1            # per-layer metrics

Each run is a separate ``run.py`` process, one after another.  With several
seeds, a metric's spread is the distance between the first and third
quartiles of its values (``statistics.quantiles(n=4)``) over their median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("certify", "junta-sweep", "stats-exact", "sample-large")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``run.py`` process; its run record plus the result line."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    record = next(json.loads(l[7:]) for l in lines if l.startswith("record "))
    record["result"] = json.loads(lines[-1])
    record["run_wall_s"] = time.perf_counter() - start
    return record


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def summarize(workload: str, records: list[dict]):
    first = records[0]
    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    print(f"\n== {workload}: {len(records)} run(s), seeds "
          f"{[r['seed'] for r in records]}, correct={all(r['correct'] for r in records)}")
    for name, metric in first["metrics"].items():
        values = [r["metrics"][name]["value"] for r in records]
        if first["trace"] and not any(values):
            continue
        median, q1, q3, rel = spread(values)
        print(f"  {name:52s} {median:12.6g} {metric['unit']:9s}"
              + (f" q1 {q1:.6g} q3 {q3:.6g} spread {rel:.3f}" if len(values) > 1 else ""))
    print(f"  {'fail_frac':52s} {failed / attempted:12.6g} {'ratio':9s} "
          f"({failed} of {attempted} ops)")
    if not first["trace"]:
        ops = [r["ops"] for r in records]
        pct = [r["op_s_tail_percentile"] for r in records]
        print(f"  ops per run {ops}; op_s_tail percentile {[round(p, 1) for p in pct]}; "
              f"setup_s is the median of {len(first['setup_samples_s'])} set-ups")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=float,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write every run record here as JSON")
    args = parser.parse_args(argv)

    all_records = {}
    for workload in args.workloads:
        records = [run_once(workload, s, args.seconds, args.trace) for s in args.seeds]
        all_records[workload] = records
        summarize(workload, records)
    if args.out:
        args.out.write_text(json.dumps(all_records, indent=1) + "\n")
    return 0 if all(r["correct"] for rs in all_records.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
