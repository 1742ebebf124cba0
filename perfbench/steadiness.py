"""Steadiness report: run the benchmark repeatedly, one seed per run, and
print the median and quartiles of every end-to-end metric.

    python3 perfbench/steadiness.py --runs 10 --first-seed 100 [--workloads gin-dense,theorem]

Run from the root of a source checkout.  Runs are sequential, so at most
one benchmark (and so one ginalg process) runs at a time.  For each metric
the spread is (Q3 - Q1) / median over the runs, with the quartiles of
`statistics.quantiles(values, n=4)`, printed beside the bound from
BENCHMARK.json.  With --out, the per-run results and the summary are also
written as JSON, with the platform they were measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict[str, dict] = {
        "machine": {"platform": platform.platform(), "python": platform.python_version(), "cpus": os.cpu_count()}
    }
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = [sys.executable, str(ROOT / spec["command"][1]), *spec["command"][2:]]
            command += ["--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
            if done.returncode != 0 or not done.stdout.strip():
                print(f"{workload} seed {seed}: benchmark exited {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}", flush=True)
            steady &= done.returncode == 0 and result["correct"]
        summary = {}
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            summary[name] = {**stats, "bound": bound}
            mark = "ok" if stats["spread"] < bound / 3 or name == "setup_s" else "WIDE"
            steady &= mark == "ok"
            print(
                f"  {workload:10s} {name:12s} median {stats['median']:.5g}  "
                f"Q1 {stats['q1']:.5g}  Q3 {stats['q3']:.5g}  spread {stats['spread']:.3f}  bound {bound}  {mark}"
            )
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print("steady" if steady else "NOT steady: some spread is above a third of its bound, or a run failed")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
