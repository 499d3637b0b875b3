"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/prove.py --seeds 10 [--workloads fast-tail,cli] [--trace 0|1]
                               [--write perfbench/baseline.json]

For every workload and metric it prints the median of the runs, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json.  A spread
above its bound (setup_s excepted) makes the exit code 1.  ``--write``
stores the runs and the summary as JSON, merged into an existing file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2])["run"], "result": json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", default="")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else names
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    report, status = {}, 0
    for workload in chosen:
        runs = [run_once(workload, seed, spec["run_seconds"], args.trace) for seed in seeds]
        metrics = runs[0]["result"]["metrics"]
        summary = {name: summarise([r["result"]["metrics"][name]["value"] for r in runs]) for name in metrics}
        report[workload] = {
            "seeds": seeds,
            "correct": [r["result"]["correct"] for r in runs],
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "calibration_s": [r["info"]["calibration_s"] for r in runs],
            "metrics": summary,
        }
        print(f"{workload}: correct {report[workload]['correct'].count(True)}/{len(runs)}, "
              f"failed {report[workload]['failed']}")
        for name, s in summary.items():
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None:
                flag = "ok" if s["spread"] <= bound / 3 else ("within bound" if s["spread"] <= bound else "TOO WIDE")
                if s["spread"] > bound and name != "setup_s":
                    status = 1
            if args.trace == 0 or s["median"]:
                print(f"  {name:45s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                      f"spread {s['spread']:.3f} {'' if bound is None else f'(bound {bound})'} {flag}")
        sys.stdout.flush()

    if args.write:
        path = ROOT / args.write
        doc = json.loads(path.read_text()) if path.exists() else {}
        section = doc.setdefault("per_layer" if args.trace else "end_to_end", {})
        section.update(report)
        doc["run_seconds"] = spec["run_seconds"]
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
