"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1                  # each workload once
    python3 perfbench/sweep.py --seeds 10                 # quartile spreads
    python3 perfbench/sweep.py --seeds 3 --trace 1        # per-layer numbers
    python3 perfbench/sweep.py --seeds 10 --record seed   # add to trajectory.json

Runs the command in BENCHMARK.json for every workload it lists, with seeds
1, 2, ..., interleaving workloads so that a slow spell of the machine hits
all of them alike.  For each metric it prints the median and, from two seeds
on, the quartiles (``statistics.quantiles``, n=4) and the spread, the
interquartile distance as a share of the median.  An end-to-end spread is
marked ``ok`` below a third of the metric's bound, ``wide`` below the bound
and ``OVER`` above it.  ``--record LABEL`` appends the summary, the
environment and every run's result digest to trajectory.json in this
directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    info = next(json.loads(line[5:]) for line in lines if line.startswith("info "))
    return json.loads(lines[-1]), info


def summarise(values):
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values)}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", metavar="LABEL")
    args = ap.parse_args(argv)
    if args.seeds < 1:
        ap.error("need at least 1 seed")

    seeds = range(1, 1 + args.seeds)
    seconds = bench["run_seconds"]
    runs = {w: [] for w in names}
    digests = {w: {} for w in names}
    raw = {w: {"raw_draws_per_s": [], "raw_setup_s": []} for w in names}
    environment = None
    for seed in seeds:
        for w in names:
            result, info = run_once(bench, w, seed, seconds, args.trace)
            environment = environment or info["environment"]
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
            runs[w].append(result)
            digests[w][seed] = info["result_digest"]
            if not args.trace:
                for key, values in raw[w].items():
                    values.append(info[key])

    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[key]}
    summary = {}
    for w in names:
        summary[w] = {}
        attempted = sum(r["attempted"] for r in runs[w])
        failed = sum(r["failed"] for r in runs[w])
        print(f"{w}  ({len(runs[w])} runs of {seconds} s, {attempted} calls)")
        print(f"  {'failed_ratio':40s} {failed / attempted:12.6g} ratio")
        rows = [(m, [r["metrics"][m]["value"] for r in runs[w]],
                 runs[w][0]["metrics"][m]["unit"]) for m in bounds]
        if not args.trace:
            rows += [("raw_draws_per_s", raw[w]["raw_draws_per_s"], "1/s"),
                     ("raw_setup_s", raw[w]["raw_setup_s"], "s")]
        for metric, values, unit in rows:
            row = dict(summarise(values), unit=unit)
            summary[w][metric] = row
            line = f"  {metric:40s} {row['median']:12.6g} {unit:14s}"
            if "spread" in row:
                bound = bounds.get(metric)
                mark = ("" if bound is None else "ok" if row["spread"] < bound / 3
                        else "wide" if row["spread"] <= bound else "OVER")
                line += (f" q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  "
                         f"spread {row['spread']:.3f}  {mark}")
            print(line)

    if args.record:
        path = HERE / "trajectory.json"
        points = json.loads(path.read_text()) if path.exists() else []
        points.append({"label": args.record, "trace": args.trace,
                       "run_seconds": seconds, "seeds": list(seeds),
                       "environment": environment, "metrics": summary,
                       "result_digests": digests})
        path.write_text(json.dumps(points, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
