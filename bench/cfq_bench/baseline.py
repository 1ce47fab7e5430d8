#!/usr/bin/env python3
"""Records the committed baseline: two sets of untraced runs, back to back.

    python3 bench/cfq_bench/baseline.py [--out FILE]

(--out defaults to bench/cfq_bench/baselines/BENCH_cfq.json.)

For every workload in BENCHMARK.json it makes set A (RUNS runs), then
set B (RUNS more), all with the development seed 1, and writes both as
samples "<workload>/<metric>/A" and ".../B" in the tools/bench_diff
schema, with the commit and hardware of the runs. It prints each
end-to-end metric's set-B median against set A's and exits 1 when one
moved by more than the metric's bound: the benchmark must agree with
itself before it can judge a change.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
RUNS = 3
SEED = 1


def run_once(workload, seed, seconds, out_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--out", out_path],
        stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        sys.exit("%s seed %d failed: %s" % (workload, seed, result))
    with open(out_path) as f:
        return json.load(f)


def summary(name, values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"name": name, "count": len(values),
            "mean": statistics.mean(values), "p99": max(values),
            "min": min(values), "max": max(values),
            "p25": q1, "median": statistics.median(values), "p75": q3}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(
        HERE, "baselines", "BENCH_cfq.json"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    samples, drifted, last = [], [], None
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for workload in [w["name"] for w in spec["workloads"]]:
            sets = {}
            for label in "AB":
                runs = [run_once(workload, SEED, spec["run_seconds"],
                                 os.path.join(tmp, "run.json"))
                        for _ in range(RUNS)]
                last = runs[-1]
                values = {}
                for run in runs:
                    for s in run["samples"]:
                        values.setdefault(s["name"], []).append(s["mean"])
                sets[label] = values
                samples += [summary("%s/%s" % (name, label), v)
                            for name, v in sorted(values.items())]
            for name, m in bounds.items():
                key = "%s/%s" % (workload, name)
                a = statistics.median(sets["A"][key])
                b = statistics.median(sets["B"][key])
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                status = "ok" if worse <= m["bound"] else "DRIFT"
                if status != "ok":
                    drifted.append(key)
                print("%-34s A %-12.5g B %-12.5g worse %+.3f (bound %.2f) %s"
                      % (key, a, b, worse, m["bound"], status))

    config = dict(last["config"], runs_per_set=str(RUNS))
    del config["workload"]
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"bench": "cfq_bench", "commit": last["commit"],
                   "timestamp": last["timestamp"], "config": config,
                   "samples": samples}, f, indent=1)
        f.write("\n")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main())
