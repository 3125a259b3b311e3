"""Run the benchmark over several seeds and report medians and spreads.

    python3 bench/spread.py [--seeds 1-10] [--out FILE]

For every workload of ``BENCHMARK.json`` it runs the benchmark untraced once
per seed (one run at a time), then prints for each metric the median and the spread, that is the
distance between the first and third quartiles (``statistics.quantiles``
with n=4) as a share of the median, beside the metric's bound and a third
of it.  ``--out`` writes every run's result line and the medians as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", type=seed_list)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    ok = True
    summary = {}
    for workload in (w["name"] for w in contract["workloads"]):
        runs = []
        for seed in args.seeds:
            cmd = contract["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(contract["run_seconds"]),
                                         "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.monotonic() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit("%s seed %d exited %d" % (workload, seed, proc.returncode))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, wall
            runs.append(result)
            ok &= result["correct"]
            print("%s seed %d: wall %.1f s, correct %s, %s" % (
                workload, seed, wall, result["correct"],
                ", ".join("%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)
        medians = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            medians[name] = {"median": med, "spread": spread,
                             "unit": runs[0]["metrics"][name]["unit"]}
            bound = bounds[name]
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            print("  %-12s %-14s median %14.6g  spread %.4f  bound %.2f (third %.3f) %s"
                  % (workload, name, med, spread, bound, bound / 3, flag))
        summary[workload] = {"medians": medians, "runs": runs,
                             "max_wall_s": max(r["wall_s"] for r in runs)}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
