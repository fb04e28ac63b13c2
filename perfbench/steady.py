#!/usr/bin/env python3
"""Steadiness report for the benchmark defined in BENCHMARK.json.

Runs every workload (or the ones named) several times, each with its own
seed, and prints for each end-to-end metric its median, quartiles and
spread -- the distance between the first and third quartile as a share of
the median -- next to the metric's bound. A metric whose spread exceeds its
bound does not repeat well enough to gate a change and is flagged UNSTEADY;
drop it or demote it to a per-layer row. With --batches 2 the runs are
repeated with fresh seeds and the report also compares the two medians.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads workflow-v40

Exit status: 0 when every metric, setup_s included, is within its bound
(and, with --batches 2, no median got worse by more than it) and every op
succeeded, 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def worse_by(metric, first, second):
    """Share by which the second median is worse than the first."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and batch")
    ap.add_argument("--seed0", type=int, default=1000, help="first seed; runs count up from it")
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    ap.add_argument("--batches", type=int, default=1, choices=(1, 2))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    metrics = bench["end_to_end"]

    ok = True
    for name in names:
        batches = []
        for b in range(args.batches):
            runs = []
            for i in range(args.runs):
                seed = args.seed0 + b * args.runs + i
                res = run_once(bench, name, seed)
                if not res["correct"] or res["failed"]:
                    print(f"{name} seed {seed}: correct={res['correct']} failed={res['failed']} of {res['attempted']}")
                    ok = False
                runs.append(res)
                print(f"  {name} seed {seed}: " + " ".join(
                    f"{m['name']}={res['metrics'][m['name']]['value']:.6g}" for m in metrics), flush=True)
            batches.append(runs)

        print(f"\n{name} ({args.runs} runs per batch)")
        print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            medians = []
            for b, runs in enumerate(batches):
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                q1, q2, q3, s = spread(values)
                medians.append(q2)
                if s > m["bound"]:
                    verdict = "UNSTEADY"
                    ok = False
                elif s > m["bound"] / 3:
                    verdict = "within bound, above a third of it"
                else:
                    verdict = "ok"
                print(f"{m['name']:<18} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} {s:>8.3f} {m['bound']:>6}  {verdict}"
                      + (f" (batch {b + 1})" if args.batches > 1 else ""))
            if len(medians) == 2:
                w = worse_by(m, medians[0], medians[1])
                flag = "DRIFT" if w > m["bound"] else "ok"
                ok = ok and flag == "ok"
                print(f"{'':<18} second median worse by {w:+.3f} (bound {m['bound']}) {flag}")

    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
