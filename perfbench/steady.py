#!/usr/bin/env python3
"""Measure how steady the benchmark is.

Run from the root of the repository:

    python3 perfbench/steady.py                      # every workload
    python3 perfbench/steady.py --workload serve     # one workload

Each workload runs in two batches of ten untraced runs of run_seconds
(BENCHMARK.json), the batches interleaved run by run, each run with its
own seed (batch A uses seeds 1..10, batch B seeds 101..110). For every
end-to-end metric the script prints each batch's median and quartiles
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median, and the drift
of batch B's median from batch A's in the metric's worse direction. A
metric passes when every spread is within its bound in BENCHMARK.json and
the drift is within the bound too. It also checks that every run's share of failed ops
is the same. The runs' results are written, one JSON object per line, to
<build dir>/steady.jsonl; the exit code is 1 if any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BATCHES = 2
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        raise SystemExit(f"steady.py: {workload} seed {seed} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable); default every workload")
    args = p.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    log = open(os.path.join(build_dir, "steady.jsonl"), "w")

    results = {w: [[] for _ in range(BATCHES)] for w in workloads}
    for i in range(RUNS):
        for w in workloads:
            for b in range(BATCHES):
                seed = 1 + i + 100 * b
                r = run_once(w, seed, bench["run_seconds"])
                results[w][b].append(r)
                log.write(json.dumps({"workload": w, "batch": b, "seed": seed, "result": r}) + "\n")
                log.flush()
                print(f"{w} batch {'AB'[b]} seed {seed}: attempted {r['attempted']} failed {r['failed']}",
                      file=sys.stderr)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        shares = {r["failed"] / r["attempted"] for batch in results[w] for r in batch}
        if len(shares) != 1 or not all(r["correct"] for batch in results[w] for r in batch):
            ok = False
            print(f"  FAIL: failed-op shares {sorted(shares)} or an incorrect run")
        print(f"  {'metric':<16} {'batch':<5} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  drift")
        for name, m in metrics.items():
            meds = []
            for b, batch in enumerate(results[w]):
                vals = [r["metrics"][name]["value"] for r in batch]
                q1, q2, q3 = quartiles(vals)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                meds.append(q2)
                bad = spread > m["bound"]
                ok = ok and not bad
                drift = ""
                if b == 1:
                    worse = (meds[1] - meds[0]) / meds[0]
                    if m["better"] == "higher":
                        worse = -worse
                    drift = f"{100 * worse:+.1f}%"
                    if worse > m["bound"]:
                        drift += " FAIL"
                        ok = False
                print(f"  {name:<16} {'AB'[b]:<5} {q2:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                      f"{100 * spread:>7.1f}% {m['bound']:>6}  {drift}{' FAIL' if bad else ''}")
    print("\nsteady: " + ("all checks pass" if ok else "some checks FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
