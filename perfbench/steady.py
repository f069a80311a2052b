#!/usr/bin/env python3
"""Run each workload on several seeds and report how steady its metrics are.

    python3 perfbench/steady.py [--seeds 10] [--first-seed 1] [--workloads a,b]
                                [--seconds S] [--out FILE] [--samples FILE] [--traced]

For every end-to-end metric of every workload this prints the median, the
quartiles (statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median
and that spread as a share of the metric's bound in BENCHMARK.json. Runs
alternate workloads seed by seed, so slow drift of the host spreads over all
of them. With --out the table is also written to FILE as Markdown.

Every result line is held against BENCHMARK.json: it must report each
declared metric, in its unit, and nothing else. --traced makes one traced
run per workload instead and checks its per-layer metrics the same way.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def check_result(result, declared):
    """Why `result` breaks the result-line rules, or None."""
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"keys {sorted(result)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted is not a whole number >= 1"
    if not isinstance(result["failed"], int):
        return "failed is not a whole number"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        return f"metrics {got} differ from the declared {want}"
    if any(not isinstance(m.get("value"), (int, float)) for m in result["metrics"].values()):
        return "a metric value is not a number"
    return None


def run_once(root, bench, workload, seed, seconds, trace=0):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    wall = time.time() - start
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    why = check_result(result, bench["per_layer" if trace else "end_to_end"])
    if why:
        sys.exit(f"{workload} seed {seed} trace {trace}: {why}")
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{out.stdout}")
    ops = [l for l in lines if l.startswith("op_ms samples: ")]
    samples = [float(v) for v in ops[-1].split(": ", 1)[1].split()] if ops else []
    return result, wall, samples


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--samples", help="write every run's op samples to this JSON file")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.traced:
        for w in workloads:
            result, wall, _ = run_once(root, bench, w, args.first_seed, args.seconds, trace=1)
            print(f"{w} traced: {wall:.1f} s, {len(result['metrics'])} per-layer metrics, "
                  f"attempted {result['attempted']} failed {result['failed']}")
        return

    values = {w: {} for w in workloads}
    walls = {w: [] for w in workloads}
    samples = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in workloads:
            result, wall, ops = run_once(root, bench, w, seed, args.seconds)
            walls[w].append(wall)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            samples[w].append(ops)
            print(f"{w} seed {seed}: {wall:.1f} s", file=sys.stderr, flush=True)

    lines = [f"Seeds {args.first_seed}..{args.first_seed + args.seeds - 1}, "
             f"--seconds {args.seconds}, one run per seed and workload.", "",
             "| workload | metric | median | Q1 | Q3 | spread | bound | spread/bound |",
             "|---|---|---|---|---|---|---|---|"]
    worst = 0.0
    for w in workloads:
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            share = spread / bound if bound else float("nan")
            if name != "setup_s":
                worst = max(worst, share)
            lines.append(f"| {w} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                         f"{spread:.4f} | {bound} | {share:.3f} |")
        lines.append(f"| {w} | run wall s | {statistics.median(walls[w]):.1f} | "
                     f"{min(walls[w]):.1f} | {max(walls[w]):.1f} | | | |")
    lines += ["", f"Largest spread/bound outside setup_s: {worst:.3f}", "",
              "Per-run values, in seed order:", ""]
    for w in workloads:
        for name, vals in values[w].items():
            lines.append(f"- {w} {name}: " + ", ".join(f"{v:.6g}" for v in vals))
    if args.samples:
        with open(args.samples, "w") as f:
            json.dump(samples, f)
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")


if __name__ == "__main__":
    main()
