#!/usr/bin/env python3
"""Runs the benchmark over many seeds and summarises every end-to-end
metric: median, quartiles, and spread (the distance between the
quartiles over the median), the number BENCHMARK.json's bounds are
judged against.

Run it from the repository root:

  python3 benchmark/spread.py --workload serve-zipf --seeds 1-10
  python3 benchmark/spread.py --sets 2 --out runs.json        # seeds 1-10, twice
  python3 benchmark/spread.py --checkout ../parent --checkout . --seeds 1-10

Every set runs the same seeds, so the shift between two sets' medians
is run-to-run noise alone, not a difference between inputs. With two or
more sets and one checkout, the summary derives each metric's bound (see
bound()).

With several --checkout directories (each a checkout of one commit) the
runs alternate between them seed by seed, flipping which goes first, and
the summary compares each checkout's medians with the first one's and
counts the seeds each wins.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time


def run_once(checkout, workload, seed, seconds):
    out = os.path.join(checkout, ".bench_build", "spread-run.json")
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--out", out]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode != 0:
        sys.exit(f"{checkout}: {workload} seed {seed} failed (exit {proc.returncode}): {last}")
    with open(out) as f:
        full = json.load(f)[0]
    return {"seed": seed, "elapsed_s": elapsed, "result": json.loads(last),
            "machine": full["machine"], "notes": full.get("notes", [])}


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def better(x, y, lower):
    """Whether x beats y; ties count for neither."""
    return x < y if lower else x > y


# TARGET is the bound a metric should hold to; CAP is the largest bound
# BENCHMARK.json allows.
TARGET, CAP = 0.10, 0.25


def bound(spread, shift):
    """A metric's bound before the cap: at least 3%, and twice the wider
    of its widest quartile spread over one set's seeds and its widest
    shift between two sets' medians, each over every workload. Rounded up
    to 0.01."""
    return math.ceil(max(0.03, 2 * shift, 2 * spread) * 100 - 1e-9) / 100


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", help="workload (repeatable; default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", default="1-10", help="seeds as FIRST-LAST")
    ap.add_argument("--sets", type=int, default=1, help="how many times to run the seeds")
    ap.add_argument("--checkout", action="append", help="checkout to run in (repeatable; default: .)")
    ap.add_argument("--out", help="write every run and the summary as JSON")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    checkouts = args.checkout or ["."]
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = range(first, last + 1)

    runs = []  # one per (set, workload, seed, checkout)
    for s in range(args.sets):
        for w in workloads:
            for i, seed in enumerate(seeds):
                order = checkouts if i % 2 == 0 else checkouts[::-1]
                for c in order:
                    r = run_once(c, w, seed, bench["run_seconds"])
                    r.update(set=s, workload=w, checkout=c)
                    runs.append(r)
                    m = r["result"]["metrics"]
                    print(f"set {s} {c} {w} seed {seed} ({r['elapsed_s']:.1f} s, steal {r['machine']['steal_frac']:.4f}): " +
                          " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(m.items())), flush=True)

    summary, bounds = {}, {}
    print()
    for e in bench["end_to_end"]:
        name, lower = e["name"], e["better"] == "lower"
        widest_spread = widest_shift = 0.0
        for w in workloads:
            for c in checkouts:
                for s in range(args.sets):
                    vals = [r["result"]["metrics"][name]["value"] for r in runs
                            if r["workload"] == w and r["checkout"] == c and r["set"] == s]
                    st = summarise(vals)
                    summary.setdefault(w, {}).setdefault(name, {})[f"{c} set {s}"] = st
                    line = (f"{w:15s} {name:14s} {c} set {s}: median {st['median']:.6g} "
                            f"q1 {st['q1']:.6g} q3 {st['q3']:.6g} spread {st['spread']:.4f} (bound {e['bound']})")
                    widest_spread = max(widest_spread, st["spread"])
                    if s > 0:
                        shift = st["median"] / summary[w][name][f"{c} set 0"]["median"] - 1
                        widest_shift = max(widest_shift, abs(shift))
                        line += f"  shift from set 0: {shift:+.4f}"
                    if c != checkouts[0]:
                        base = summary[w][name][f"{checkouts[0]} set {s}"]["median"]
                        pairs = [(a, b) for a in runs for b in runs
                                 if a["workload"] == b["workload"] == w and a["set"] == b["set"] == s
                                 and a["seed"] == b["seed"] and a["checkout"] == checkouts[0] and b["checkout"] == c]
                        wins = sum(better(b["result"]["metrics"][name]["value"],
                                          a["result"]["metrics"][name]["value"], lower) for a, b in pairs)
                        line += f"  vs {checkouts[0]}: {st['median'] / base - 1:+.4f}, wins {wins}/{len(pairs)}"
                    print(line)
        derived = bound(widest_spread, widest_shift)
        bounds[name] = {"derived": derived, "bound": min(CAP, derived),
                        "widest_spread": round(widest_spread, 4), "widest_shift": round(widest_shift, 4)}

    if args.sets > 1 and len(checkouts) == 1:
        # setup_s gets the largest bound, so that work moved into set-up
        # shows only beyond every other metric's bound.
        if "setup_s" in bounds:
            bounds["setup_s"]["bound"] = max(b["bound"] for b in bounds.values())
        print()
        for name, b in bounds.items():
            over = f"  above the {TARGET} target" if b["derived"] > TARGET else ""
            print(f"bound {name:14s} {b['bound']:.2f}, derived {b['derived']:.2f} (widest spread "
                  f"{b['widest_spread']:.4f}, widest shift {b['widest_shift']:.4f}){over}")
    total = sum(r["elapsed_s"] for r in runs)
    print(f"\n{len(runs)} runs in {total:.0f} s; per workload, mean s per run: " +
          ", ".join(f"{w} {statistics.mean(r['elapsed_s'] for r in runs if r['workload'] == w):.1f}" for w in workloads))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"run_seconds": bench["run_seconds"], "machine": runs[0]["machine"],
                       "summary": summary, "bounds": bounds, "runs": runs}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
