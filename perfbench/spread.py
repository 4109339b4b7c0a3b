#!/usr/bin/env python3
"""Checks that the benchmark is steady across seeds.

Runs the end-to-end benchmark once per seed on each workload and prints,
for every end-to-end metric, the median of the runs and the distance
between the first and third quartile as a share of that median, next to
the metric's bound from BENCHMARK.json. A spread at or above a third of
the bound is flagged (setup_s excepted: only its median is compared).

  python3 perfbench/spread.py --seeds 1-10 --out set1.json
  python3 perfbench/spread.py --seeds 11-20 --against set1.json

--against compares this set's medians with an earlier --out file and
flags every metric whose median got worse by more than its bound.
Run from the root of the repository; exits non-zero on any flag or
failed run.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()

    values = {}
    bad = 0
    for w in args.workloads.split(","):
        for s in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            if p.returncode != 0 or not last.startswith("{"):
                print(f"{w} seed {s}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
                bad += 1
                continue
            res = json.loads(last)
            for m, v in res["metrics"].items():
                values.setdefault(w, {}).setdefault(m, []).append(v["value"])
            print(f"{w} seed {s}: " + " ".join(
                f"{m}={v['value']:.4g}" for m, v in sorted(res["metrics"].items())), flush=True)

    earlier = json.load(open(args.against)) if args.against else {}
    for w, ms in values.items():
        print(f"== {w}")
        for spec in bench["end_to_end"]:
            m, bound = spec["name"], spec["bound"]
            vs = ms.get(m, [])
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if m != "setup_s" and spread >= bound / 3:
                flag = " SPREAD"
            if w in earlier and m in earlier[w]:
                old = statistics.median(earlier[w][m])
                worse = (med - old) / old if spec["better"] == "lower" else (old - med) / old
                flag += f" vs-earlier {worse:+.3f}" + (" WORSE" if worse > bound else "")
            bad += "SPREAD" in flag or "WORSE" in flag
            print(f"  {m:20s} median {med:12.6g}  spread {spread:.4f}  bound {bound}{flag}")
    if args.out:
        json.dump(values, open(args.out, "w"))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
