#!/usr/bin/env python3
"""ABBA comparison of two checkouts on the end-to-end GATEST benchmark.

usage: python3 bench/e2e/compare.py --parent DIR --change DIR --seed N
           [--pairs 10] [--workloads a,b,...] [--build-dir DIR] [--json FILE]

This directory's harness is built twice, once against each checkout's
library, so both sides run identical benchmark code.  For every workload it
then runs --pairs (parent, change) pairs at the given seed, alternating which
side runs first (ABBA), and reports per end-to-end metric each side's median
and quartiles, the fraction of pairs the change won (ties count for neither)
and the first verdict that applies:

  gain         the change won at least 9/10 of the pairs and the medians
               differ by more than the parent's interquartile range
  regression   the change's median is worse than the parent's by more than
               the metric's bound in BENCHMARK.json
  unresolved   a side's spread (IQR / median) is wider than the bound, and
               not every change run beat every parent run
  unchanged    none of the above

Exit status: 0 no regression; 1 a regression, a failed run, or any test-set
digest that differs between the sides; 3 the records' hardware/build
fingerprints differ, so nothing was compared.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ beside the sources
import run as e2e_run  # noqa: E402  (sibling module)

WORKLOADS = ["atpg_seq", "atpg_vec", "atpg_t4", "serve_mixed"]
# Fingerprint fields that must agree; the git revision is expected to differ.
COMPARABLE = ("nproc", "cpu_model", "avx2", "compiler", "build_type")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Classify one metric of one workload; returns (verdict, wins)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gap = sign * (cm - pm)
    if wins >= 0.9 * len(parent) and gap > 0 and abs(cm - pm) > p3 - p1:
        return "gain", wins
    if -gap > bound * abs(pm):
        return "regression", wins
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def unit_key(record):
    return [(u["name"], u["digest"], u["detected"], u["vectors"])
            for u in record["units"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--build-dir",
                    default=os.path.join(e2e_run.ROOT, ".bench_build", "compare"))
    ap.add_argument("--json", help="write every record and verdict here")
    args = ap.parse_args()

    with open(os.path.join(e2e_run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads.split(",")

    sides = {}
    for side in ("parent", "change"):
        outdir = os.path.join(args.build_dir, side)
        sides[side] = (e2e_run.build(outdir, os.path.abspath(getattr(args, side))),
                       outdir)

    records = {w: {"parent": [], "change": []} for w in workloads}
    failures = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                binary, outdir = sides[side]
                rc, rec = e2e_run.run_harness(binary, outdir, w, args.seed,
                                              False, echo=False)
                if rec is None or rc != 0 or not rec["correct"]:
                    failures.append(f"{w} pair {i} {side}: run failed (exit {rc})")
                if rec is not None:
                    records[w][side].append(rec)
                print(f"pair {i + 1}/{args.pairs} {w} {side}: exit {rc}",
                      file=sys.stderr, flush=True)

    prints = {json.dumps({k: r["fingerprint"][k] for k in COMPARABLE}, sort_keys=True)
              for w in workloads for s in ("parent", "change")
              for r in records[w][s]}
    if len(prints) > 1:
        print("refusing to compare: hardware/build fingerprints differ:")
        for p in sorted(prints):
            print("  " + p)
        return 3

    for w in workloads:
        for i, (p, c) in enumerate(zip(records[w]["parent"], records[w]["change"])):
            if unit_key(p) != unit_key(c):
                failures.append(f"{w} pair {i}: test-set digests differ")

    rows = []
    print(f"seed {args.seed}, {args.pairs} ABBA pairs")
    print(f"{'workload':12s} {'metric':15s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>6s}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            name = m["name"]
            par = [r["metrics"][name]["value"] for r in records[w]["parent"]]
            chg = [r["metrics"][name]["value"] for r in records[w]["change"]]
            n = min(len(par), len(chg))
            if n == 0:
                continue
            par, chg = par[:n], chg[:n]
            v, wins = verdict(par, chg, m["better"], m["bound"])
            p1, pm, p3 = quartiles(par)
            c1, cm, c3 = quartiles(chg)
            rows.append({"workload": w, "metric": name, "parent": par,
                         "change": chg, "wins": wins, "verdict": v})
            print(f"{w:12s} {name:15s} {pm:12.6g} [{p1:9.4g}, {p3:9.4g}] "
                  f"{cm:12.6g} [{c1:9.4g}, {c3:9.4g}] {wins:>2d}/{n:<3d}  {v}")

    for f in failures:
        print("FAIL " + f)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"seed": args.seed, "pairs": args.pairs, "rows": rows,
                       "failures": failures, "records": records}, f, indent=1)
    regressed = any(r["verdict"] == "regression" for r in rows)
    return 1 if failures or regressed else 0


if __name__ == "__main__":
    sys.exit(main())
