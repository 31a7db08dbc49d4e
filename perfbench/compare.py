#!/usr/bin/env python3
"""Compare two sets of benchmark results: a parent commit and a change.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of untraced result files written by
``perfbench/run.py`` (``perfbench/out/results/`` of each checkout) or a single
result file.  For every workload and end-to-end metric in BENCHMARK.json it
prints each side's median and quartiles over the runs, the share of pairs
the change won, and a label:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile distance;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's own spread is wider than the bound, unless every
              change run reads better than every parent run;
  unchanged   otherwise.

Runs are paired by seed where both sides have it, and in seed order for the
rest.  Exit code 0, or 2 when an argument holds no usable results.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from summary import quartiles

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> dict[str, list[dict]]:
    """Correct untraced runs by workload, sorted by seed."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        if record.get("trace") == 0 and record.get("correct"):
            by_workload[record["workload"]].append(record)
    for runs in by_workload.values():
        runs.sort(key=lambda r: r["seed"])
    return by_workload


def pair(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Same-seed pairs first, then the remaining runs in seed order."""
    pool: dict[int, list[dict]] = defaultdict(list)
    for run in change:
        pool[run["seed"]].append(run)
    pairs, rest = [], []
    for run in parent:
        if pool[run["seed"]]:
            pairs.append((run, pool[run["seed"]].pop(0)))
        else:
            rest.append(run)
    leftover = sorted((r for runs in pool.values() for r in runs), key=lambda r: r["seed"])
    return pairs + list(zip(rest, leftover))


def judge(parent: list[float], change: list[float], pairs: list[tuple[float, float]], better: str, bound: float) -> tuple[str, float]:
    """Label and share of pairs won, by the rule in the module docstring."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (a - b) > 0 means a is worse
    q1_p, med_p, q3_p = quartiles(parent)
    med_c = quartiles(change)[1]
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    share = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (med_c - med_p) / abs(med_p) if med_p else 0.0
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if share >= 0.9 and sign * (med_p - med_c) > q3_p - q1_p:
        return "improved", share
    if worse_by > bound:
        return "regressed", share
    if (q3_p - q1_p) / abs(med_p) > bound and not all_better:
        return "unresolved", share
    return "unchanged", share


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare parent and change benchmark results.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        print("error: each side needs at least one correct untraced result file", file=sys.stderr)
        return 2
    header = f"{'workload':8s} {'metric':16s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} {'runs':>7s} {'won':>5s}  label"
    print(header)
    for workload in sorted(set(parent) | set(change)):
        runs_p, runs_c = parent.get(workload, []), change.get(workload, [])
        if not runs_p or not runs_c:
            print(f"{workload:8s} missing on the {'parent' if not runs_p else 'change'} side")
            continue
        pairs = pair(runs_p, runs_c)
        for metric in metrics:
            name = metric["name"]
            value = lambda r: r["metrics"][name]["value"]
            vp, vc = [value(r) for r in runs_p], [value(r) for r in runs_c]
            label, share = judge(vp, vc, [(value(p), value(c)) for p, c in pairs], metric["better"], metric["bound"])
            sides = []
            for values in (vp, vc):
                q1, med, q3 = quartiles(values)
                sides.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {metric['unit']}")
            print(f"{workload:8s} {name:16s} {sides[0]:>34s} {sides[1]:>34s} {len(vp):>3d}/{len(vc):<3d} {share:5.0%}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
