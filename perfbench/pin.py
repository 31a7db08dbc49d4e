#!/usr/bin/env python3
"""Regenerate perfbench/pins.json: sha256 of each workload's input file and of
its serialized final graph, for ER seeds 0-31 and for the seed-free fib level.

    python3 perfbench/pin.py

Run it only when a change is meant to alter the generated inputs or the
contracted output; the benchmark fails every run whose hashes differ.
"""

from __future__ import annotations

import json
import sys

import run

PINNED_SEEDS = range(32)


def main() -> int:
    run._import_package()
    from colourcontract import engine, graph_io

    from harness import WORKLOADS, sha256_text

    pins = {}
    for workload in WORKLOADS.values():
        seeds = [0] if workload.level is not None else PINNED_SEEDS
        for seed in seeds:
            g = workload.build(seed)
            final, _ = engine.contract_to_fixpoint(g)
            key = workload.pin_key(seed)
            pins[key] = {"input": sha256_text(graph_io.serialize_graph(g)), "final": sha256_text(graph_io.serialize_graph(final))}
            print(key, pins[key], flush=True)
    (run.BENCH / "pins.json").write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
