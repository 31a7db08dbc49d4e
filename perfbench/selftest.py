#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs the untraced and the traced measurement on small versions of every
workload (ER with n = 2000, fib level 8) and checks that each run is correct
and emits exactly the metrics of BENCHMARK.json, each with its unit.  Then it
corrupts the CLI's output file after every ``contract`` and checks that the
run counts those operations as failed and exits non-zero, which shows the
output check can fail.  Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run

TINY_SECONDS = 0.5


def _run_captured(workload, traced: bool) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.run(workload, 1, TINY_SECONDS, traced, {}, run.OUT / "selftest")
    return rc, json.loads(out.getvalue().splitlines()[-1])


def _corrupting(run_cli):
    def corrupted(argv):
        rc = run_cli(argv)
        if argv and argv[0] == "contract" and "--out" in argv:
            # recolour vertex 0: the file still parses, to a different graph
            target = Path(argv[argv.index("--out") + 1])
            header, colours, *edges = target.read_text(encoding="utf-8").splitlines()
            first, *rest = colours.split()
            colours = " ".join([str(int(first) + 1), *rest])
            target.write_text("\n".join([header, colours, *edges]) + "\n", encoding="utf-8")
        return rc

    return corrupted


def main() -> int:
    run._import_package()
    from colourcontract import cli

    from harness import Workload

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: list[str] = []
    if expected[False] != run.END_TO_END or expected[True] != run.PER_LAYER:
        problems.append("BENCHMARK.json metrics differ from the ones run.py emits")

    tiny = (
        Workload("er-c4-tiny", n=2000, colours=4),
        Workload("er-c64-tiny", n=2000, colours=64),
        Workload("fib8", level=8),
    )
    for workload in tiny:
        for traced in (False, True):
            rc, result = _run_captured(workload, traced)
            where = f"{workload.name} trace={int(traced)}"
            if rc != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{where}: rc {rc}, result {result}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[traced]:
                problems.append(f"{where}: emitted {units}")
            if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{where}: a metric has no value")
            if traced and workload.level is not None and result["metrics"]["engine.rounds"]["value"] != workload.level:
                problems.append(f"{where}: engine.rounds is not {workload.level}")

    original = cli.run_cli
    cli.run_cli = _corrupting(original)
    try:
        rc, result = _run_captured(tiny[0], False)
    finally:
        cli.run_cli = original
    if rc == 0 or result["correct"] or result["failed"] < 1 or result["failed"] > result["attempted"]:
        problems.append(f"corrupted --out file was not counted as a failure: rc {rc}, result {result}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
