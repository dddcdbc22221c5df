#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json at tiny size, untraced and
traced, and checks that each run succeeds and that its last stdout line
holds exactly `correct`, `attempted`, `failed` and `metrics`, with every
metric BENCHMARK.json names for that mode printed exactly once, with its
unit, under a name matching [A-Za-z0-9_.-]+.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dupes = {k for k in keys if keys.count(k) > 1}
    if dupes:
        raise ValueError(f"duplicate keys: {sorted(dupes)}")
    return dict(pairs)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            cmd = [*spec["command"], "--workload", w["name"], "--seed", "7",
                   "--seconds", "1", "--trace", trace, "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            label = f"{w['name']} --trace {trace}"
            before = len(problems)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            try:
                result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
            except ValueError as e:
                problems.append(f"{label}: last line is not a result: {e}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            got = result["metrics"]
            if set(got) != set(expected):
                problems.append(f"{label}: missing {sorted(set(expected) - set(got))}, "
                                f"unexpected {sorted(set(got) - set(expected))}")
            for name, m in got.items():
                if not NAME.fullmatch(name):
                    problems.append(f"{label}: bad metric name {name!r}")
                if set(m) != {"value", "unit"} or m.get("unit") != expected.get(name):
                    problems.append(f"{label}: {name} has {m}, expected unit {expected.get(name)!r}")
                if not isinstance(m.get("value"), (int, float)):
                    problems.append(f"{label}: {name} value is not a number")
            if len(problems) == before:
                print(f"ok  {label}: {len(got)} metrics", file=sys.stderr)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
