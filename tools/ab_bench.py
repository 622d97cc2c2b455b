#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark on two git revisions.

Usage, from the repository root:

    python3 tools/ab_bench.py BASE NEW [--workload NAME ...] [--pairs N] [--seed N]

Each revision is exported with `git archive` into a temporary directory
(nothing under .git changes) and byte-compiled there with compileall, so
neither side pays for compiling its modules inside a timed run.  For every
workload, `perfbench/run.py --trace 0` then runs N times (10 by default, the
pairs a claimed gain is judged on) on each side in alternation (base, new,
new, base, ...), so slow drift of the host's speed falls on both sides
alike.  Every run lasts the benchmark's `run_seconds` from BENCHMARK.json.
Each pair's end-to-end metrics and their medians are printed; the temporary
trees are removed afterwards.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def export(rev, into):
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(into)], check=True)


def run(tree, workload, seconds, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {workload} failed\n{proc.stdout}{proc.stderr}")
    return {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab-bench-") as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "new")}
        for side, rev in (("base", args.base), ("new", args.new)):
            trees[side].mkdir()
            export(rev, trees[side])
        for workload in args.workload or WORKLOADS:
            runs = {"base": [], "new": []}
            for i in range(args.pairs):
                for side in ("base", "new") if i % 2 == 0 else ("new", "base"):
                    runs[side].append(run(trees[side], workload, CONTRACT["run_seconds"], args.seed))
                pair = "  ".join(f"{m} {runs['base'][i][m]:.4g} -> {runs['new'][i][m]:.4g}"
                                 for m in runs["base"][i])
                print(f"{workload} pair {i + 1}: {pair}", flush=True)
            medians = "  ".join(
                f"{m} {statistics.median(r[m] for r in runs['base']):.4g} -> "
                f"{statistics.median(r[m] for r in runs['new']):.4g}" for m in runs["base"][0])
            print(f"{workload} median: {medians}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
