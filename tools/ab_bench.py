#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark on two git revisions.

Usage, from the repository root:

    python3 tools/ab_bench.py BASE NEW [--workload NAME ...] [--pairs N] [--seed N]

Each revision is exported with `git archive` into a temporary directory
(nothing under .git changes) and byte-compiled there with compileall, so
neither side pays for compiling its modules inside a timed run.  For every
workload, `perfbench/setup_probe.py` first times one set-up per side per
pair, in the same alternation as the runs, before any timed run: run.py's
own `setup_s` probes follow the other side's 50-s run and read biased.
`perfbench/run.py --trace 0` then runs N times (10 by default, the pairs a
claimed gain is judged on) on each side in alternation (base, new, new,
base, ...), so slow drift of the host's speed falls on both sides alike.
Every run lasts the benchmark's `run_seconds` from BENCHMARK.json.  Each
pair's end-to-end metrics are printed, then per metric the two
medians (for `setup_s` also the medians of the probes taken before the
timed runs), the median over pairs of the new/base ratio with a 95%
percentile-bootstrap interval (2000 resamples of the pairs, fixed seed;
left out when a base run reads 0), the number of pairs in which the new
side read better (by the metric's `better` direction in BENCHMARK.json;
ties count for neither) and the interquartile range of the base side's own
runs: a gain counts when the new side wins at least nine pairs in ten and
its median beats the base's by more than that range.  The ratio's interval
shows how far the pairs agree: one that excludes 1 is a change this host
resolves.  Each metric that BENCHMARK.json bounds gets a second line with
two verdicts (see `verdicts`): whether that claim rule is met, and whether
the median change is within the metric's bound, beyond it, or unresolved
because the base runs spread wider than the bound.  The temporary trees
are removed afterwards.
"""

import argparse
import json
import math
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
BETTER = {m["name"]: m["better"] for m in CONTRACT["end_to_end"]}
BOUND = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}


def export(rev, into):
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(into)], check=True)


def run(tree, workload, seconds, seed):
    """The end-to-end metrics of one run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {workload} failed\n{proc.stdout}{proc.stderr}")
    return {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}


def probe(tree, workload, seed, workdir):
    """Seconds of one set-up of `workload` in a fresh interpreter, timed by
    the tree's own perfbench/setup_probe.py."""
    params = json.loads((tree / "perfbench" / "workloads.json").read_text())["workloads"][workload]
    proc = subprocess.run(
        [sys.executable, "perfbench/setup_probe.py", workload, str(seed), str(workdir),
         json.dumps(params)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return float(proc.stdout.splitlines()[-1])


def ratio_interval(ratios, resamples=2000, seed=0):
    """The median of the per-pair new/base `ratios` and a 95% percentile
    bootstrap interval for it, from `resamples` resamples of the pairs."""
    rng = random.Random(seed)
    medians = [statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(resamples)]
    cuts = statistics.quantiles(medians, n=40, method="inclusive")
    return statistics.median(ratios), cuts[0], cuts[-1]


def base_iqr(base):
    """The interquartile range of the base side's runs; infinite for fewer
    than two runs, whose spread is unknown."""
    if len(base) < 2:
        return math.inf
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
    return q3 - q1


def verdicts(base, new, better, bound):
    """The two verdicts on one metric's paired runs `base` and `new`, where
    `better` is "higher" or "lower" and `bound` the relative worsening the
    benchmark allows.

    The claim rule is met when the new side reads better in at least nine
    pairs in ten (ties count for neither), over at least ten pairs, and its
    median beats the base median by more than the base runs' interquartile
    range.  The bound check compares the median change, as a fraction of
    the base median and counted positive when worse, with `bound`: "within
    bound" or "beyond bound", but "unresolved" when the base runs' own
    interquartile range, as a fraction of their median, is wider than the
    bound and not every new run reads better than every base run."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
    gain = sign * (statistics.median(new) - statistics.median(base))
    iqr = base_iqr(base)
    met = len(base) >= 10 and wins >= 0.9 * len(base) and gain > iqr
    claim = "claim rule met" if met else "claim rule not met"
    scale = abs(statistics.median(base))
    every_new_better = min(sign * v for v in new) > max(sign * v for v in base)
    if not every_new_better and (scale == 0 or iqr > bound * scale):
        check = "unresolved"
    else:
        check = "within bound" if -gain <= bound * scale else "beyond bound"
    return claim, check


def summary(workload, runs, probes):
    """Per metric: the medians, the median per-pair ratio with its interval,
    the pairs the new side won and the base side's interquartile range,
    then the claim-rule and bound verdicts of `verdicts` for the metrics
    BENCHMARK.json bounds; `setup_s` also gets the probes' medians."""
    lines = []
    for m in runs["base"][0]:
        base, new = [r[m] for r in runs["base"]], [r[m] for r in runs["new"]]
        line = f"{workload} {m}: median {statistics.median(base):.4g} -> {statistics.median(new):.4g}"
        if m == "setup_s":
            line += (f" (fresh probes {statistics.median(probes['base']):.4g}"
                     f" -> {statistics.median(probes['new']):.4g})")
        if all(base):
            mid, lo, hi = ratio_interval([n / b for b, n in zip(base, new)])
            line += f", new/base ratio {mid:.4f} [95% {lo:.4f}, {hi:.4f}]"
        if m in BETTER:
            sign = 1 if BETTER[m] == "higher" else -1
            wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
            line += f", new better in {wins}/{len(base)} pairs"
        if len(base) > 1:
            line += f", base IQR {base_iqr(base):.4g}"
        lines.append(line)
        if m in BOUND:
            lines.append(f"{workload} {m}: " + ", ".join(verdicts(base, new, BETTER[m], BOUND[m])))
    return "\n".join(lines)


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
        workdir = Path(tmp) / "probe"
        workdir.mkdir()
        order = [("base", "new") if i % 2 == 0 else ("new", "base") for i in range(args.pairs)]
        for workload in args.workload or WORKLOADS:
            runs, probes = {"base": [], "new": []}, {"base": [], "new": []}
            for sides in order:
                for side in sides:
                    probes[side].append(probe(trees[side], workload, args.seed, workdir))
            for i, sides in enumerate(order):
                for side in sides:
                    runs[side].append(run(trees[side], workload, CONTRACT["run_seconds"], args.seed))
                pair = "  ".join(f"{m} {runs['base'][i][m]:.4g} -> {runs['new'][i][m]:.4g}"
                                 for m in runs["base"][i])
                print(f"{workload} pair {i + 1}: {pair}", flush=True)
            print(summary(workload, runs, probes), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
