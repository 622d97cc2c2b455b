#!/usr/bin/env python3
"""mlte benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --write-reference

Workloads and their parameters are in perfbench/workloads.json.  A run is a
closed loop with one caller: each study (a `run_scenario` call rendered to
JSON, or one in-process `mlte estimate` call) starts only after the previous
one has finished.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
each study untraced and then traced, back to back, and reports the per-layer
metrics from the traced pass.  Both modes first run the reference
study (study 0 of the default seed) and compare its report to
perfbench/reference/NAME.json, and check every timed report's invariants.
Human-readable lines come first; the last line of stdout is the JSON result.
The full result, with the environment, is also written to
perfbench/results/.  The exit code is 1 when a correctness check fails.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "workloads.json").read_text())
SETUP_SAMPLES = 5


def import_program():
    """Import mlte from the checkout's own sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mlte" / "__init__.py").is_file():
        raise SystemExit(f"error: mlte sources not found under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import mlte

    if Path(mlte.__file__).resolve().parent != (src / "mlte").resolve():
        raise SystemExit(f"error: imported mlte from {mlte.__file__}, not from {src}")


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):  # older numpy has no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def cpu_now():
    """User+sys CPU seconds of this process and the children it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb():
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


class Tally:
    """Cells attempted and failed over a run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, attempted, failed, problem=None):
        self.attempted += attempted
        self.failed += failed
        if failed and problem:
            self.problems.append(problem)


def run_study(wl, index, tally):
    """One study plus its invariant checks; returns (text, reps, wall, cpu)."""
    from workloads import check_invariants

    cpu0, t0 = cpu_now(), time.perf_counter()
    text, reps, attempted, failed = wl.study(index)
    wall, cpu = time.perf_counter() - t0, cpu_now() - cpu0
    tally.add(attempted, failed, f"study {index}: {failed} cells failed in the program")
    bad = check_invariants(wl.kind, json.loads(text))
    tally.add(0, bad, f"study {index}: {bad} cells break an invariant")
    return text, reps, wall, cpu


def reference_check(name, params, wl, workdir, reference, tally):
    """Run study 0 of the default seed and compare it with the stored reference."""
    from workloads import Workload, compare_to_reference

    seed = SPEC["default_seed"]
    if reference["params"] != _report_params(params) or reference["seed"] != seed:
        raise SystemExit(f"error: reference for {name} is stale; rerun with --write-reference")
    ref_wl = wl if wl.seed == seed else Workload(name, params, seed, workdir)
    text, _, _, _ = run_study(ref_wl, 0, tally)
    bad, paths = compare_to_reference(wl.kind, reference["report"], json.loads(text), SPEC["tolerance"])
    tally.add(0, bad, f"reference study differs at {paths[:5]}")


def _report_params(params):
    """The workload parameters a reference report depends on."""
    return {k: v for k, v in params.items() if k != "why"}


def setup_seconds(name, params, seed, workdir, samples):
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), workdir, json.dumps(params)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def measure(name, params, seed, seconds, trace, workdir, reference=None,
            setup_samples=SETUP_SAMPLES, spans_path=None):
    """One benchmark run; returns the result dict (metrics as (value, unit)).

    Without a reference the reference check is skipped, which only tests
    running reduced parameters do."""
    from workloads import Workload

    tally = Tally()
    detail = {}
    if not trace:
        setup_s, samples = setup_seconds(name, params, seed, workdir, setup_samples)
        detail["setup_samples_s"] = samples
    wl = Workload(name, params, seed, workdir)
    if reference is not None:
        reference_check(name, params, wl, workdir, reference, tally)
    if trace:
        metrics = _traced(wl, seconds, tally, detail, spans_path)
    else:
        metrics = _timed(wl, seconds, tally, detail)
        metrics = {"setup_s": (setup_s, "s"), **metrics}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "params": params,
        "environment": environment(),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_frac": tally.failed / max(tally.attempted, 1),
        "problems": tally.problems,
        "metrics": metrics,
        "detail": detail,
    }


def _timed(wl, seconds, tally, detail):
    studies = []
    start = time.perf_counter()
    elapsed = 0.0
    # stop when the next study would more likely end after `seconds` than before
    while not studies or elapsed + 0.5 * elapsed / len(studies) < seconds:
        _, reps, wall, cpu = run_study(wl, len(studies), tally)
        studies.append((reps, wall, cpu))
        elapsed = time.perf_counter() - start
    detail["studies"] = [{"reps": r, "wall_s": w, "cpu_s": c} for r, w, c in studies]
    # Ratios of totals, not medians of per-study ratios: the machine's speed
    # drifts between levels that last several seconds, and a total averages
    # over them where a median picks whichever level lasted longest.
    reps, wall, cpu = (sum(col) for col in zip(*studies))
    return {
        "reps_per_s": (reps / wall, "1/s"),
        "cpu_s_per_rep": (cpu / reps, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def _traced(wl, seconds, tally, detail, spans_path):
    from tracer import Tracer

    # Each study runs untraced and then traced, back to back, so that the
    # machine's slow speed drift cancels out of the tracing overhead.
    tracer = Tracer()
    studies, reps, untraced, untraced_cpu, traced = 0, 0, 0.0, 0.0, 0.0
    start = time.perf_counter()
    while not studies or time.perf_counter() - start < seconds:
        index = studies
        text, r, wall, cpu = run_study(wl, index, tally)
        studies += 1
        reps += r
        untraced += wall
        untraced_cpu += cpu
        with tracer:
            tracer.study, tracer.rep = index, 0
            traced_text, _, wall, _ = run_study(wl, index, tally)
        traced += wall
        if traced_text != text:
            tally.add(0, 1, f"study {index}: traced report differs from untraced")
    if tracer.missing:
        print(f"warning: not traced, missing from mlte: {', '.join(tracer.missing)}", file=sys.stderr)

    if spans_path is not None:
        tracer.write(spans_path)
    detail.update(
        studies=studies, reps=reps, untraced_wall_s=untraced, traced_wall_s=traced,
        spans=len(tracer.spans), traced_sites=tracer.sites, untraced_targets=tracer.missing,
    )
    metrics = tracer.layer_metrics(traced, reps)
    # every workload runs on one worker, so this is CPU over wall
    metrics["simengine.pool.cpu_util"] = (untraced_cpu / untraced, "ratio")
    metrics["trace.overhead_frac"] = ((traced - untraced) / untraced, "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store study 0 of the default seed as the reference report")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    # Pin BLAS to one thread before numpy loads, so mlte's own process pool
    # is the only parallelism; set-up probes inherit the setting.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_program()

    name, params = args.workload, SPEC["workloads"][args.workload]
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=results)
    try:
        if args.write_reference:
            return write_reference(name, params, workdir)
        reference = json.loads((HERE / "reference" / f"{name}.json").read_text())
        spans = results / f"{name}-seed{args.seed}-spans.jsonl" if args.trace else None
        result = measure(name, params, args.seed, args.seconds, args.trace, workdir, reference,
                         spans_path=spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = results / f"{name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    env = result["environment"]
    print(f"workload {name} seed {args.seed} trace {args.trace} ({out.relative_to(ROOT)})")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for metric, (value, unit) in result["metrics"].items():
        print(f"{metric} {value:.6g} {unit}")
    print(f"fail_frac {result['fail_frac']:.6g} ratio ({result['failed']} of {result['attempted']} cells)")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


def write_reference(name, params, workdir):
    from workloads import Workload

    seed = SPEC["default_seed"]
    text, _, _, failed = Workload(name, params, seed, workdir).study(0)
    if failed:
        raise SystemExit(f"error: reference study of {name} has {failed} failed cells")
    report = json.loads(text)
    if "data" in report.get("config", {}):
        # the input CSV lives in a per-run temporary directory
        report["config"]["data"] = os.path.basename(report["config"]["data"])
    path = HERE / "reference" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"workload": name, "seed": seed, "params": _report_params(params),
                                "report": report}, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
