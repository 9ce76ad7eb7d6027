#!/usr/bin/env python3
"""Benchmark of the musereact package.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S

Run from the root of a checkout: the package is imported from ``src/``.
For one workload the script

1. sets the workload up from the seed three times, in a child process
   that keeps the set-up's memory out of the timed process's peak RSS,
   and reports the median set-up time (``setup_s``);
2. after each set-up, reads the inputs back (and warms up, the first
   time) and runs closed-loop passes over the workload's calls, so the
   passes are spread over the run; ``--seconds`` is the time spent in
   passes, and at least ``MIN_PASSES`` passes run;
3. checks every output: against the digests stored in ``expected.json``
   for this seed, or else against the first output of the same call in
   this run; against an independent reference where one exists; on a
   fixed canary input whose digest is stored; and against quality floors;
4. prints a readable report and, as the last line, one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, each call at its
best time across the passes.  With ``--trace 1`` one set-up is traced, and
after the untraced passes one more pass runs traced; the metrics are the
per-layer spans and counts per operation and the tracing overhead.

Everything runs on one thread: BLAS/OpenMP thread counts are pinned to 1
before numpy loads, and ``detect`` runs with ``--workers 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
EXPECTED = HERE / "expected.json"

WORKLOAD_NAMES = ("replay_batch", "audio_long", "audio_idle", "recommend_pool")

#: Set-ups per run; the median is reported as ``setup_s``.
SETUP_REPEATS = 3

#: Passes per run at least, so every call has a best of several times.
MIN_PASSES = 2

#: The speed probe's time on the host the benchmark was tuned on (a 2-core
#: VM, Python 3.11) when nothing slows it down.
PROBE_REFERENCE_S = 0.0005

#: Quality floors for seeds without stored results (stored seeds must
#: reproduce their stored values exactly).
QUALITY_FLOORS = {
    "vocal_macro_f1": 0.5,
    "motion_f1": 0.5,
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole passes until this many seconds elapsed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's output digests and quality in expected.json")
    parser.add_argument("--phase", choices=("run", "setup"), default="run",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    parser.add_argument("--repeat", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_benchmark():
    """Import the package from ``src/`` and the benchmark modules."""
    if not (SRC / "musereact" / "__init__.py").is_file():
        sys.exit(f"run.py: no package at {SRC / 'musereact'}; "
                 f"run from the root of a musereact checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import layers
    import tracer
    import workloads
    return layers, tracer, workloads


# ---------------------------------------------------------------------------
# set-up (child process)
# ---------------------------------------------------------------------------

def do_setup(layers, tracer_mod, workload, inputs: Path, seed: int, trace: bool) -> dict:
    """Set the workload up once into a fresh ``inputs`` directory."""
    tracer = layers.install(tracer_mod.Tracer(), layers.SETUP_SPANS) if trace else None
    try:
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        start = time.perf_counter()
        workload.setup(inputs, seed)
        duration = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"setup_s": duration, "spans": tracer.summary() if tracer else {}}


def setup_phase(args) -> int:
    """Child process: set up ``--repeat`` times, reporting each set-up on a
    line of stdout and waiting for a line on stdin before the next one."""
    layers, tracer_mod, workloads = import_benchmark()
    workload = workloads.WORKLOADS[args.workload]
    for k in range(args.repeat):
        if k and not sys.stdin.readline():
            break  # the timed process stopped early
        setup = do_setup(layers, tracer_mod, workload, Path(args.work),
                         args.seed, bool(args.trace))
        print(json.dumps(setup), flush=True)
    return 0


def setup_child(args, inputs: Path, repeat: int):
    """Yield each set-up of a child process; the child starts the next one
    when the caller asks for it, so the caller can drop its inputs first."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--phase", "setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(inputs), "--repeat", str(repeat)]
    with subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as child:
        try:
            for k in range(repeat):
                if k:
                    child.stdin.write("next\n")
                    child.stdin.flush()
                line = child.stdout.readline()
                if not line:
                    raise RuntimeError(f"set-up failed with exit code {child.wait()}")
                yield json.loads(line)
        finally:
            child.stdin.close()
            if child.wait(timeout=60) != 0:
                raise RuntimeError(f"set-up failed with exit code {child.returncode}")


# ---------------------------------------------------------------------------
# timed phase
# ---------------------------------------------------------------------------

def speed_probe_s(repeats: int = 3) -> float:
    """Best of ``repeats`` runs of a fixed pure-Python dynamic program, the
    kind of work the interpreter-bound calls do (about 0.5 ms)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        prev = list(range(40))
        for i in range(1, 40):
            cur = [prev[0] + 1]
            for j in range(1, 40):
                cur.append(((i * j) & 1) + min(prev[j], prev[j - 1], cur[-1]))
            prev = cur
        best = min(best, time.perf_counter() - start)
    return best


def run_pass(workload, index: int) -> list[dict]:
    """Every call of the workload once, each timed on its own.

    For a workload whose calls are short and interpreter-bound
    (``workload.scaled``), the speed probe runs right before and after each
    call, and the call's time is scaled to a host on which the probe takes
    ``PROBE_REFERENCE_S``; see README.md.
    """
    records = []
    for call in workload.calls():
        if call.before is not None:
            call.before()
        probe = speed_probe_s() if workload.scaled else None
        t0 = time.perf_counter()
        try:
            raw = call.run()
        except Exception as exc:  # a failing call is counted, not fatal
            wall, outcome, error = time.perf_counter() - t0, None, exc
        else:
            wall = time.perf_counter() - t0
            try:
                outcome, error = call.outcome(raw), None
            except Exception as exc:
                outcome, error = None, exc
        scale = 1.0
        if probe is not None:
            scale = PROBE_REFERENCE_S / ((probe + speed_probe_s()) / 2)
        records.append({"key": call.key, "pass": index, "wall_s": wall,
                        "time_s": wall * scale, "outcome": outcome,
                        "error": error and f"{type(error).__name__}: {error}"})
    return records


def best_of_passes(records, field: str = "time_s") -> dict[str, dict]:
    """Each call's fastest record across the run's passes."""
    best = {}
    for record in records:
        if record["key"] not in best or record[field] < best[record["key"]][field]:
            best[record["key"]] = record
    return best


def check_outputs(workload, records, stored: dict | None) -> dict:
    """Count attempted and failed calls; see the module docstring."""
    reference = dict((stored or {}).get("digests", {}))
    rejected = set(workload.independent_check())
    attempted = failed = failed_seconds = 0
    errors = []
    for record in records:
        attempted += 1
        key, outcome = record["key"], record["outcome"]
        if outcome is None:
            problem = record["error"]
        else:
            failed_seconds += outcome.failed_seconds
            expected = reference.setdefault(key, outcome.digest)
            problem = ("output differs from the expected digest"
                       if outcome.digest != expected else
                       "output differs from the independent reference"
                       if key in rejected else None)
        if problem:
            failed += 1
            errors.append(f"{key}: {problem}")
    return {"attempted": attempted, "failed": failed,
            "failed_seconds": failed_seconds, "errors": errors,
            "digests": reference}


def check_quality(quality: dict, stored: dict | None) -> list[str]:
    problems = []
    for name, value in quality.items():
        if stored is not None and name in stored.get("quality", {}):
            if value != stored["quality"][name]:
                problems.append(f"{name} {value!r} differs from stored "
                                f"{stored['quality'][name]!r}")
        elif value < QUALITY_FLOORS[name]:
            problems.append(f"{name} {value:.4f} below floor {QUALITY_FLOORS[name]}")
    return problems


def median_ms(values) -> float:
    return statistics.median(values) * 1000.0


def tail_percentile(samples: list[float]):
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            ordered = sorted(samples)
            return p, ordered[min(n - 1, int(round(p / 100 * (n - 1))))]
    return None


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workers": 1, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def end_to_end(workload, records, setup, peak_rss_mb, quality, checked) -> tuple[dict, dict]:
    """(contract metrics, the report's workload-specific metrics)."""
    best = best_of_passes(records)
    times = [r["time_s"] for r in best.values()]
    metrics = {
        "setup_s": {"value": statistics.median(setup["setup_s"]), "unit": "s"},
        "pass_best_s": {"value": sum(times), "unit": "s"},
        "call_best_ms_p50": {"value": median_ms(times), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    outcomes = [r["outcome"] for r in best.values() if r["outcome"] is not None]
    session_s = sum(o.session_s for o in outcomes)
    report = {}
    if workload.scaled:
        walls = [r["wall_s"] for r in best_of_passes(records, "wall_s").values()]
        report["pass_best_s unscaled"] = (sum(walls), "s")
        report["call_best_ms_p50 unscaled"] = (median_ms(walls), "ms")
    if workload.name == "replay_batch":
        report["detect_s"] = (sum(times), "s")
    if workload.name in ("audio_long", "audio_idle"):
        for part in ("vocal", "motion"):
            spent = sum(o.parts_s[part] for o in outcomes)
            report[f"{part}_ms_per_s"] = (spent * 1000.0 / session_s, "ms")
        report["peak_rss_mb"] = (peak_rss_mb, "MB")
    if workload.name == "recommend_pool":
        report["recommend_ms_p50"] = (median_ms(times), "ms")
        report["queries"] = (len(times), "count")
        tail = tail_percentile(times)
        if tail is not None:
            report[f"recommend_ms_p{tail[0]}"] = (tail[1] * 1000.0, "ms")
    for name, value in quality.items():
        report[name] = (value, "F1")
    report["failed_ratio"] = (checked["failed"] / checked["attempted"],
                              f"of {checked['attempted']} {workload.op_noun}")
    report["failed_seconds"] = (checked["failed_seconds"], "s")
    report["setup_s"] = (metrics["setup_s"]["value"], "s")
    return metrics, report


def per_layer(layers, tracer, records, untraced, setup) -> tuple[dict, list]:
    """Spans and counts per operation (session or query) of the traced
    pass; set-up spans of the run's one set-up."""
    ops = len(records)
    summary = tracer.summary()
    metrics, rows = {}, []
    setup_names = {name for name, _, _ in layers.SETUP_SPANS}
    for name in layers.SPAN_NAMES:
        if name in setup_names:
            entry, per = setup["spans"].get(name, {}), 1
        else:
            entry, per = summary.get(name, {}), ops
        n = entry.get("calls", 0) / per
        self_ms = entry.get("self_ns", 0) / 1e6 / per
        metrics[f"{name}.calls"] = {"value": n, "unit": "count"}
        metrics[f"{name}.self_ms"] = {"value": self_ms, "unit": "ms"}
        if n:
            rows.append((name, n, self_ms))
    counts = tracer.counts
    attempts = counts["vocal.correct_with_music.attempts"]
    outcomes = [r["outcome"] for r in records if r["outcome"] is not None]
    session_s = sum(o.session_s for o in outcomes if o.counts)

    def weighted(key):
        return (sum(o.counts[key] * o.session_s for o in outcomes if o.counts) / session_s
                if session_s else 0.0)

    traced = sum(r["time_s"] for r in records)
    untraced_best = sum(r["time_s"] for r in best_of_passes(untraced).values())
    extra = {
        "dsp.dtw_from_cost.cells": counts["dsp.dtw_from_cost.cells"] / ops,
        "engage.dtw_from_cost.cells": counts["engage.dtw_from_cost.cells"] / ops,
        "vocal.correct_with_music.reject_ratio":
            counts["vocal.correct_with_music.rejects"] / attempts if attempts else 0.0,
        "vocal.filtering_ratio": weighted("vocal.filtering_ratio"),
        "motion.filtering_ratio": weighted("motion.filtering_ratio"),
        "vocal.errors": sum(o.counts.get("vocal.errors", 0) for o in outcomes) / ops,
        "motion.errors": sum(o.counts.get("motion.errors", 0) for o in outcomes) / ops,
        "trace.overhead_ms": (traced - untraced_best) * 1000.0 / ops,
        "trace.overhead_pct": (traced - untraced_best) / untraced_best * 100.0,
    }
    units = {name: unit for name, unit, _ in layers.EXTRA_METRICS}
    for name, value in extra.items():
        metrics[name] = {"value": value, "unit": units[name]}
    rows.sort(key=lambda row: -row[2])
    return metrics, rows


def load_expected() -> dict:
    if EXPECTED.is_file():
        return json.loads(EXPECTED.read_text())
    return {"canary": {}, "seeds": {}}


def run_phase(args) -> int:
    layers, tracer_mod, workloads = import_benchmark()
    workload = workloads.WORKLOADS[args.workload]
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        repeat = 1 if args.trace else SETUP_REPEATS
        setups = setup_child(args, work / "inputs", repeat)
        result, lines, tracer = measure(layers, tracer_mod, workload, work, setups,
                                        repeat, args.seed, args.seconds, args.trace,
                                        args.record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"== {workload.name}: {workload.why}")
    print("environment: " + json.dumps(environment(args), sort_keys=True))
    print("\n".join(lines))
    if tracer is not None:
        WORK_ROOT.joinpath("traces").mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(WORK_ROOT / "traces" / f"{workload.name}-seed{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


def timed_passes(workload, work: Path, setups, repeat: int, seconds: float):
    """Closed-loop passes, spread over the set-ups.

    After set-up ``k`` of ``repeat`` the workload loads the fresh inputs and
    runs whole passes until ``k / repeat`` of ``seconds`` have been spent in
    passes.  After the last set-up it runs at least one pass, and passes
    until ``MIN_PASSES`` ran.  Spreading the passes over the whole run makes
    each call's best time less dependent on one slow stretch of the host.
    """
    done, records, spent, passes = [], [], 0.0, 0
    for k, setup in enumerate(setups, start=1):
        done.append(setup)
        workload.load(work / "inputs", work / "scratch")
        if k == 1:
            workload.warm_up()
        first = passes
        while (spent < k / repeat * seconds
               or (k == repeat and (passes < MIN_PASSES or passes == first))):
            start = time.perf_counter()
            records += run_pass(workload, passes)
            spent += time.perf_counter() - start
            passes += 1
        if k < repeat:
            workload.unload()  # before the next set-up, to keep memory low
    return done, records


def measure(layers, tracer_mod, workload, work: Path, setups, repeat: int,
            seed: int, seconds: float, trace: bool, record: bool = False):
    """Timed phase and output checks.

    ``setups`` yields ``repeat`` set-ups, each leaving fresh inputs in
    ``work / "inputs"``.  Returns the result object, the report lines and
    the tracer (traced runs only).
    """
    done, records = timed_passes(workload, work, setups, repeat, seconds)
    setup = {"setup_s": [d["setup_s"] for d in done], "spans": done[-1]["spans"]}
    tracer = None
    if trace:
        # Per-layer numbers come from one traced pass after the untraced ones.
        untraced = records
        tracer = layers.install(tracer_mod.Tracer(), layers.PROGRAM_SPANS)
        try:
            records = run_pass(workload, untraced[-1]["pass"] + 1)
        finally:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    expected = load_expected()
    stored = expected["seeds"].get(workload.name, {}).get(str(seed))
    checked = check_outputs(workload, untraced + records if trace else records, stored)
    quality = workload.quality()
    problems = check_quality(quality, stored)
    canary = workload.canary(work / "canary")
    stored_canary = expected["canary"].get(workload.name)
    if record and stored_canary is None:
        stored_canary = canary
    if canary != stored_canary:
        problems.append("canary output differs from the stored digest")
    problems += checked["errors"][:10]
    correct = not problems and checked["failed"] == 0 and checked["failed_seconds"] == 0

    lines = [f"calls: {len(records)} in {sum(r['wall_s'] for r in records):.2f} s; "
             f"set-ups: " + ", ".join(f"{s:.3f}" for s in setup["setup_s"]) + " s"]
    if trace:
        metrics, rows = per_layer(layers, tracer, records, untraced, setup)
        lines.append(f"{'span (per operation)':<45} {'calls':>12} {'self ms':>13}")
        lines += [f"{name:<45} {n:>12.2f} {self_ms:>13.3f}" for name, n, self_ms in rows]
        lines += [f"{name:<45} {metrics[name]['value']:>12.4f} {metrics[name]['unit']}"
                  for name, _, _ in layers.EXTRA_METRICS]
    else:
        metrics, report = end_to_end(workload, records, setup, peak_rss_mb,
                                     quality, checked)
        lines += [f"{name:<24} {value:>14.6g} {unit}"
                  for name, (value, unit) in report.items()]
    lines += [f"CHECK FAILED: {problem}" for problem in problems]
    lines.append(f"output check: {'ok' if correct else 'FAILED'}")

    if record and correct:
        expected["canary"][workload.name] = canary
        expected["seeds"].setdefault(workload.name, {})[str(seed)] = {
            "digests": checked["digests"], "quality": quality}
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")

    result = {"correct": correct, "attempted": checked["attempted"],
              "failed": checked["failed"], "metrics": metrics}
    return result, lines, tracer


def run_all(args) -> int:
    """Every workload, one child process each, then a summary table."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            status = child.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print("== summary")
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:<16} {metric:<45} {entry['value']:>14.6g} {entry['unit']}")
        print(f"{name:<16} {'failed/attempted':<45} "
              f"{result['failed']:>7}/{result['attempted']} correct={result['correct']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.phase == "setup":
        return setup_phase(args)
    if args.workload == "all":
        return run_all(args)
    return run_phase(args)


if __name__ == "__main__":
    sys.exit(main())
