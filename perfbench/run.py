"""Benchmark entry point: one seeded workload, one closed-loop client.

    python3 perfbench/run.py --workload sweep_lp --seed 1 --seconds 20 --trace 0

The program under test is imported from ``src/`` of the checkout this file
lives in.  One process issues one task at a time and starts the next only
when the previous one has returned; there are no threads or worker
processes (the BLAS pool is pinned to one thread before numpy loads).

``--trace 0`` runs whole rounds until ``--seconds`` have passed and prints
the end-to-end metrics.  ``--trace 1`` alternates an untraced and a traced
pass over round 0 until ``--seconds`` have passed and prints the per-layer
metrics of the traced passes.  The last line of stdout is one JSON object.
See README.md in this directory for the workloads and the metric map.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("sweep_lp", "sweep_star", "arb_price", "eval_dual")
SETUP_REPEATS = 5
IMPORT_REPEATS = 5

END_TO_END = {"tasks_per_s": "1/s", "task_p50_ms": "ms", "setup_s": "s",
              "peak_rss_mb": "MB"}


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Ledger:
    """Latencies, first answers and repeat mismatches of every executed task."""

    def __init__(self, digest):
        self.digest = digest
        self.latencies = []
        self.executed = []          # task key per execution
        self.first = {}             # key -> (task, output or exception)
        self.digests = {}
        self.unstable = set()       # keys whose repeat gave another answer
        self.marks = []             # last calibration slice before each task

    def run(self, tasks, clock=None) -> None:
        for task in tasks:
            if clock is not None:
                self.marks.append(len(clock.slices) - 1)
            t0 = perf_counter()
            try:
                out = task.run()
            except Exception as exc:  # a failing task is a result to count
                out = exc
            self.latencies.append(perf_counter() - t0)
            self.executed.append(task.key)
            dig = (("raise", type(out).__name__, str(out))
                   if isinstance(out, Exception) else self.digest(out))
            if task.key not in self.first:
                self.first[task.key] = (task, out)
                self.digests[task.key] = dig
            elif dig != self.digests[task.key]:
                self.unstable.add(task.key)
            if clock is not None:
                clock.maybe_slice()


def _causes(wl, ledger) -> dict:
    """Failure cause (or None) per distinct task key."""
    causes = {}
    ok_tasks, outs = [], {}
    for key, (task, out) in ledger.first.items():
        if isinstance(out, Exception):
            causes[key] = f"raised {type(out).__name__}: {str(out)[:120]}"
        else:
            ok_tasks.append(task)
            outs[key] = out
    try:
        causes.update(wl.check_all(ok_tasks, outs))
    except Exception as exc:  # the checker must not hide a result
        for t in ok_tasks:
            causes[t.key] = f"check raised {type(exc).__name__}: {exc}"
    for key in ledger.unstable:
        causes[key] = causes.get(key) or "repeat gave a different answer"
    return causes


def _probe(wl, ledger) -> dict:
    """Run the workload's untimed known-defect probe, after the measured
    part; returns (task count, failure causes) per probe group.  Its tasks
    compare with answers the run already holds, so they are checked here and
    not in the ledger."""
    outs = {k: out for k, (_, out) in ledger.first.items()
            if not isinstance(out, Exception)}
    causes = {}
    for task in wl.probe:
        try:
            outs[task.key] = task.run()
        except Exception as exc:  # a crash is one of the defects probed for
            causes[task.key] = f"raised {type(exc).__name__}: {exc}"[:160]
    causes.update(wl.check_all([t for t in wl.probe if t.key not in causes],
                               outs))
    groups = {}
    for t in wl.probe:
        count, found = groups.setdefault(t.meta["probe"], (0, []))
        if causes.get(t.key):
            found.append(f"{t.key}: {causes[t.key]}")
        groups[t.meta["probe"]] = (count + 1, found)
    return groups


def _import_s() -> float:
    """Median time a fresh interpreter takes to import the program and the
    benchmark's modules, over IMPORT_REPEATS interpreters."""
    code = ("import sys, time; t0 = time.perf_counter(); "
            f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
            "import meanrisk, hostspeed, tracing, workloads; "
            "print(time.perf_counter() - t0)")
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True, timeout=120)
        times.append(float(proc.stdout))
    return statistics.median(times)


def _setup(workloads, name, seed, workdir, clock):
    times, canary = [], None
    for _ in range(SETUP_REPEATS):
        clock.slice()
        t0 = perf_counter()
        wl = workloads.build(name, seed, workdir)
        canary = workloads.canary(name, workdir)
        times.append(perf_counter() - t0)
    clock.slice()
    return wl, canary, statistics.median(times)


def _reference_problem(workloads, name, canary) -> str | None:
    path = HERE / "reference.json"
    ref = json.loads(path.read_text(encoding="utf-8")).get(name)
    if ref is None:
        return f"no reference values for {name} in {path.name}"
    bad = workloads.same_values(canary, ref)
    return f"canary differs from reference: {bad}" if bad else None


def _timed(wl, ledger, seconds, clock) -> list:
    """Whole rounds until ``seconds`` have passed.

    Returns each task's latency in host-normalised seconds: divided by the
    mean of the calibration slices just before and just after it.
    """
    clock.slice()
    t0 = perf_counter()
    r = 0
    while perf_counter() - t0 < seconds:
        ledger.run(wl.rounds[r % len(wl.rounds)], clock)
        r += 1
    clock.slice()
    return clock.normalise(ledger.latencies, ledger.marks)


def _traced(tracing, wl, ledger, seconds, dump_path, clock):
    """Untraced/traced pairs over round 0; per-layer metrics per pass.

    An untimed pass first lets memory and caches settle, and calibration
    slices around each pass turn its wall time into host-normalised time, so
    the tracing overhead is not swamped by either.
    """
    passes = []
    t_start = perf_counter()
    ledger.run(wl.rounds[0])
    while True:
        clock.slice()
        t0 = perf_counter()
        ledger.run(wl.rounds[0])
        untraced = perf_counter() - t0
        clock.slice()
        tracer = tracing.Tracer()
        with tracing.traced_pass(tracer):
            t0 = perf_counter()
            ledger.run(wl.rounds[0])
            traced = perf_counter() - t0
        clock.slice()
        s0, s1, s2 = clock.slices[-3:]
        passes.append((untraced / (s0 + s1), traced / (s1 + s2),
                       tracing.layer_metrics(tracer.spans, traced)))
        if len(passes) == 1:
            dump_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(dump_path)
        if perf_counter() - t_start >= seconds:
            return passes


def _per_layer(tracing, passes):
    """Counts must repeat exactly across passes; times are pass medians."""
    first = passes[0][2]
    problems = []
    metrics = {}
    for name, unit in tracing.PER_LAYER.items():
        if name == "trace.overhead_share":
            u = statistics.median(p[0] for p in passes)
            t = statistics.median(p[1] for p in passes)
            metrics[name] = (t - u) / u
        elif unit in tracing.EXACT_UNITS:
            values = {p[2][name] for p in passes}
            if len(values) > 1:
                problems.append(f"{name} differs between passes: {values}")
            metrics[name] = first[name]
        else:
            metrics[name] = statistics.median(p[2][name] for p in passes)
    return metrics, problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "meanrisk" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources at {SRC}\n")
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import meanrisk
    import hostspeed
    import tracing
    import workloads
    if Path(meanrisk.__file__).resolve().parent != SRC / "meanrisk":
        sys.stderr.write(f"perfbench: imported meanrisk from "
                         f"{meanrisk.__file__}, not {SRC}\n")
        return 2

    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    raw = {}
    try:
        import_s = 0.0 if args.trace else _import_s()
        setup_clock = hostspeed.HostClock()
        wl, canary, setup_s = _setup(workloads, args.workload, args.seed,
                                     workdir, setup_clock)
        problems = []
        ref_bad = _reference_problem(workloads, args.workload, canary)
        if ref_bad:
            problems.append(ref_bad)
        ledger = Ledger(workloads.digest)
        if args.trace:
            dump = (ROOT / ".perfbench-out" /
                    f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
            passes = _traced(tracing, wl, ledger, args.seconds, dump,
                             hostspeed.HostClock())
            metrics, count_bad = _per_layer(tracing, passes)
            problems += count_bad
            units = tracing.PER_LAYER
        else:
            clock = hostspeed.HostClock()
            norm = _timed(wl, ledger, args.seconds, clock)
            lat = ledger.latencies
            raw = {"tasks_per_s": len(lat) / sum(lat),
                   "task_p50_ms": 1e3 * statistics.median(lat),
                   "task_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
                   "setup_s": import_s + setup_s}
            metrics = {
                "tasks_per_s": len(norm) / sum(norm),
                "task_p50_ms": 1e3 * statistics.median(norm),
                "setup_s": raw["setup_s"] / setup_clock.factor,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            p90 = 1e3 * statistics.quantiles(norm, n=10)[8]
            units = END_TO_END
            print(f"host factor {clock.factor:.4f} over {len(clock.slices)} "
                  f"slices, {setup_clock.factor:.4f} during set-up")
        causes = _causes(wl, ledger)
        probe = _probe(wl, ledger) if wl.probe else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_keys = {k for k, c in causes.items() if c}
    failed = sum(1 for k in ledger.executed if k in failed_keys)
    attempted = len(ledger.executed)
    if ledger.unstable:
        problems.append(f"{len(ledger.unstable)} repeated tasks changed "
                        f"their answer")

    lat = ledger.latencies
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"tasks {attempted}")
    for name, value in metrics.items():
        extra = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:40s} {value:.6g} {units[name]}{extra}")
    print(f"  {'fail_share':40s} {failed / attempted:.6g} "
          f"({failed}/{attempted} tasks)")
    if not args.trace:
        if len(lat) >= 100:
            print(f"  {'task_p90_ms':40s} {p90:.6g} ms  "
                  f"(raw {raw['task_p90_ms']:.6g})")
        else:
            print(f"  {'task_p90_ms':40s} not reported: {len(lat)} tasks < 100")
    tally = {}
    for key in ledger.executed:
        if causes.get(key):
            tally[causes[key]] = tally.get(causes[key], 0) + 1
    for cause, count in sorted(tally.items(), key=lambda kv: -kv[1])[:20]:
        print(f"  failed x{count}: {cause}")
    for group, (count, found) in (probe or {}).items():
        print(f"  probe {group}: {len(found)}/{count} tasks failed (known "
              f"defect, untimed, not counted in failed)")
        for cause in found:
            print(f"    {cause}")
    for p in problems:
        print(f"  INCORRECT: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
