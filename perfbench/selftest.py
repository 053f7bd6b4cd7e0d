"""Self-test of the benchmark itself (not of the program).

    python3 perfbench/selftest.py [workload ...]

For each workload it checks that

* two traced runs with the same seed report identical counts (every
  per-layer metric whose unit is a count, a cell count or a ratio of
  counts), so later changes can cite them as counts;
* the printed metric names and units are exactly those in BENCHMARK.json,
  and the untraced run's checks pass;

and, once, that the benchmark exits non-zero without printing a result in a
directory that holds only BENCHMARK.json and this directory.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7

sys.path.insert(0, str(ROOT / "src"))
import tracing  # noqa: E402


def _run(cwd: Path, workload: str, trace: int, seconds: float = 1.0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(workload: str, spec: dict) -> list:
    problems = []
    first = _result(_run(ROOT, workload, 1))
    second = _result(_run(ROOT, workload, 1))
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    got = {k: v["unit"] for k, v in first["metrics"].items()}
    if got != want:
        problems.append(f"{workload}: traced metrics differ from "
                        f"BENCHMARK.json per_layer")
    for name, unit in tracing.PER_LAYER.items():
        if unit not in tracing.EXACT_UNITS:
            continue
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        if a != b:
            problems.append(f"{workload}: {name} {a} != {b} between runs")
    untraced = _result(_run(ROOT, workload, 0))
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    got = {k: v["unit"] for k, v in untraced["metrics"].items()}
    if got != want:
        problems.append(f"{workload}: metrics differ from BENCHMARK.json "
                        f"end_to_end")
    for res in (first, second, untraced):
        if not res["correct"] or res["attempted"] < 1:
            problems.append(f"{workload}: run not correct: {res}")
    return problems


def check_bare_directory() -> list:
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work_root))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "sweep_lp", 0)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        if proc.returncode == 0 or last.startswith("{"):
            return [f"bare directory: exit {proc.returncode}, "
                    f"last line {last!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv: list) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = argv or [w["name"] for w in spec["workloads"]]
    problems = check_bare_directory()
    for workload in names:
        problems += check_workload(workload, spec)
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
