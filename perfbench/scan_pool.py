"""Check every round of the round pool, and the known failing rounds.

    python3 perfbench/scan_pool.py [workload ...]

Each pool round of each named workload (all four by default) is built on
its own, run twice and checked exactly as a benchmark run checks it.  Prints
the failed tasks of every round and exits 1 if a pool round has one.
Benchmark runs draw only from this pool, so a clean scan means a run of the
same program has no failed task.  The rounds of ``workloads.KNOWN_FAILING``
are scanned too and reported when they pass, so a fix of their defect shows.
"""
from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def failed_tasks(name: str, round_seed: int, workdir: str) -> dict:
    wl = workloads.build(name, 0, workdir, seeds=[round_seed])
    ledger = run.Ledger(workloads.digest)
    ledger.run(wl.rounds[0])
    ledger.run(wl.rounds[0])      # a repeat must give the same answers
    return {k: c for k, c in run._causes(wl, ledger).items() if c}


def main(argv: list) -> int:
    work_root = HERE.parent / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pool-", dir=work_root)
    bad = 0
    try:
        for name in argv or list(workloads.GENERATED_ROUNDS):
            known = workloads.KNOWN_FAILING.get(name, {})
            for s in sorted(set(range(workloads.POOL_SIZE)) | set(known)):
                causes = failed_tasks(name, s, workdir)
                note = ""
                if s in known:
                    note = " (known failing)" if causes else (
                        " (known failing, now passes)")
                else:
                    bad += bool(causes)
                print(f"{name} round {s}: {len(causes)} failed{note}",
                      flush=True)
                for key, cause in sorted(causes.items()):
                    print(f"  {key}: {cause}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{bad} pool rounds with a failed task")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
