"""Record the canary answers of every workload into reference.json.

    python3 perfbench/record_reference.py

Run it only on a commit whose answers are trusted: every benchmark run
compares its warm-up canaries with these values.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    work_root = HERE.parent / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=work_root)
    try:
        ref = {name: workloads.canary(name, workdir)
               for name in workloads.GENERATED_ROUNDS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
