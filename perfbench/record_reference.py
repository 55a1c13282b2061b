"""Record the default-seed reference that checks.py compares runs against.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are known good; the reference then
pins angle traces (to 1e-8 rad) and workspace margins (to 1e-12 A) of later
commits on the default seed.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from emnav.cli import main as emnav_main  # noqa: E402


def main() -> int:
    work_dir = HERE.parent / ".perfbench_runs" / "reference"
    for workload in workloads.WORKLOADS:
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        invocations = workloads.generate(workload, workloads.DEFAULT_SEED)
        codes = workloads.run_invocations(
            emnav_main, workloads.write_configs(invocations, work_dir),
            work_dir / "out")
        check = checks.check_run(invocations, work_dir / "out", codes)
        if check.problems:
            print(f"{workload}: {check.problems}", file=sys.stderr)
            return 1
        if check.arrays:
            np.savez_compressed(checks.reference_path(workload), **check.arrays)
            print(f"{workload}: recorded {sorted(check.arrays)}")
    shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
