"""One cold start: import tidyscale.cli in a fresh interpreter and run the
workload's warm-up jobs.  `run.py` times this whole process.

    python3 bench/coldstart.py <workload>
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import tidyscale.cli  # noqa: E402,F401  (the import is what is timed)

import jobs  # noqa: E402
import workloads  # noqa: E402


def main(workload):
    runner = jobs.Runner(str(BENCH.parent / ".bench_out" / f"cold-{workload}"))
    try:
        problems = [p for job in workloads.warmup_jobs(workload)
                    for p in runner.run(job).problems]
    finally:
        runner.close()
    if problems:
        print(problems, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
