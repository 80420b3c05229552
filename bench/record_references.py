"""Record the `--out` digests of the default seed's jobs into references.json.

    python3 bench/record_references.py

Run it only when the generators in workloads.py change.  run.py compares
every job of a default-seed run whose key is recorded here, so a change to
the program that alters any report shows up as failed jobs.  The number of
rounds recorded per workload covers about 1.5 times what a 20 s run does.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import jobs  # noqa: E402
import workloads  # noqa: E402

ROUNDS = {
    "padic-tidy": 45,
    "padic-flat": 12,
    "torus-roots": 20,
    "finprod-windows": 30,
}


def main():
    runner = jobs.Runner(str(BENCH.parent / ".bench_out" / "record"))
    out = {}
    try:
        for workload, count in ROUNDS.items():
            rounds = workloads.Rounds(workload, workloads.DEFAULT_SEED)
            digests = {}
            for _ in range(count):
                for job in next(rounds):
                    outcome = runner.run(job)
                    if outcome.problems:
                        print(f"{job.key}: {outcome.problems}", file=sys.stderr)
                        return 1
                    digests[job.key] = outcome.digest
            out[workload] = digests
            print(f"{workload}: {len(digests)} digests")
    finally:
        runner.close()
    path = BENCH / "references.json"
    path.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
