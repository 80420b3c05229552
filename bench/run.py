"""The tidyscale benchmark: seeded user jobs, timed end to end and per layer.

    python3 bench/run.py --workload padic-tidy --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop: one client, one job at a
time, no threads.  A job is one CLI command on one generated config, run
in-process through `tidyscale.cli.main` with `--out`, or one exported
library call where no CLI command exists.  Every job's output is checked,
and at the default seed its `--out` digest is compared with the recorded
reference.

--trace 0 measures whole rounds of jobs for at least --seconds and prints
the end-to-end metrics.  On a shared 2-core x86 container the speed drifts
by up to 2x within a minute (a fixed loop took 8-17 ms), so every half
second of jobs and every cold start is bracketed by a fixed
pure-Python reference loop, and the reported times are wall times rescaled
to the speed at which that loop takes REFERENCE_S: a time t measured while
the loop takes c is reported as t * REFERENCE_S / c.  The raw wall times
are saved with the run.

--trace 1 runs a fixed list of rounds twice, once plain and once with every
public tidyscale function wrapped, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The run's details (environment, every
per-layer number, failures) go to
.bench_out/<workload>-seed<seed>-trace<t>.json and the spans to
.bench_out/spans-<workload>.json.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

MIN_JOBS = 100  # so that at least ten jobs lie beyond the 90th percentile
# Median duration of one reference loop on a shared 2-core x86 container.
REFERENCE_S = 0.012
CHUNK_S = 0.5  # job time between two reference loops
HARD_SECONDS = 120  # stop adding rounds here even below MIN_JOBS
COLD_STARTS = 5
# Rounds in the traced run's fixed job list, sized to about 5 s untraced on
# a 2-core x86 container; the list is fixed so that call counts and size
# counters repeat exactly for a seed.
TRACE_ROUNDS = {
    "padic-tidy": 4,
    "padic-flat": 2,
    "torus-roots": 3,
    "finprod-windows": 4,
}

END_TO_END = {
    "jobs_per_s": "jobs/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics listed in BENCHMARK.json.  Call counts and size counters
# repeat exactly for a seed.  Times are listed only where the layer runs on
# every workload (cli and invariants); the other layers' times are printed
# and saved with the run, but they read exactly 0 on the workloads that
# bypass them.
TRACED_CALLS = (
    "cli.load_config", "cli.build_job", "cli.machine_report",
    "exactmath.mat_mul", "exactmath.charpoly", "exactmath.factor_over_q",
    "exactmath.hermite_form", "exactmath.smith_decomposition",
    "exactmath.padic_valuation", "exactmath.is_prime",
    "padic.Lattice.span", "padic.Lattice.intersect", "padic.Lattice.image",
    "padic.Lattice.index_exponent_in", "padic.expansion_exponent",
    "padic.step1_tidy", "padic.common_tidy", "padic.slope_decomposition",
    "padic.PAdicAutomorphism.compose", "padic.PAdicAutomorphism.inverse",
    "invariants.verify_suite", "invariants.relative_scale_table",
    "invariants.m_set",
    "invariants.DiagonalBackend.relative_pair",
    "invariants.DiagonalBackend.automorphism",
    "invariants.DiagonalBackend.scale_pair",
    "invariants.PatternBackend.relative_pair",
    "invariants.PatternBackend.automorphism",
    "invariants.PatternBackend.scale_pair",
    "invariants.WindowedBackend.relative_pair",
    "invariants.WindowedBackend.automorphism",
    "invariants.WindowedBackend.scale_pair",
    "torus.PatternSubgroup.__init__", "torus.conjugate",
    "torus.displacement_exponent", "torus.pattern_residues",
    "torus.halving_factorization_check",
    "finprod.WindowedSubgroup.__init__", "finprod.meet", "finprod.contains",
    "finprod.apply", "finprod.forward_part", "finprod.check_t2",
    "finprod.tidying_procedure", "finprod.common_tidy_iterative",
)
PER_LAYER = {f"{name}.calls": "count" for name in TRACED_CALLS}
PER_LAYER.update({
    "cli.load_config.total_s": "s",
    "cli.build_job.total_s": "s",
    "cli.machine_report.total_s": "s",
    "cli.self_s": "s",
    "invariants.self_s": "s",
    "job_wall_s": "s",
    "unattributed_s": "s",
    "exactmath.matrix_dim_max": "count",
    "torus.residues_max": "count",
    "finprod.elements_max": "count",
    "finprod.elements_sum": "count",
    "finprod.cap_headroom": "count",
    "trace.spans": "count",
    "trace.overhead": "ratio",
})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tidyscale" / "__init__.py").is_file():
        print(f"no tidyscale sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tidyscale  # noqa: E402  (after the path is set)

    if Path(tidyscale.__file__).resolve().parent != ROOT / "src" / "tidyscale":
        print(f"imported tidyscale from {tidyscale.__file__}", file=sys.stderr)
        return 2
    import workloads  # noqa: E402

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    bench = Bench(args.workload, args.seed)
    try:
        metrics, units, details = bench.traced() if args.trace else bench.timed(args.seconds)
    finally:
        bench.close()
    details["digests_checked"] = bench.checked_digests
    details["failures"] = bench.failures
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "details": details,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print_summary(record)
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": record["metrics"],
    }))
    return 0


class Bench:
    def __init__(self, workload, seed):
        import jobs
        import workloads

        self.workload = workload
        self.seed = seed
        self.runner = jobs.Runner(str(OUT / f"work-{os.getpid()}"))
        self.references = {}
        if seed == workloads.DEFAULT_SEED:
            with open(BENCH / "references.json", encoding="utf-8") as handle:
                self.references = json.load(handle).get(workload, {})
        self.rounds = workloads.Rounds(workload, seed)
        self.failures = []
        self.attempted = 0
        self.checked_digests = 0
        # load what the jobs need (sympy among it) before timing
        for job in workloads.warmup_jobs(workload):
            self.check(self.runner.run(job))

    def close(self):
        self.runner.close()

    def check(self, outcome):
        self.attempted += 1
        problems = list(outcome.problems)
        want = self.references.get(outcome.key)
        if want is not None:
            self.checked_digests += 1
            if outcome.digest != want:
                problems.append(f"--out digest {outcome.digest} != reference {want}")
        if problems:
            self.failures.append({"job": outcome.key, "command": outcome.command,
                                  "problems": problems})
            print(f"FAILED {outcome.key} {outcome.command}: {problems}",
                  file=sys.stderr)
        return outcome

    # -- end to end -----------------------------------------------------

    def timed(self, seconds):
        """Whole rounds until `seconds` have passed and MIN_JOBS are done.

        The reference loop runs between chunks of about CHUNK_S of jobs;
        a chunk's times are rescaled by the mean of the loops around it."""
        raw, times = [], []
        batch = scaled_batch = 0.0
        before = reference()
        while batch < HARD_SECONDS and (batch < seconds or len(times) < MIN_JOBS):
            jobs = next(self.rounds)
            chunk, started = [], time.perf_counter()
            for k, job in enumerate(jobs):
                chunk.append(self.check(self.runner.run(job)).seconds)
                elapsed = time.perf_counter() - started
                if elapsed < CHUNK_S and k < len(jobs) - 1:
                    continue
                after = reference()
                scale = REFERENCE_S / statistics.mean((before, after))
                raw.extend(chunk)
                times.extend(t * scale for t in chunk)
                batch += elapsed
                scaled_batch += elapsed * scale
                before = after
                chunk, started = [], time.perf_counter()
        setups, raw_setups = cold_starts(self.workload)
        metrics = {
            "jobs_per_s": len(times) / scaled_batch,
            "job_p50_s": statistics.median(times),
            "job_p90_s": p90(times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        details = {
            "jobs": len(times),
            "jobs_beyond_p90": sum(t > metrics["job_p90_s"] for t in times),
            "batch_s": batch,
            "raw_jobs_per_s": len(raw) / batch,
            "raw_job_p50_s": statistics.median(raw),
            "raw_job_p90_s": p90(raw),
            "raw_setup_s": statistics.median(raw_setups),
            "setup_runs_s": setups,
            "fail_ratio": len(self.failures) / self.attempted,
            "repeated_configs": self.rounds.repeats,
        }
        return metrics, END_TO_END, details

    # -- per layer ------------------------------------------------------

    def traced(self):
        """The same fixed job list plain, then traced."""
        from tracer import Tracer

        jobs = [job for _ in range(TRACE_ROUNDS[self.workload])
                for job in next(self.rounds)]
        _clear_caches()
        started = time.perf_counter()
        for job in jobs:
            self.check(self.runner.run(job))
        plain_s = time.perf_counter() - started
        _clear_caches()
        tracer = Tracer()
        tracer.install()
        try:
            started = time.perf_counter()
            for job in jobs:
                self.check(self.runner.run(job, around=tracer.job))
            traced_s = time.perf_counter() - started
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"spans-{self.workload}.json")
        summary = tracer.summary()
        layers_ns = sum(summary["layer_self_ns"].values())
        balanced = layers_ns + summary["unattributed_ns"] == summary["job_wall_ns"]
        if not balanced:
            self.failures.append({"job": "trace", "command": "trace", "problems": [
                "layer self times plus unattributed differ from the job wall time"]})
        metrics = per_layer_metrics(summary, tracer)
        metrics["trace.overhead"] = traced_s / plain_s
        details = {
            "jobs": len(jobs),
            "plain_jobs_per_s": len(jobs) / plain_s,
            "traced_jobs_per_s": len(jobs) / traced_s,
            "layer_self_s": {k: v / 1e9 for k, v in summary["layer_self_ns"].items()},
            "unattributed_s": summary["unattributed_ns"] / 1e9,
            "job_wall_s": summary["job_wall_ns"] / 1e9,
            "balanced": balanced,
            "functions": {
                name: {
                    "calls": summary["calls"][name],
                    "self_s": summary["self_ns"][name] / 1e9,
                    "total_s": summary["total_ns"][name] / 1e9,
                }
                for name in sorted(summary["calls"])
            },
            "sizes": {"max": dict(tracer.size_max), "sum": dict(tracer.size_sum),
                      "calls": dict(tracer.size_calls)},
        }
        return metrics, PER_LAYER, details


def per_layer_metrics(summary, tracer):
    import workloads

    out = {f"{name}.calls": summary["calls"].get(name, 0) for name in TRACED_CALLS}
    for name in ("cli.load_config", "cli.build_job", "cli.machine_report"):
        out[f"{name}.total_s"] = summary["total_ns"].get(name, 0) / 1e9
    for layer in ("cli", "invariants"):
        out[f"{layer}.self_s"] = summary["layer_self_ns"][layer] / 1e9
    out["job_wall_s"] = summary["job_wall_ns"] / 1e9
    out["unattributed_s"] = summary["unattributed_ns"] / 1e9
    out["exactmath.matrix_dim_max"] = tracer.size_max["matrix_dim"]
    out["torus.residues_max"] = max(
        (v for k, v in tracer.size_max.items() if k.startswith("residues.")),
        default=0,
    )
    out["finprod.elements_max"] = tracer.size_max["elements"]
    out["finprod.elements_sum"] = tracer.size_sum["elements"]
    out["finprod.cap_headroom"] = workloads.FINPROD_CAP - tracer.size_max["elements"]
    out["trace.spans"] = len(tracer.kind)
    return out


def p90(times):
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def _reference_loop():
    total = Fraction(0)
    for i in range(1, 1200):
        total += Fraction(i % 7 + 1, i)
    table = {}
    for i in range(12000):
        table[(i, i % 13)] = (i, str(i))
    return total, len(table)


def reference():
    """Seconds one reference loop takes now: the least of three runs."""
    out = []
    for _ in range(3):
        started = time.perf_counter()
        _reference_loop()
        out.append(time.perf_counter() - started)
    return min(out)


def _clear_caches():
    """Empty sympy's expression cache, so both passes start alike."""
    try:
        from sympy.core.cache import clear_cache
    except ImportError:
        return
    clear_cache()


def cold_starts(workload):
    """Rescaled and raw wall times of fresh interpreters that import
    tidyscale.cli and run the workload's warm-up jobs."""
    scaled, raw = [], []
    for _ in range(COLD_STARTS):
        before = reference()
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "coldstart.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        raw.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-500:]}")
        scaled.append(raw[-1] * REFERENCE_S / statistics.mean((before, reference())))
    return scaled, raw


def environment(seed):
    import sympy

    return {
        "seed": seed,
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
    }


def git_revision():
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_summary(record):
    print(f"workload {record['workload']}: {json.dumps(record['environment'])}")
    details = record["details"]
    for name, value in sorted(details.items()):
        if name not in ("failures", "functions"):
            print(f"  {name}: {json.dumps(value)}")
    if "functions" in details:
        print(f"  {'function':52s} {'calls':>9s} {'self_s':>9s} {'total_s':>9s}")
        for name, row in details["functions"].items():
            print(f"  {name:52s} {row['calls']:9d} {row['self_s']:9.4f}"
                  f" {row['total_s']:9.4f}")
    for name, metric in record["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")


if __name__ == "__main__":
    sys.exit(main())
