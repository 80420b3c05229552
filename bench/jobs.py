"""Running one benchmark job and checking its output.

A CLI job runs in-process through `tidyscale.cli.main` with `--out` and its
standard output captured; the halving job calls the exported library
function.  Standard output is never digested: it carries the `elapsed:`
line, which changes from run to run.
"""

import contextlib
import hashlib
import io
import json
import os
import time
import traceback
from dataclasses import dataclass

import tidyscale
from tidyscale import cli


@dataclass
class Outcome:
    key: str
    command: str
    seconds: float  # wall time of the call into tidyscale
    digest: str  # of the --out report, or of the library result
    problems: list  # empty when every check passed


class Runner:
    """Runs jobs in a scratch directory that it owns and cleans up."""

    def __init__(self, workdir):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.config_path = os.path.join(workdir, "job.yaml")
        self.out_path = os.path.join(workdir, "job.json")

    def close(self):
        for path in (self.config_path, self.out_path):
            if os.path.exists(path):
                os.remove(path)
        with contextlib.suppress(OSError):
            os.rmdir(self.workdir)

    def run(self, job, around=None):
        """Run a job and check it.  `around` wraps the timed call, so the
        tracer can open a span that covers exactly what is timed."""
        call = self._cli_call(job) if job.config is not None else _halving_call(job)
        problems = []
        started = time.perf_counter()
        try:
            value = around(call) if around else call()
        except Exception as exc:  # a failed job is counted, never fatal
            seconds = time.perf_counter() - started
            where = traceback.extract_tb(exc.__traceback__)[-1]
            problem = f"raised {exc!r} at {where.filename}:{where.lineno}"
            return Outcome(job.key, job.command, seconds, "", [problem])
        seconds = time.perf_counter() - started
        if job.config is not None:
            code, stderr = value
            if code != 0:
                problems.append(f"exit {code}: {stderr.strip()[:200]}")
                return Outcome(job.key, job.command, seconds, "", problems)
            with open(self.out_path, "rb") as handle:
                raw = handle.read()
            report = json.loads(raw)
            problems.extend(check_report(job, report))
        else:
            raw = canonical(value)
            problems.extend(check_halving(job, value))
        return Outcome(job.key, job.command, seconds, digest(raw), problems)

    def _cli_call(self, job):
        with open(self.config_path, "w", encoding="utf-8") as handle:
            handle.write(job.config_text())
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        argv = [job.command, "--config", self.config_path, "--out", self.out_path]
        argv.extend(job.args)

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, err.getvalue()

        return call


def _halving_call(job):
    p = job.params

    def call():
        gens = [tidyscale.DiagonalAutomorphism(tuple(w)) for w in p["weights"]]
        return tidyscale.halving_factorization_check(
            tidyscale.iwahori(p["n"]), gens, p["level"], p["prime"],
            fixed_signs={0: 1},
        )

    return call


def canonical(check):
    """Byte form of a halving result, the library job's `--out`."""
    data = {
        "ok": bool(check.ok),
        "witness": list(check.witness),
        "order": [list(s) for s in check.order],
        "sizes": check.sizes,
    }
    return json.dumps(data, sort_keys=True).encode()


def digest(raw):
    return hashlib.sha256(raw).hexdigest()[:16]


# ---------------------------------------------------------------------------
# checks against values known by construction


def check_report(job, report):
    problems = []
    if report.get("ok") is not True:
        problems.append("report is not ok")
    results = report["results"]
    expect = job.expect or {}
    if "scales" in expect and results.get("scales") != expect["scales"]:
        problems.append(f"scales {results.get('scales')} != {expect['scales']}")
    if "tidy_scales" in expect:
        gens = results["generators"]
        got = {name: gens[name]["scale"] for name in gens}
        if got != expect["tidy_scales"]:
            problems.append(f"tidy scales {got} != {expect['tidy_scales']}")
        if not all(gens[name]["tidy"] for name in gens):
            problems.append("tidy certificate failed")
    if "records" in expect:
        got = sorted((r["rho"], r["t"]) for r in results["records"])
        want = [tuple(x) for x in expect["records"]]
        if got != want:
            problems.append(f"records {got} != {want}")
        if "rank" in expect:
            # the unit rays make the saturated rho span Z^g, so the
            # M-points are the rho vectors in the standard basis
            points = sorted(results["m_points"])
            rhos = sorted(rho for rho, _ in want)
            if points != rhos:
                problems.append(f"m_points {points} != {rhos}")
            if results["rank"] != expect["rank"]:
                problems.append(f"rank {results['rank']} != {expect['rank']}")
    if "root_records" in expect:
        got = sorted((r["factor"], r["rho"], r["t"]) for r in results["records"])
        want = [tuple(x) for x in expect["root_records"]]
        if got != want:
            problems.append(f"root records {got} != {want}")
    if job.command == "verify":
        failed = [c["name"] for c in results["checks"] if not c["ok"]]
        if failed:
            problems.append(f"verify checks failed: {failed}")
    if job.command == "tidy" and "joint" in results and not results["joint"]["found"]:
        problems.append("no joint tidy subgroup found")
    return problems


def check_halving(job, check):
    problems = []
    if not check.ok:
        problems.append(f"halving product misses the target: {check.witness}")
    if check.sizes["target"] != job.expect["target"]:
        problems.append(
            f"target residues {check.sizes['target']} != {job.expect['target']}"
        )
    return problems
