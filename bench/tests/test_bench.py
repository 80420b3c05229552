"""The benchmark's own tests.

    python3 -m pytest bench/tests
"""

import inspect
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import jobs
import run
import workloads
from tracer import JOB, Tracer

BENCH = Path(__file__).resolve().parents[1]


def first_rounds(workload, seed, count=2):
    return [job for _, batch in zip(range(count), workloads.Rounds(workload, seed))
            for job in batch]


@pytest.fixture
def runner(tmp_path):
    r = jobs.Runner(str(tmp_path / "work"))
    yield r
    r.close()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_jobs_new_seed_new_jobs(workload):
    first = first_rounds(workload, 7)
    again = first_rounds(workload, 7)
    other = first_rounds(workload, 8)
    assert first == again
    assert [j.key for j in first] == [j.key for j in other]
    assert [j.identity() for j in first] != [j.identity() for j in other]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_configs_are_exact_and_new(workload):
    batch = first_rounds(workload, 3)
    ids = [job.identity() for job in batch]
    assert len(set(ids)) == len(ids)
    for job in batch:
        if job.config is not None:
            assert not any(isinstance(x, float) for x in _leaves(job.config))
            reread = workloads.yaml.safe_load(job.config_text())
            assert not any(isinstance(x, float) for x in _leaves(reread))


def _leaves(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _leaves(value)
    elif isinstance(node, list):
        for value in node:
            yield from _leaves(value)
    else:
        yield node


def test_same_seed_same_digests(runner):
    batch = first_rounds("torus-roots", 4, count=1)
    picked = batch[:4] + [j for j in batch if j.command == "halving"][:3]
    first = [runner.run(job) for job in picked]
    again = [runner.run(job) for job in picked]
    assert all(not o.problems for o in first)
    assert [o.digest for o in first] == [o.digest for o in again]


def test_references_match_default_seed(runner):
    refs = json.loads((BENCH / "references.json").read_text())
    for workload in workloads.WORKLOADS:
        for job in next(workloads.Rounds(workload, workloads.DEFAULT_SEED))[:3]:
            outcome = runner.run(job)
            assert not outcome.problems
            assert refs[workload][job.key] == outcome.digest


def test_checks_catch_a_wrong_scale(runner):
    job = next(workloads.Rounds("padic-tidy", 1))[0]
    assert job.command == "scale"
    expect = json.loads(json.dumps(job.expect))
    expect["scales"]["g1"]["s"] *= job.config["prime"]
    wrong = workloads.Job(job.key, job.command, job.config, job.args, job.params, expect)
    assert runner.run(wrong).problems


def _snapshot():
    out = {}
    for name, module in sys.modules.items():
        if name == "tidyscale" or name.startswith("tidyscale."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if inspect.isclass(value):
                    for key, raw in vars(value).items():
                        out[(name, attr, key)] = raw
    return out


def test_wrapped_functions_return_what_the_originals_do():
    from tidyscale import exactmath, finprod, padic, torus

    mat = exactmath.IntegerMatrix(((4, 6), (2, 9), (8, 3)))
    cols = [(Fraction(1, 3), 2, 0), (0, 5, Fraction(9, 2))]
    fib = finprod.s3_group()
    amb = finprod.AmbientGroup(fib, 1, frozenset({0}), frozenset(range(6)))

    def compute():
        return (
            exactmath.hermite_form(mat),
            exactmath.smith_decomposition(mat)[:2],
            exactmath.padic_valuation(Fraction(18, 5), 3),
            padic.Lattice.span(3, cols),
            padic.scale(padic.PAdicAutomorphism(((Fraction(1, 3), 0), (1, 3)), 3)),
            torus.PatternSubgroup(2, ((0, 1), (0, 0))),
            torus.pattern_residues(torus.iwahori(2), 2, 2),
            finprod.product_subgroup(amb, 0, 2, {(0, 0): (0, 4, 5)}).elements,
        )

    plain = compute()
    original = exactmath.hermite_form
    tracer = Tracer()
    tracer.install()
    try:
        assert exactmath.hermite_form is not original
        assert padic.hermite_form is exactmath.hermite_form
        traced = tracer.job(compute)
    finally:
        tracer.uninstall()
    assert traced == plain
    summary = tracer.summary()
    for name in ("exactmath.hermite_form", "padic.Lattice.span",
                 "torus.PatternSubgroup.__init__", "finprod.WindowedSubgroup.__init__"):
        assert summary["calls"][name] >= 1
    assert tracer.size_max["matrix_dim"] == 3
    assert tracer.size_max["residues.level2"] == len(plain[6])


def test_traced_run_leaves_modules_unpatched(runner):
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        changed = [k for k, v in _snapshot().items() if before.get(k) is not v]
        assert changed  # something was wrapped
        for job in first_rounds("padic-flat", 2, count=1)[:2]:
            assert not runner.run(job, around=tracer.job).problems
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_add_up_to_job_wall_time(runner):
    tracer = Tracer()
    tracer.install()
    try:
        for job in itertools.islice(next(workloads.Rounds("finprod-windows", 5)), 4):
            assert not runner.run(job, around=tracer.job).problems
    finally:
        tracer.uninstall()
    s = tracer.summary()
    assert s["calls"][JOB] == 4
    assert sum(s["layer_self_ns"].values()) + s["unattributed_ns"] == s["job_wall_ns"]
    assert s["layer_self_ns"]["finprod"] > 0
    assert s["layer_self_ns"]["padic"] == 0
    assert s["layer_self_ns"]["torus"] == 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
