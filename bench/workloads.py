"""Seeded job generators for the four benchmark workloads.

A workload is an endless sequence of rounds.  Every round holds the same
job shapes in the same order (command, dimension or fiber, generator
count; primes rotate from round to round), and the seed draws only the
contents: valuations, units, conjugating matrices, weights, windows and
twists.  Fixing the shapes per round keeps
the job-time distribution of a batch of whole rounds the same from seed to
seed, so the quantiles compare across seeds.  Job times cluster by shape,
so each round holds an odd number of jobs and the shapes are picked so
that the median and the 90th percentile fall inside a cluster; in a gap
between two clusters they would jump from seed to seed.

The generators import nothing from tidyscale: the program under test sees
only the YAML configs and arguments built here.  Configs hold integers and
rational strings, never floats.  Values that are known by construction go
into `Job.expect`, for the checks in `jobs.py`.
"""

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import yaml

DEFAULT_SEED = 0
FINPROD_CAP = 10**6
REDRAWS = 50


@dataclass(frozen=True)
class Job:
    key: str  # "<workload>/<round>/<slot>", stable for a seed
    command: str  # a CLI command, or "halving" for the library call
    config: dict = None  # YAML mapping of a CLI job
    args: tuple = ()  # extra CLI flags
    params: dict = None  # arguments of a library job
    expect: dict = None  # values known by construction

    def config_text(self):
        return yaml.safe_dump(self.config, sort_keys=False)

    def identity(self):
        """What makes two jobs the same job."""
        if self.config is not None:
            return (self.command, self.config_text(), self.args)
        return (self.command, repr(sorted(self.params.items())))


# ---------------------------------------------------------------------------
# exact helpers


def _rational(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _unimodular(rng, n):
    """A random integer matrix of determinant 1 and its integer inverse,
    built from three elementary row additions of +-1.

    Larger conjugators (n + 1 additions of up to +-2) make about 1 in 50
    jobs at n = 5-6 run for minutes: the entries inside
    `smith_decomposition` explode while `step1_tidy` trims the lattice."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        m = rng.choice((-1, 1))
        # row_i += m row_j on u; the inverse gets col_j -= m col_i
        u[i] = [x + m * y for x, y in zip(u[i], u[j])]
        for row in inv:
            row[j] -= m * row[i]
    return u, inv


# ---------------------------------------------------------------------------
# p-adic families


def _padic_family(rng, n, p, valuations, conjugate):
    """Commuting generators U diag(p^k u) U^-1, one per valuation row.

    Every eigenvalue is p^k times a p-adic unit, so each rational factor of
    the characteristic polynomial is linear and carries one slope."""
    units = [u for u in range(-4, 5) if u % p]
    if conjugate:
        u, inv = _unimodular(rng, n)
    else:
        u = inv = [[int(i == j) for j in range(n)] for i in range(n)]
    gens = []
    for j, ks in enumerate(valuations):
        diag = [
            [
                Fraction(p) ** ks[i] * rng.choice(units) if i == c else Fraction(0)
                for c in range(n)
            ]
            for i in range(n)
        ]
        mat = _mat_mul(_mat_mul(u, diag), inv)
        gens.append(
            {"name": f"g{j + 1}", "matrix": [[_rational(x) for x in r] for r in mat]}
        )
    return {"backend": "padic", "prime": p, "generators": gens}


def _scales(p, valuations):
    """Scale, inverse scale and module of each generator, by construction:
    an eigenvalue p^k u is expanded by p^-k when k < 0."""
    out = {}
    for j, ks in enumerate(valuations):
        out[f"g{j + 1}"] = {
            "s": p ** sum(max(0, -k) for k in ks),
            "s_inverse": p ** sum(max(0, k) for k in ks),
            "module": str(Fraction(p) ** -sum(ks)),
        }
    return out


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return tuple(x // g for x in v), g


def _eigenfactor_records(p, valuations):
    """Records of a diagonalisable family from its valuation support.

    Slot i contributes psi_i = (-k_1i, ..., -k_gi).  Slots on one ray
    d (psi_i = c_i d, c_i > 0) form one eigenfactor with t = p^(sum c_i)
    and rho = d."""
    n = len(valuations[0])
    rays = {}
    for i in range(n):
        psi = tuple(-ks[i] for ks in valuations)
        if any(psi):
            d, c = _primitive(psi)
            rays[d] = rays.get(d, 0) + c
    return sorted((list(d), p**c) for d, c in rays.items())


def _flat_valuations(rng, n, g):
    """Slot j < g is expanded by generator j alone, which puts the unit
    vectors among the rays: the rho vectors then span Z^g and the M-points
    are the rho vectors themselves.  The other slots are random."""
    vals = [[0] * n for _ in range(g)]
    for j in range(g):
        vals[j][j] = -1
    for i in range(g, n):
        for j in range(g):
            vals[j][i] = rng.randint(-1, 1)
    return vals


def _padic_tidy_round(r):
    # (command, n, generator count); primes rotate with the slot and round
    shapes = [(cmd, n, 1) for n in range(2, 7) for cmd in ("scale", "tidy")]
    shapes += [("tidy", 3, 2), ("scale", 4, 2), ("tidy", 4, 2), ("tidy", 2, 3),
               ("scale", 3, 3)]
    for slot, (cmd, n, g) in enumerate(shapes):
        yield functools.partial(_padic_tidy_job, cmd, n, g, (2, 3, 5)[(slot + r) % 3])


def _padic_tidy_job(cmd, n, g, p, rng):
    vals = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(g)]
    cfg = _padic_family(rng, n, p, vals, conjugate=True)
    scales = _scales(p, vals)
    if cmd == "tidy":
        return [Job("", cmd, cfg, expect={
            "tidy_scales": {k: v["s"] for k, v in scales.items()}})]
    return [Job("", cmd, cfg, expect={"scales": scales})]


def _padic_flat_round(r):
    shapes = [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]
    for slot, (n, g) in enumerate(shapes):
        for conjugate in (False, True):
            p = (2, 3, 5)[(2 * slot + conjugate + r) % 3]
            # the 13-check suite costs 0.7-1 s even at n = 2, so one family
            # per round is verified, alternating diagonal and conjugated
            verify = (n, g) == (2, 2) and conjugate == bool(r % 2)
            yield functools.partial(_padic_flat_jobs, n, g, p, conjugate, verify)


def _padic_flat_jobs(n, g, p, conjugate, verify, rng):
    vals = _flat_valuations(rng, n, g)
    cfg = _padic_family(rng, n, p, vals, conjugate)
    records = _eigenfactor_records(p, vals)
    out = [
        Job("", "eigenfactors", cfg, expect={"records": records}),
        Job("", "invariants", cfg, expect={"records": records, "rank": g}),
    ]
    if verify:
        out.append(Job("", "verify", cfg, expect={}))
    return out


# ---------------------------------------------------------------------------
# torus blocks and halving checks


def _nonconstant_weights(rng, n, distinct=False):
    while True:
        w = [rng.randint(-2, 2) for _ in range(n)]
        if distinct and len(set(w)) < n:
            continue
        if len(set(w)) > 1:
            return w


def _root_records(p, weights):
    """One record per root (i, j) that some generator moves: the root entry
    is scaled by p^(w_j - w_i), so rho is that difference over its content
    and t is p^content."""
    n = len(weights[0])
    out = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            diff = tuple(w[j] - w[i] for w in weights)
            if any(diff):
                rho, c = _primitive(diff)
                out.append((f"root({i + 1},{j + 1})", list(rho), p**c))
    return sorted(out)


def _iwahori_target_size(n, p, level, w0):
    """Level-k residues of det 1 in the Iwahori block cut down to the
    forward pattern of diag(p^w0): entry (i, j) vanishes when w0_i > w0_j.
    With distinct weights the support is a triangle, so the count is
    phi(p^k)^(n-1) times p^(k - bound) per surviving entry."""
    m = p**level
    count = (m - m // p) ** (n - 1)
    for i in range(n):
        for j in range(n):
            if i != j and w0[i] <= w0[j]:
                bound = 1 if i < j else 0
                count *= p ** (level - min(bound, level))
    return count


# (n, prime, level) of the halving jobs.  Cost grows with the residue-set
# sizes and depends on the weights: n = 2 at p = 3, level 3 takes 0.02-0.6 s,
# n = 3 at p = 2, level 3 about 9 s, n = 4 at p = 2, level 2 about 5 s, and
# n = 3 at p = 3 runs 40 s at level 2 and past 100 s at level 3.  The shapes
# kept stay under 60 ms for any weights.  Nine of them make 25 jobs a round,
# which puts the 90th percentile inside the cluster of the two 0.3-0.4 s
# verify jobs instead of in the gap below it.
HALVING_SHAPES = (
    (2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 3, 1), (2, 3, 2),
    (3, 2, 1), (3, 2, 2), (3, 3, 1), (4, 2, 1),
)


def _torus_round(r):
    shapes = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)]
    for slot, (n, g) in enumerate(shapes):
        yield functools.partial(_torus_jobs, n, g, (2, 3, 5)[(slot + r) % 3])
    for n, p, level in HALVING_SHAPES:
        yield functools.partial(_halving_job, n, p, level)


def _torus_jobs(n, g, p, rng):
    weights = [_nonconstant_weights(rng, n) for _ in range(g)]
    cfg = {
        "backend": "torus",
        "prime": p,
        "size": n,
        "generators": [
            {"name": f"x{j + 1}", "weights": w} for j, w in enumerate(weights)
        ],
    }
    records = _root_records(p, weights)
    return [
        Job("", "invariants", cfg, expect={"root_records": records}),
        Job("", "verify", cfg, expect={}),
    ]


def _halving_job(n, p, level, rng):
    weights = [_nonconstant_weights(rng, n, distinct=True)]
    weights.append(_nonconstant_weights(rng, n))
    params = {"n": n, "prime": p, "level": level, "weights": weights}
    expect = {"target": _iwahori_target_size(n, p, level, weights[0])}
    return [Job("", "halving", params=params, expect=expect)]


# ---------------------------------------------------------------------------
# restricted products


S3 = ("e", "s1", "s2", "s3", "t", "t2")
ORDER8 = ("e", "c2", "c1", "c1c2", "a", "c2a", "c1a", "c1c2a")
C2 = ("e", "g")
C3 = ("e", "g", "g2")

# One slot per line: fiber, period, window width, the column subgroups (one
# of them, drawn per config, fills every window column), the generators,
# the elements a twist may conjugate by, and the commands run on it.  The
# drawn subgroups of a slot are conjugate, so the seed moves the window's
# position, its subgroup and the twist, but not the element count |E| that
# sets the cost.  The tails are {e} on the left and the whole fiber on the
# right; a window of whole fibers is checked for closure on all
# |fiber|^(width*period) elements before it folds into the right tail.
#
# Sizing: every shape runs in 5-300 ms on a 2-core x86 container.  A window
# of 512 elements takes 0.4-0.8 s per job and one of a few thousand takes
# seconds to construct, so the largest window has 256 elements.  Windows
# start at slot 0 to 5, twists sit on the window's first column, and every
# generator shifts by +1: with shift -1, or a twist further right, the
# tidying procedure enumerates past the constructor's 5*10^7 ceiling.  The
# slots without a twist have six to eighteen configs each.
S3_PAIRS = [("e", "s1"), ("e", "s2"), ("e", "s3")]
ORDER8_TWISTS = ("c1", "c2", "a", "c1a", "c1c2a")
BOTH = ("tidy", "invariants")
FINPROD_SHAPES = (
    ("cyclic(2)", 1, 8, [C2], ("shift",), (), BOTH),
    ("cyclic(2)", 2, 3, [C2], ("shift", "rotate"), (), BOTH),
    ("cyclic(3)", 2, 2, [C3], ("shift",), (), BOTH),
    ("s3", 1, 3, [("e", "t", "t2")], ("twist",), S3[1:], BOTH),
    ("s3", 1, 2, S3_PAIRS, ("twist",), S3[1:], BOTH),
    ("s3", 1, 3, [S3], ("shift",), (), BOTH),
    ("s3", 2, 1, S3_PAIRS, ("shift",), (), ("tidy",)),
    ("order8", 1, 2, [ORDER8], ("twist",), ORDER8_TWISTS, BOTH),
    ("order8", 1, 2, [ORDER8[:4]], ("twist",), ORDER8_TWISTS, BOTH),
)


def _finprod_config(rng, fiber, period, width, columns, gens, twisters):
    lo = rng.randint(0, 5)
    column = list(rng.choice(columns))
    entries = [
        {"at": [lo + n, a], "allowed": column}
        for n in range(width)
        for a in range(period)
    ]
    generators = []
    for j, kind in enumerate(gens):
        entry = {"name": f"a{j + 1}", "shift": 1}
        if kind == "rotate":
            entry["rotate"] = list(reversed(range(period)))
        elif kind == "twist":
            entry["twists"] = [{"at": [lo, 0], "inner": rng.choice(twisters)}]
        generators.append(entry)
    return {
        "backend": "finprod",
        "fiber": fiber,
        "period": period,
        "left_tail": ["e"],
        "right_tail": "all",
        "base": {"window": [lo, lo + width], "entries": entries, "left": ["e"]},
        "generators": generators,
    }


def _finprod_round(r):
    for shape in FINPROD_SHAPES:
        yield functools.partial(_finprod_jobs, shape)


def _finprod_jobs(shape, rng):
    *config_shape, commands = shape
    cfg = _finprod_config(rng, *config_shape)
    args = ("--cap", str(FINPROD_CAP))
    return [Job("", cmd, cfg, args, expect={}) for cmd in commands]


# ---------------------------------------------------------------------------
# public interface

WORKLOADS = {
    "padic-tidy": _padic_tidy_round,
    "padic-flat": _padic_flat_round,
    "torus-roots": _torus_round,
    "finprod-windows": _finprod_round,
}


class Rounds:
    """Endless rounds of jobs for a workload; equal seeds give equal jobs.

    Each slot of a round draws its jobs again while they repeat earlier
    jobs, so the program meets every config once.  A slot whose space of
    configs is used up (some finprod slots have six) keeps
    its last draw, and `repeats` counts those jobs."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.seen = set()
        self.count = 0
        self.repeats = 0

    def __iter__(self):
        return self

    def __next__(self):
        r = self.count
        self.count += 1
        batch = []
        for draw in WORKLOADS[self.workload](r):
            for _ in range(REDRAWS):
                jobs = draw(self.rng)
                ids = [job.identity() for job in jobs]
                if self.seen.isdisjoint(ids):
                    break
            else:
                self.repeats += len(jobs)
            self.seen.update(ids)
            for job in jobs:
                batch.append(_keyed(job, f"{self.workload}/{r}/{len(batch)}"))
        return batch


def _keyed(job, key):
    return Job(key, job.command, job.config, job.args, job.params, job.expect)


def warmup_jobs(workload):
    """The first job of each command in the default seed's first round: a
    fresh interpreter runs these before timing, so that lazy imports (sympy
    behind `is_prime` and `factor_over_q`) land in the set-up time."""
    firsts = {}
    for job in next(Rounds(workload, DEFAULT_SEED)):
        firsts.setdefault(job.command, job)
    return list(firsts.values())
