"""Valuation-pattern subgroups of SL(n, Q_p) under diagonal conjugation.

A pattern subgroup is the set of determinant-one matrices whose entry (i,j)
has p-adic valuation at least a prescribed bound; diagonal entries are units
(bound 0), and a bound of None means the entry is forced to vanish.
Conjugation by diag(p^w) moves the bound at (i,j) by w_i - w_j, so scales,
root eigenfactors, and displacement indices reduce to integer bookkeeping on
the bound matrices.  Product-set factorization identities are checked
honestly inside finite congruence quotients (integral matrices modulo p^k
with determinant 1), where everything can be enumerated.
"""

import itertools
from dataclasses import dataclass

from .errors import (
    CommensurabilityError,
    InfiniteIndexError,
    InputError,
    ResourceCapError,
)
from .exactmath import is_prime


def _bound_max(a, b):
    if a is None or b is None:
        return None
    return max(a, b)


def _bound_shift(a, k):
    return None if a is None else a + k


def _bound_le(a, b):
    """a <= b in the subgroup sense: the a-pattern contains the b-pattern."""
    if b is None:
        return True
    if a is None:
        return False
    return a <= b


@dataclass(frozen=True)
class PatternSubgroup:
    n: int
    bounds: tuple  # n x n of int | None; None forces the entry to vanish

    def __post_init__(self):
        bounds = tuple(tuple(row) for row in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        if self.n < 2:
            raise InputError("pattern subgroups need dimension at least 2")
        if len(bounds) != self.n or any(len(r) != self.n for r in bounds):
            raise InputError("bounds matrix shape does not match n")
        for i in range(self.n):
            if bounds[i][i] != 0:
                raise InputError("diagonal bounds must be 0 (unit entries)")
            for j in range(self.n):
                v = bounds[i][j]
                if v is not None and not isinstance(v, int):
                    raise InputError("bounds must be integers or None")
        for i, j, k in itertools.product(range(self.n), repeat=3):
            lhs = (
                None
                if bounds[i][j] is None or bounds[j][k] is None
                else bounds[i][j] + bounds[j][k]
            )
            if not _bound_le(bounds[i][k], lhs):
                raise InputError(
                    f"bounds violate closure at ({i},{j},{k}): "
                    "m[i][j] + m[j][k] < m[i][k]"
                )

    def intersect(self, other):
        if self.n != other.n:
            raise InputError("patterns of different dimension")
        return PatternSubgroup(
            self.n,
            tuple(
                tuple(_bound_max(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.bounds, other.bounds)
            ),
        )

    def contains(self, other):
        if self.n != other.n:
            raise InputError("patterns of different dimension")
        return all(
            _bound_le(self.bounds[i][j], other.bounds[i][j])
            for i in range(self.n)
            for j in range(self.n)
        )

    def __repr__(self):
        return f"PatternSubgroup({self.n}, {self.bounds})"


@dataclass(frozen=True)
class DiagonalAutomorphism:
    w: tuple  # valuations of the diagonal entries of the conjugating element

    def __post_init__(self):
        # conjugation sees only the differences w_i - w_j, so any integer
        # vector is allowed; a common shift acts trivially
        w = tuple(int(x) for x in self.w)
        object.__setattr__(self, "w", w)
        if len(w) < 2:
            raise InputError("need at least two diagonal entries")

    @property
    def n(self):
        return len(self.w)

    def inverse(self):
        return DiagonalAutomorphism(tuple(-x for x in self.w))

    def compose(self, other):
        if self.n != other.n:
            raise InputError("diagonal automorphisms of different dimension")
        return DiagonalAutomorphism(tuple(a + b for a, b in zip(self.w, other.w)))

    def power(self, k):
        return DiagonalAutomorphism(tuple(k * x for x in self.w))


def iwahori(n):
    """Bound 1 above the diagonal, 0 on and below."""
    return PatternSubgroup(
        n, tuple(tuple(1 if i < j else 0 for j in range(n)) for i in range(n))
    )


def conjugate(pattern, alpha):
    """Image of the pattern under conjugation by diag(p^w)."""
    if pattern.n != alpha.n:
        raise InputError("pattern and automorphism dimensions differ")
    w = alpha.w
    return PatternSubgroup(
        pattern.n,
        tuple(
            tuple(
                _bound_shift(pattern.bounds[i][j], w[i] - w[j])
                for j in range(pattern.n)
            )
            for i in range(pattern.n)
        ),
    )


def index_exponent(inner, outer):
    """v_p of [outer : inner] for patterns with inner contained in outer."""
    if not outer.contains(inner):
        raise CommensurabilityError(
            "pattern is not contained in the reference; intersect first"
        )
    total = 0
    for i in range(inner.n):
        for j in range(inner.n):
            if i == j:
                continue
            a, b = inner.bounds[i][j], outer.bounds[i][j]
            if a is None and b is None:
                continue
            if a is None:
                raise InfiniteIndexError(outer, inner)
            total += a - b
    return total


def displacement_exponent(pattern, alpha):
    """v_p of [alpha(U) : alpha(U) n U] for the pattern U.

    Conjugation moves the bound at (i,j) by d = w_i - w_j, and the
    intersection with U takes the larger of b + d and b, so each entry of
    the support contributes max(0, w_j - w_i) and forced zeros contribute
    nothing.
    """
    if pattern.n != alpha.n:
        raise InputError("pattern and automorphism dimensions differ")
    w = alpha.w
    return sum(
        max(0, w[j] - w[i])
        for i, row in enumerate(pattern.bounds)
        for j, b in enumerate(row)
        if b is not None and i != j
    )


def forward_pattern(pattern, alpha):
    """Limit of the intersections of the forward conjugates.

    Entry (i,j) keeps its bound when w_i <= w_j and is forced to vanish when
    w_i > w_j, because its bound then grows without bound along the orbit.
    """
    w = alpha.w
    return PatternSubgroup(
        pattern.n,
        tuple(
            tuple(
                pattern.bounds[i][j] if w[i] <= w[j] else None
                for j in range(pattern.n)
            )
            for i in range(pattern.n)
        ),
    )


def diagonal_part(n):
    """The inert pattern: diagonal units only."""
    return PatternSubgroup(
        n, tuple(tuple(0 if i == j else None for j in range(n)) for i in range(n))
    )


@dataclass(frozen=True)
class RootEigenfactor:
    root: tuple  # (i, j), zero-based entry position
    pattern: PatternSubgroup

    def rho(self, alpha):
        """Expansion exponent of the conjugation at this root entry."""
        i, j = self.root
        return alpha.w[j] - alpha.w[i]

    def relative_scale(self, alpha, p):
        return p ** max(self.rho(alpha), 0)


def root_eigenfactors(n, base=None):
    """One eigenfactor per off-diagonal entry, plus the inert diagonal part.

    Each record's pattern keeps the base bound at its root entry and forces
    every other off-diagonal entry to vanish; conjugation scales the root
    entry by p^(w_i - w_j), so the expansion functional is w_j - w_i.
    """
    if n < 2:
        raise InputError("need n >= 2")
    if base is None:
        base = iwahori(n)
    records = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            bounds = tuple(
                tuple(
                    0
                    if r == c
                    else (base.bounds[r][c] if (r, c) == (i, j) else None)
                    for c in range(n)
                )
                for r in range(n)
            )
            records.append(
                RootEigenfactor(root=(i, j), pattern=PatternSubgroup(n, bounds))
            )
    return records, diagonal_part(n)


def permute_vector(perm, w):
    """Conjugating diag(p^w) by the permutation matrix of perm moves the
    entry at position perm[i] to position i of the new vector."""
    out = [0] * len(w)
    for i, x in enumerate(w):
        out[perm[i]] = x
    return tuple(out)


# ---------------------------------------------------------------------------
# Finite congruence quotients


def _units_mod(p, k):
    m = p**k
    return tuple(u for u in range(1, m) if u % p != 0)


def _entry_residues(bound, p, k):
    m = p**k
    if bound is None:
        return (0,)
    if bound < 0:
        raise InputError("pattern has a negative bound, so it is not integral")
    if bound >= k:
        return (0,)
    step = p**bound
    return tuple(range(0, m, step))


def _det_mod(mat, n, m):
    if n == 1:
        return mat[0] % m
    total = 0
    for j in range(n):
        minor = [
            [mat[r * n + c] for c in range(n) if c != j] for r in range(1, n)
        ]
        flat = tuple(x for row in minor for x in row)
        sub = _det_mod(flat, n - 1, m)
        term = mat[j] * sub
        total = total - term if j % 2 else total + term
    return total % m


def _mul_mod(a, b, n, m):
    return tuple(
        sum(a[i * n + t] * b[t * n + j] for t in range(n)) % m
        for i in range(n)
        for j in range(n)
    )


def _triangular_order(pattern, k):
    """Permutation making the representable support triangular, or None."""
    n = pattern.n
    edges = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            b = pattern.bounds[i][j]
            if b is not None and b < k:
                edges.add((i, j))
    order = []
    remaining = set(range(n))
    while remaining:
        free = [
            v
            for v in remaining
            if not any(u in remaining and u != v and (u, v) in edges for u in range(n))
        ]
        if not free:
            return None
        v = min(free)
        order.append(v)
        remaining.discard(v)
    position = {v: idx for idx, v in enumerate(order)}
    return position


def _mod_inverse(a, m):
    g, x = _egcd(a % m, m)
    if g != 1:
        raise ValueError("not invertible")
    return x % m


def _egcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    return old_r, old_s


def pattern_residues(pattern, p, k, cap=10**6):
    """All level-k residues of the pattern with determinant 1, as flat tuples.

    Patterns whose representable support can be permuted to a triangle are
    enumerated exactly (the last diagonal entry is solved from the others);
    general supports are enumerated with a determinant filter.  The size of
    the enumeration space before filtering is charged against the cap.
    """
    if not is_prime(p):
        raise InputError(f"{p!r} is not a prime")
    if k < 1:
        raise InputError("quotient level must be at least 1")
    n = pattern.n
    m = p**k
    units = _units_mod(p, k)
    off = [
        (i, j, _entry_residues(pattern.bounds[i][j], p, k))
        for i in range(n)
        for j in range(n)
        if i != j
    ]
    tri = _triangular_order(pattern, k)
    space = 1
    for _, _, residues in off:
        space *= len(residues)
    space *= len(units) ** (n - 1 if tri is not None else n)
    if space > cap:
        raise ResourceCapError(space, cap)
    out = set()
    if tri is not None:
        for diag in itertools.product(units, repeat=n - 1):
            inv = _mod_inverse(_prod_mod(diag, m), m)
            full_diag = diag + (inv,)
            for choice in itertools.product(*(r for _, _, r in off)):
                mat = [0] * (n * n)
                for i in range(n):
                    mat[i * n + i] = full_diag[i]
                for (i, j, _), v in zip(off, choice):
                    mat[i * n + j] = v
                out.add(tuple(mat))
        return frozenset(out)
    for diag in itertools.product(units, repeat=n):
        for choice in itertools.product(*(r for _, _, r in off)):
            mat = [0] * (n * n)
            for i in range(n):
                mat[i * n + i] = diag[i]
            for (i, j, _), v in zip(off, choice):
                mat[i * n + j] = v
            if _det_mod(tuple(mat), n, m) == 1 % m:
                out.add(tuple(mat))
    return frozenset(out)


def _prod_mod(values, m):
    out = 1
    for v in values:
        out = (out * v) % m
    return out


@dataclass(frozen=True)
class FactorizationCheck:
    ok: bool
    witness: tuple  # an element of the symmetric difference, or ()
    order: tuple  # the sign patterns in the order used
    sizes: dict


def sign_pattern_factor(base, generators, signs):
    """Pattern eigenfactor for one sign assignment: the intersection of the
    forward patterns of each generator or its inverse."""
    out = base
    for g, s in zip(generators, signs):
        out = out.intersect(forward_pattern(base, g if s > 0 else g.inverse()))
    return out


def halving_factorization_check(
    base,
    generators,
    level,
    p,
    fixed_signs=None,
    order=None,
    cap=10**6,
):
    """Product-set identity for the sign-pattern eigenfactors, in a quotient.

    The target is the base pattern restricted by the fixed signs (e.g. fixing
    one generator to + targets its forward pattern); the factors run over the
    sign assignments of the remaining generators, ordered lexicographically
    with + before -, and their ordered product must reproduce the target
    inside the group of level-k residues with determinant 1.  Pass an
    explicit order (list of full sign tuples) to test other arrangements.
    """
    generators = list(generators)
    fixed = dict(fixed_signs or {})
    target = base
    for idx, s in fixed.items():
        g = generators[idx]
        target = target.intersect(forward_pattern(base, g if s > 0 else g.inverse()))
    if order is None:
        free = [i for i in range(len(generators)) if i not in fixed]
        order = []
        for assignment in itertools.product([1, -1], repeat=len(free)):
            signs = [0] * len(generators)
            for idx, s in fixed.items():
                signs[idx] = s
            for pos, s in zip(free, assignment):
                signs[pos] = s
            order.append(tuple(signs))
    order = [tuple(signs) for signs in order]
    n = base.n
    m = p**level
    target_set = pattern_residues(target, p, level, cap=cap)
    sizes = {"target": len(target_set), "factors": []}
    product = None
    for signs in order:
        factor = sign_pattern_factor(base, generators, signs)
        fset = pattern_residues(factor, p, level, cap=cap)
        sizes["factors"].append(len(fset))
        if product is None:
            product = fset
        else:
            grown = set()
            for a in product:
                for b in fset:
                    grown.add(_mul_mod(a, b, n, m))
                    if len(grown) > cap:
                        raise ResourceCapError(len(grown), cap)
            product = frozenset(grown)
    if product is None:
        product = pattern_residues(target, p, level, cap=cap)
    ok = product == target_set
    witness = ()
    if not ok:
        diff = (product - target_set) or (target_set - product)
        witness = min(diff)
    return FactorizationCheck(
        ok=ok, witness=witness, order=tuple(order), sizes=sizes
    )
