"""Exact arithmetic core: valuations, Newton polygons, integer normal forms.

Everything here is exact. Rationals are `fractions.Fraction`, integers are
Python integers, and the valuation of zero is the `INFINITY` sentinel. No
floating point value is ever produced.

Conventions fixed once and used everywhere:

* Newton polygons are lower convex hulls of the points (i, v_p(a_i)) for the
  coefficient a_i of x^i. A segment of slope s and horizontal length m
  encodes m roots of valuation -s.
* `hermite_form` is a column-style Hermite normal form. Column operations
  preserve the integer column span. Nonzero columns are right-aligned, the
  pivot of a nonzero column is its lowest nonzero entry, pivots are positive,
  pivot rows increase left to right, and in each pivot row the entries to the
  right of the pivot are reduced into [0, pivot). Zero columns come first.
  This makes [[2,1],[0,1]] a fixed point and sends [[0,3],[3,0]] to
  [[3,0],[0,3]].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


class _PlusInfinity:
    """Sentinel for the valuation of zero. Compares above every rational."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "+inf"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("_PlusInfinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("cannot negate +inf")


INFINITY = _PlusInfinity()


def is_prime(p) -> bool:
    if not isinstance(p, int):
        return False
    from sympy import isprime

    return bool(isprime(p))


def _check_prime(p):
    from .errors import InputError

    if not is_prime(p):
        raise InputError(f"p = {p!r} is not a prime")


def padic_valuation(x, p):
    """v_p(x) for a rational x, with v_p(0) = INFINITY.

    The result is an integer; fractional valuations only arise for algebraic
    numbers and are handled through Newton polygons.
    """
    _check_prime(p)
    x = Fraction(x)
    if x == 0:
        return INFINITY
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# ---------------------------------------------------------------------------
# Newton polygons


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower hull data: vertices and (slope, horizontal length) segments."""

    vertices: tuple  # ((i, v_p(a_i)) ...), hull vertices left to right
    segments: tuple  # ((slope, length) ...), slopes strictly increasing

    def root_valuations(self):
        """[(valuation, multiplicity) ...]: a slope-s segment of length m
        gives m roots of valuation -s. Sorted by decreasing valuation."""
        return tuple((-s, m) for s, m in self.segments)


def newton_polygon(coeffs, p) -> NewtonPolygon:
    """Newton polygon of sum(coeffs[i] * x^i) at the prime p.

    Requires nonzero constant and leading coefficients, so every root is a
    nonzero algebraic number and slopes account for the full degree.
    """
    from .errors import InputError, SingularityError

    _check_prime(p)
    coeffs = [Fraction(c) for c in coeffs]
    if len(coeffs) < 2:
        raise InputError("polynomial must have degree at least 1")
    if coeffs[0] == 0:
        raise SingularityError("zero constant term: zero is a root")
    if coeffs[-1] == 0:
        raise InputError("leading coefficient is zero")
    points = [
        (i, padic_valuation(c, p)) for i, c in enumerate(coeffs) if c != 0
    ]
    # Lower convex hull, left to right. Cross product test with exact ints.
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop if hull turns left or straight at (x2, y2)
            if (x2 - x1) * (pt[1] - y1) <= (pt[0] - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        hull.append(pt)
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        segments.append((Fraction(y2 - y1, x2 - x1), x2 - x1))
    return NewtonPolygon(vertices=tuple(hull), segments=tuple(segments))


# ---------------------------------------------------------------------------
# Integer matrices


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable integer matrix with arbitrary-precision entries."""

    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        from .errors import InputError

        rows = tuple(tuple(int(x) for x in row) for row in self.entries)
        if not rows or not rows[0]:
            raise InputError("matrix must have at least one row and column")
        if len({len(r) for r in rows}) != 1:
            raise InputError("ragged rows")
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0])

    def to_lists(self):
        return [list(r) for r in self.entries]

    def transpose(self):
        return IntegerMatrix(tuple(zip(*self.entries)))

    def __mul__(self, other):
        a, b = self.entries, other.entries
        n, k, m = len(a), len(b), len(b[0])
        prod = [
            [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)
        ]
        return IntegerMatrix(tuple(tuple(r) for r in prod))

    @staticmethod
    def identity(n):
        return IntegerMatrix(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )


def _col_swap(a, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]


def _col_addmul(a, dst, src, q):
    # column dst += q * column src
    if q:
        for row in a:
            row[dst] += q * row[src]


def _col_negate(a, j):
    for row in a:
        row[j] = -row[j]


def _hermite_inplace(a, u=None):
    """Column HNF of list-of-lists `a` in place; mirrors ops into `u`."""
    n, m = len(a), len(a[0])
    c = m - 1
    for row in range(n - 1, -1, -1):
        if c < 0:
            break
        # gcd-collect the entries of this row (columns 0..c) into column c
        while True:
            nz = [j for j in range(c + 1) if a[row][j] != 0]
            if not nz:
                break
            # move the entry of least magnitude to column c
            jmin = min(nz, key=lambda j: (abs(a[row][j]), j))
            if jmin != c:
                _col_swap(a, jmin, c)
                if u is not None:
                    _col_swap(u, jmin, c)
            if all(a[row][j] == 0 for j in range(c)):
                break
            for j in range(c):
                if a[row][j] != 0:
                    q = a[row][j] // a[row][c]
                    _col_addmul(a, j, c, -q)
                    if u is not None:
                        _col_addmul(u, j, c, -q)
        if a[row][c] == 0:
            continue
        if a[row][c] < 0:
            _col_negate(a, c)
            if u is not None:
                _col_negate(u, c)
        piv = a[row][c]
        for j in range(c + 1, m):
            q = a[row][j] // piv  # floor: remainder lands in [0, piv)
            _col_addmul(a, j, c, -q)
            if u is not None:
                _col_addmul(u, j, c, -q)
        c -= 1
    return a


def hermite_form(mat: IntegerMatrix) -> IntegerMatrix:
    """Unique column Hermite normal form with the same integer column span."""
    a = mat.to_lists()
    _hermite_inplace(a)
    return IntegerMatrix(tuple(tuple(r) for r in a))


def hermite_form_with_transform(mat: IntegerMatrix):
    """(H, U) with H = mat * U, U unimodular, H the column HNF."""
    a = mat.to_lists()
    u = IntegerMatrix.identity(mat.cols).to_lists()
    _hermite_inplace(a, u)
    return (
        IntegerMatrix(tuple(tuple(r) for r in a)),
        IntegerMatrix(tuple(tuple(r) for r in u)),
    )


def kernel_basis(mat: IntegerMatrix):
    """Basis of the saturated integer kernel {x : mat x = 0}, as columns.

    Returns an IntegerMatrix (cols x k) or None when the kernel is trivial.
    """
    h, u = hermite_form_with_transform(mat)
    zero_cols = [
        j for j in range(mat.cols) if all(h.entries[i][j] == 0 for i in range(mat.rows))
    ]
    if not zero_cols:
        return None
    cols = [[u.entries[i][j] for j in zero_cols] for i in range(mat.cols)]
    return IntegerMatrix(tuple(tuple(r) for r in cols))


def _smith_inplace(a, pinv=None, q=None):
    """Diagonalize `a` with row and column ops.

    pinv accumulates the inverse of the row transform (as columns), q the
    column transform, so that original = pinv . D . q^{-1} in matrix terms
    and column-span(original) = column-span(pinv . D).
    """
    n, m = len(a), len(a[0])

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        if pinv is not None:
            _col_swap(pinv, i, j)

    def row_addmul(dst, src, lam):
        if lam:
            a[dst] = [x + lam * y for x, y in zip(a[dst], a[src])]
            if pinv is not None:
                # inverse op on the right: col_src -= lam * col_dst
                _col_addmul(pinv, src, dst, -lam)

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        if pinv is not None:
            _col_negate(pinv, i)

    def col_swap(i, j):
        _col_swap(a, i, j)
        if q is not None:
            _col_swap(q, i, j)

    def col_addmul(dst, src, lam):
        _col_addmul(a, dst, src, lam)
        if q is not None:
            _col_addmul(q, dst, src, lam)

    t = 0
    while t < n and t < m:
        # find a pivot of least magnitude
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        if i0 != t:
            row_swap(i0, t)
        if j0 != t:
            col_swap(j0, t)
        # eliminate; pivot choice keeps this terminating
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    qq = a[i][t] // a[t][t]
                    row_addmul(i, t, -qq)
                    if a[i][t] != 0:
                        row_swap(i, t)
                        dirty = True
            for j in range(t + 1, m):
                if a[t][j] != 0:
                    qq = a[t][j] // a[t][t]
                    col_addmul(j, t, -qq)
                    if a[t][j] != 0:
                        col_swap(j, t)
                        dirty = True
        if a[t][t] < 0:
            row_negate(t)
        t += 1
    r = t
    # enforce the divisibility chain d_1 | d_2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            if a[i + 1][i + 1] % a[i][i] != 0:
                # fold diagonal entry i+1 into position i
                col_addmul(i, i + 1, 1)
                qq = a[i + 1][i] // a[i][i]
                row_addmul(i + 1, i, -qq)
                # re-diagonalize the 2x2 block
                while a[i + 1][i] != 0:
                    row_swap(i, i + 1)
                    qq = a[i + 1][i] // a[i][i]
                    row_addmul(i + 1, i, -qq)
                col_addmul(i + 1, i, -(a[i][i + 1] // a[i][i]))
                if a[i][i] < 0:
                    row_negate(i)
                if a[i + 1][i + 1] < 0:
                    row_negate(i + 1)
                changed = True
    return r


def smith_invariants(mat: IntegerMatrix):
    """(rank, invariant factors d_1 | d_2 | ... | d_r), all positive.

    The cokernel of mat read as a map into Z^rows is free of rank
    rows - rank plus a Z/d_i summand for each invariant factor."""
    a = mat.to_lists()
    r = _smith_inplace(a)
    return r, tuple(a[i][i] for i in range(r))


def smith_decomposition(mat: IntegerMatrix):
    """(rank, factors, Pinv, Q): mat . Q has the same columns span as Pinv . D
    column by column; Pinv and Q are unimodular, D = diag(factors).

    Pinv's first `rank` columns scaled by the factors span the column space
    of mat over Z; Q's first `rank` columns form a section of the column map.
    """
    a = mat.to_lists()
    pinv = IntegerMatrix.identity(mat.rows).to_lists()
    q = IntegerMatrix.identity(mat.cols).to_lists()
    r = _smith_inplace(a, pinv, q)
    return (
        r,
        tuple(a[i][i] for i in range(r)),
        IntegerMatrix(tuple(tuple(row) for row in pinv)),
        IntegerMatrix(tuple(tuple(row) for row in q)),
    )


def cokernel(mat: IntegerMatrix):
    """(free_rank, torsion) of Z^rows / column-span(mat)."""
    r, factors = smith_invariants(mat)
    return mat.rows - r, tuple(d for d in factors if d > 1)


# ---------------------------------------------------------------------------
# Rational linear algebra (dense, small dimensions)


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]


def mat_vec(a, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def mat_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_inverse(a):
    from .errors import SingularityError

    n = len(a)
    work = [list(map(Fraction, row)) + row_id for row, row_id in
            zip(a, ([Fraction(int(i == j)) for j in range(n)] for i in range(n)))]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            raise SingularityError("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def rat_kernel(a):
    """Basis of the rational null space {x : a x = 0}, list of vectors."""
    n = len(a)
    m = len(a[0]) if n else 0
    work = [list(map(Fraction, row)) for row in a]
    pivots = []
    rank = 0
    for col in range(m):
        piv = next((r for r in range(rank, n) if work[r][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for r in range(n):
            if r != rank and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
    free = [j for j in range(m) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * m
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -work[r][f]
        basis.append(v)
    return basis


def _integer_scaled(rows):
    """(d, d * rows) for the least positive integer d making it integral."""
    rows = frac_matrix(rows)
    d = 1
    for row in rows:
        for x in row:
            d = lcm(d, x.denominator)
    return d, [[int(x * d) for x in row] for row in rows]


def charpoly(a):
    """Coefficients [c_0, ..., c_{n-1}, 1] of det(x I - a), exact.

    Faddeev-LeVerrier on the integer matrix b = d a, d the common
    denominator of a.  Every coefficient b_i of det(x I - b) is an integer,
    so each division is exact, and det(x I - a) = d^-n det(d x I - b) gives
    c_i = b_i d^(i - n).
    """
    n = len(a)
    d, b = _integer_scaled(a)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    bm = [list(row) for row in b]  # b M_k, starting from M_1 = I
    for k in range(1, n + 1):
        ck = -sum(bm[i][i] for i in range(n)) // k
        coeffs[n - k] = ck
        if k < n:
            for i in range(n):
                bm[i][i] += ck
            bm = mat_mul(b, bm)
    return [Fraction(c, d ** (n - i)) for i, c in enumerate(coeffs)]


def factor_over_q(coeffs):
    """Irreducible monic factors of sum(coeffs[i] x^i) over Q.

    Returns [(factor_coeffs, multiplicity) ...] with factor_coeffs ascending
    in x, monic, sorted by (degree, coefficients) for determinism."""
    import sympy

    x = sympy.Symbol("x")
    expr = sum(
        sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) * x**i
        for i, c in enumerate(coeffs)
    )
    _, factors = sympy.Poly(expr, x, domain="QQ").factor_list()
    out = []
    for poly, mult in factors:
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
        lead = cs[-1]
        cs = [c / lead for c in cs]
        out.append((tuple(cs), int(mult)))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out

