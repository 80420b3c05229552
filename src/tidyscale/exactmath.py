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
from itertools import combinations, zip_longest
from math import gcd, isqrt, lcm

from .errors import InputError, SingularityError


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


_SMALL_PRIME_BOUND = 1 << 10
_SMALL_PRIMES = frozenset(
    k for k in range(2, _SMALL_PRIME_BOUND)
    if all(k % d for d in range(2, isqrt(k) + 1))
)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin on the bases above is exact below this bound (Sorenson and
# Webster, Math. Comp. 86 (2017))
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(p) -> bool:
    """Primality of an integer; False for anything that is not an int.

    Below 2^10 a set lookup.  Above, deterministic Miller-Rabin on the
    first 13 prime bases, which is exact below 3.3 * 10^24, and above that
    the strong Baillie-PSW test: Miller-Rabin to base 2 and the strong
    Lucas test with Selfridge's parameters (Baillie and Wagstaff, Math.
    Comp. 35 (1980); Cohen, GTM 138, section 8.2), to which no
    counterexample is known.
    """
    if not isinstance(p, int):
        return False
    if p < _SMALL_PRIME_BOUND:
        return p in _SMALL_PRIMES
    if any(p % a == 0 for a in _MR_BASES):
        return False
    if p < _MR_EXACT_BELOW:
        return all(_strong_probable_prime(p, a) for a in _MR_BASES)
    return _strong_probable_prime(p, 2) and _strong_lucas_probable_prime(p)


def _strong_probable_prime(n, a):
    """Miller-Rabin round: is the odd n > a a strong probable prime to base a?"""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a, n):
    """Jacobi symbol (a / n) for odd positive n."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n):
    """Strong Lucas test of the odd n, with P = 1 and Q = (1 - D) / 4 for the
    first D in 5, -7, 9, -11, ... with Jacobi symbol (D / n) = -1."""
    if isqrt(n) ** 2 == n:
        return False  # no such D exists for a square
    disc = 5
    while True:
        j = _jacobi(disc, n)
        if j == -1:
            break
        if j == 0 and abs(disc) < n:
            return False
        disc = -disc - 2 if disc > 0 else -disc + 2
    q = (1 - disc) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x):
        return (x + n if x % 2 else x) // 2 % n

    # U_k, V_k, Q^k from k = 1 along the bits of d
    u, v, qk = 1, 1, q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(disc * u + v), qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _check_prime(p):
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


def _kernel_coordinates(rows, keep):
    """The saturated integer kernel of an integer matrix, given as a list of
    rows that is overwritten: the first `keep` coordinates of a basis, one
    column per basis vector (no columns when the kernel is trivial)."""
    m = len(rows[0])
    u = [[int(i == j) for j in range(m)] for i in range(keep)]
    _hermite_inplace(rows, u)
    zero = next((j for j in range(m) if any(row[j] for row in rows)), m)
    return [row[:zero] for row in u]


def kernel_basis(mat: IntegerMatrix):
    """Basis of the saturated integer kernel {x : mat x = 0}, as columns.

    Returns an IntegerMatrix (cols x k) or None when the kernel is trivial.
    """
    cols = _kernel_coordinates(mat.to_lists(), mat.cols)
    return IntegerMatrix(tuple(tuple(r) for r in cols)) if cols[0] else None


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
    rows - rank plus a Z/d_i summand for each invariant factor.  The
    diagonalization starts from the column Hermite form, mat times a
    unimodular matrix, which has the same invariant factors and keeps the
    entries of the Smith elimination small."""
    a = mat.to_lists()
    _hermite_inplace(a)
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


def mat_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _gauss_jordan(rows):
    """Fraction-free Gauss-Jordan elimination of an integer matrix, given as
    a list of rows that is overwritten (Bareiss, Math. Comp. 22 (1968)).

    Each pivot clears its column in every other row by the update
    (pivot * x - f * y) // previous pivot, a division that is exact because
    every entry stays a minor of the input.  Returns (pivot columns, d,
    sign): the first r rows are d times the reduced row echelon form and the
    others are zero, so every pivot equals d, and sign is -1 to the number
    of row swaps.  A square matrix of full rank has determinant sign * d.
    """
    prev, sign, pivots = 1, 1, []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        if k != r:
            rows[r], rows[k] = rows[k], rows[r]
            sign = -sign
        top = rows[r]
        pv = top[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(pv * x - f * y) // prev for x, y in zip(row, top)]
        prev = pv
        pivots.append(c)
    return pivots, prev, sign


def det(rows):
    """Determinant of a square integer matrix."""
    pivots, d, sign = _gauss_jordan([list(row) for row in rows])
    return sign * d if len(pivots) == len(rows) else 0


def mat_inverse(a):
    """Inverse of a square rational matrix, by elimination on [d a | d I]."""
    n = len(a)
    d, rows = _integer_scaled(a)
    for i, row in enumerate(rows):
        row.extend(d * (i == j) for j in range(n))
    pivots, g, _ = _gauss_jordan(rows)
    if pivots != list(range(n)):
        raise SingularityError("matrix is singular")
    return [[Fraction(x, g) for x in row[n:]] for row in rows]


def rat_kernel(a):
    """Basis of the rational null space {x : a x = 0}, list of vectors: one
    per free column f, with 1 at f, 0 at the other free columns."""
    if not a:
        return []
    _, rows = _integer_scaled(a)
    pivots, d, _ = _gauss_jordan(rows)
    basis = []
    for f in (j for j in range(len(rows[0])) if j not in pivots):
        v = [Fraction(0)] * len(rows[0])
        v[f] = Fraction(1)
        for row, c in zip(rows, pivots):
            v[c] = Fraction(-row[f], d)
        basis.append(v)
    return basis


def _integer_scaled(rows):
    """(d, d * rows) for the least positive integer d making it integral."""
    rows = frac_matrix(rows)
    d = 1
    for row in rows:
        for x in row:
            d = lcm(d, x.denominator)
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


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
    in x, monic, sorted by (degree, coefficients) for determinism; a constant
    polynomial has no factors.

    Zassenhaus's method in integers (Cohen, GTM 138, section 3.5; von zur
    Gathen and Gerhard, Modern Computer Algebra, chapters 14-15): the
    primitive integer multiple of the polynomial is split into square-free
    parts by Yun's algorithm; each part is factored modulo the least odd
    prime q that keeps it square-free (roots by evaluation, the rest by
    Berlekamp's algorithm), the factors are Hensel-lifted modulo a power of
    q above twice the Landau-Mignotte bound, and products of lifted factors
    are tried as true factors by trial division, smallest subsets first.
    """
    f = [Fraction(c) for c in coeffs]
    _trim(f)
    if len(f) < 2:
        return []
    den = 1
    for c in f:
        den = lcm(den, c.denominator)
    out = []
    for part, mult in _squarefree_parts(_primitive([int(c * den) for c in f])):
        for g in _zassenhaus(part) if len(part) > 2 else [part]:
            out.append((tuple(Fraction(c, g[-1]) for c in g), mult))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


# Polynomials below are lists of coefficients, ascending in x, with no
# trailing zeros: [] is the zero polynomial.  Functions named _m* work
# modulo m, with coefficients in [0, m); the divisor of _mdivmod has a
# leading coefficient invertible modulo m.


def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _add(a, b, scale=1):
    return _trim([x + scale * y for x, y in zip_longest(a, b, fillvalue=0)])


def _derivative(f):
    return [i * c for i, c in enumerate(f)][1:]


def _primitive(f):
    """f divided by its content, leading coefficient positive."""
    g = 0
    for c in f:
        g = gcd(g, c)
    if f[-1] < 0:
        g = -g
    return [c // g for c in f] if g not in (0, 1) else list(f)


def _pseudo_remainder(a, b):
    """A remainder of a scalar multiple of a on division by b, over Z."""
    r, lb, shift = list(a), b[-1], len(a) - len(b)
    while shift >= 0 and r:
        c = r[-1]
        r = [x * lb for x in r]
        for i, bi in enumerate(b):
            r[shift + i] -= c * bi
        _trim(r)
        shift = len(r) - len(b)
    return r


def _zgcd(a, b):
    """Primitive gcd in Z[x] with a positive leading coefficient, by the
    primitive remainder sequence; gcd(a, 0) is the primitive part of a."""
    if len(a) < len(b):
        a, b = b, a
    a, b = _primitive(a), b and _primitive(b)
    while b:
        r = _pseudo_remainder(a, b)
        a, b = b, r and _primitive(r)
    return a


def _zdivide(a, b):
    """a / b in Z[x] if b divides a there, else None."""
    q = [0] * (len(a) - len(b) + 1)
    r = list(a)
    lb = b[-1]
    for shift in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[shift + len(b) - 1], lb)
        if rem:
            return None
        q[shift] = c
        if c:
            for i, bi in enumerate(b):
                r[shift + i] -= c * bi
    return q if not any(r) else None


def _squarefree_parts(f):
    """Yun's algorithm on the primitive f: [(a_i, i) ...] with the a_i
    primitive, square-free, pairwise coprime and of positive degree, and
    f equal to the product of the a_i^i."""
    df = _derivative(f)
    common = _zgcd(f, df)
    b, c = _zdivide(f, common), _zdivide(df, common)
    out = []
    mult = 1
    while len(b) > 1:
        d = _add(c, _derivative(b), -1)
        a = _zgcd(b, d)
        if len(a) > 1:
            out.append((a, mult))
        b, c = _zdivide(b, a), _zdivide(d, a)
        mult += 1
    return out


def _zassenhaus(f):
    """Irreducible factors in Z[x] of the primitive square-free f of degree
    at least 2, each primitive with a positive leading coefficient."""
    q = 3
    while f[-1] % q == 0 or len(_mgcd(_mreduce(f, q), _mreduce(_derivative(f), q), q)) > 1:
        q += 2
        while not is_prime(q):
            q += 2
    modular = _factor_mod(f, q)
    if len(modular) == 1:
        return [f]
    # |coefficient| of b g / lc(g), for b = lc(f) and g a factor of f, is at
    # most 2^deg(f) ||f||_2 (Landau-Mignotte)
    bound = 2 ** (len(f) - 1) * (isqrt(sum(c * c for c in f)) + 1)
    modulus, exponent = q, 1
    while modulus <= 2 * bound:
        modulus, exponent = modulus * modulus, exponent * 2
    lifted = [_hensel_lift(f, g, q, exponent) for g in modular]
    half = modulus // 2
    factors = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            candidate = [f[-1]]
            for i in subset:
                candidate = _mmul(candidate, lifted[i], modulus)
            g = _primitive([c - modulus if c > half else c for c in candidate])
            cofactor = _zdivide(f, g)
            if cofactor is not None:
                factors.append(g)
                f = cofactor
                lifted = [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    factors.append(f)
    return factors


def _mreduce(f, m):
    return _trim([c % m for c in f])


def _mmul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _mreduce(out, m)


def _mdivmod(a, b, m):
    inv = pow(b[-1], -1, m)
    r = [x % m for x in a]
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for shift in range(len(q) - 1, -1, -1):
        c = r[shift + db] * inv % m
        q[shift] = c
        if c:
            for i in range(db):  # the top coefficient cancels
                r[shift + i] = (r[shift + i] - c * b[i]) % m
    return q, _trim(r[:db])


def _mmonic(f, m):
    inv = pow(f[-1], -1, m)
    return [c * inv % m for c in f]


def _mgcd(a, b, q):
    """Monic gcd modulo the prime q."""
    while b:
        a, b = b, _mdivmod(a, b, q)[1]
    return _mmonic(a, q) if a else a


def _factor_mod(f, q):
    """Monic irreducible factors modulo the prime q of f, square-free modulo
    q with leading coefficient prime to q: the linear factors from the roots
    in F_q, found by evaluation, and the rest by Berlekamp's algorithm."""
    u = _mmonic(_mreduce(f, q), q)
    factors = []
    for s in range(q):
        quotient, rem = _mdivmod(u, [-s % q, 1], q)
        if not rem:
            factors.append([-s % q, 1])
            u = quotient
    if len(u) > 2:
        factors.extend(_berlekamp(u, q))
    return factors


def _berlekamp(u, q):
    """Monic irreducible factors of the monic square-free u modulo the
    prime q.  The v with v^q = v modulo u form the kernel of Q - I, Q the
    matrix of the Frobenius map h -> h^q on F_q[x]/(u); its dimension is the
    number of irreducible factors, and gcd(w, v - s) over s in F_q splits
    every factor w that a kernel element v tells apart."""
    n = len(u) - 1
    xq, base, e = [1], [0, 1], q
    while e:
        if e & 1:
            xq = _mdivmod(_mmul(xq, base, q), u, q)[1]
        base = _mdivmod(_mmul(base, base, q), u, q)[1]
        e >>= 1
    rows, row = [], [1]
    for i in range(n):
        padded = row + [0] * (n - len(row))
        padded[i] -= 1
        rows.append(padded)
        row = _mdivmod(_mmul(row, xq, q), u, q)[1]
    kernel = _mod_kernel([list(col) for col in zip(*rows)], q)
    factors = [u]
    for v in kernel:
        if len(factors) == len(kernel):
            break
        v = _trim(list(v))
        if len(v) < 2:
            continue
        split = []
        for w in factors:
            for s in range(q):
                if len(w) < 3:
                    break
                g = _mgcd(w, _mreduce([v[0] - s] + v[1:], q), q)
                if 1 < len(g) < len(w):
                    split.append(g)
                    w = _mdivmod(w, g, q)[0]
            split.append(w)
        factors = split
    return factors


def _mod_kernel(a, q):
    """Basis of {x : a x = 0} over F_q, q prime."""
    work = [[x % q for x in row] for row in a]
    m = len(work[0])
    pivots = []
    for col in range(m):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], -1, q)
        work[rank] = [x * inv % q for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [(x - f * y) % q for x, y in zip(work[r], work[rank])]
        pivots.append(col)
    basis = []
    for free in (j for j in range(m) if j not in pivots):
        v = [0] * m
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = -work[r][free] % q
        basis.append(v)
    return basis


def _hensel_lift(f, g, q, exponent):
    """The monic factor of f modulo q^exponent (a power of two) that is
    congruent to g modulo the prime q, for a monic g dividing f modulo q
    and prime to its cofactor there.

    Quadratic lifting of one factor: with h = f quo g and t the inverse of
    h modulo g, a step from modulus m to m^2 sets g <- g + (t (f rem g)
    rem g), for which t is needed modulo m only, after t <- t (2 - t h)
    rem g has lifted t from the previous modulus to m.  For g = x - r this
    is Newton's iteration r <- r - f(r) / f'(r), with 1 / f'(r) carried
    along as t.
    """
    m, t = q, None
    while exponent > 1:
        h, e = _mdivmod(f, g, m * m)
        if t is None:
            t = _minverse(h, g, m)
        else:
            th = _mdivmod(_mmul(t, h, m), g, m)[1]
            t = _mdivmod(_mmul(t, _mreduce(_add([2], th, -1), m), m), g, m)[1]
        m *= m
        exponent //= 2
        g = _mreduce(_add(g, _mdivmod(_mmul(t, e, m), g, m)[1]), m)
    return g


def _minverse(a, g, q):
    """The inverse of a modulo g over F_q, for a prime to g."""
    r0, r1 = g, _mdivmod(a, g, q)[1]
    s0, s1 = [], [1]
    while r1:
        quotient, rem = _mdivmod(r0, r1, q)
        r0, r1 = r1, rem
        s0, s1 = s1, _mreduce(_add(s0, _mmul(quotient, s1, q), -1), q)
    return _mmul([pow(r0[0], -1, q)], s0, q)
