"""Exact lattice computations for linear automorphisms of Q_p^n.

An automorphism of the vector group Q_p^n is an invertible rational matrix.
Compact open subgroups are full-rank lattices over the p-local integers
(rationals with denominator prime to p); eigenfactors of commuting families
live on partial-rank lattices inside invariant subspaces.  All arithmetic is
exact: a lattice is stored as a p-power scale times a canonical integral
Hermite basis, so equality of subgroups is equality of representations.

Slopes are root valuations of characteristic polynomials.  A slope -1
direction is expanded by the automorphism (valuations drop by 1 per step),
slope +1 is contracted.  The scale of alpha is p raised to the sum of -v over
root valuations v <= 0, and a lattice V is tidy when the displacement index
[alpha(V) : alpha(V) n V] attains that minimum.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    CommensurabilityError,
    InfiniteIndexError,
    InputError,
    SingularityError,
    SlopeSeparabilityError,
    UnsupportedInputError,
)
from .exactmath import (
    IntegerMatrix,
    _hermite_inplace,
    _integer_scaled,
    _kernel_coordinates,
    charpoly,
    det,
    factor_over_q,
    hermite_form,
    hermite_form_with_transform,
    is_prime,
    kernel_basis,
    mat_identity,
    mat_inverse,
    mat_mul,
    newton_polygon,
    padic_valuation,
    rat_kernel,
)


def _frac_rows(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


class Lattice:
    """Finitely generated module over the p-local integers inside Q^n.

    Canonical representation: ambient dimension, prime, an integer exponent e,
    and an integral column Hermite basis H of full column rank whose entries
    are saturated at every prime other than p and share no factor of p; the
    module is p^e times the span of H.  Construct through span()/standard(),
    never directly.
    """

    __slots__ = ("ambient", "prime", "exponent", "hermite")

    def __init__(self, ambient, prime, exponent, hermite):
        self.ambient = ambient
        self.prime = prime
        self.exponent = exponent
        self.hermite = hermite  # IntegerMatrix (n x r) or None for rank 0

    # -- construction -------------------------------------------------

    @classmethod
    def standard(cls, n, p):
        """The lattice of p-locally integral vectors, Z_(p)^n."""
        _check_ambient(n, p)
        return cls(n, p, 0, IntegerMatrix.identity(n))

    @classmethod
    def zero(cls, n, p):
        _check_ambient(n, p)
        return cls(n, p, 0, None)

    @classmethod
    def span(cls, p, columns, ambient=None):
        """Module generated by the given column vectors (exact rationals)."""
        cols = [[Fraction(x) for x in c] for c in columns]
        cols = [c for c in cols if any(x != 0 for x in c)]
        if ambient is None:
            if not cols:
                raise InputError("ambient dimension required for an empty span")
            ambient = len(cols[0])
        _check_ambient(ambient, p)
        if any(len(c) != ambient for c in cols):
            raise InputError("generator vectors of unequal length")
        if not cols:
            return cls.zero(ambient, p)
        den, scaled = _integer_scaled(cols)
        rows = [list(row) for row in zip(*scaled)]
        return cls._from_integer(p, ambient, -_int_valuation(den, p), rows)

    @classmethod
    def _from_integer(cls, p, n, e, rows):
        """p^e times the Z_(p)-span of the columns of an integer n x m
        matrix, given as a list of rows that is overwritten.

        Let S be the span of H0, the column Hermite form of the generators,
        and L = Z_(p) S intersected with Z^n.  The order of L / S is prime to
        p and divides [W : S], W the saturation of S, which divides the
        product of H0's pivots.  With u the prime-to-p part of that product,
        u L lies in S, so L = (S intersected with u Z^n) / u = H0 K / u, K the
        H0-coordinates of the kernel of [H0 | u I].  The canonical basis is
        the Hermite form of L divided by the largest p-power dividing it.
        """
        if not rows[0]:
            return cls(n, p, 0, None)
        _hermite_inplace(rows)
        m = len(rows[0])
        first = next((j for j in range(m) if any(row[j] for row in rows)), m)
        if first == m:
            return cls(n, p, 0, None)
        h = [row[first:] for row in rows]
        r = m - first
        u = 1
        for j in range(r):
            pivot = next(row[j] for row in reversed(h) if row[j])
            u *= pivot // p ** _int_valuation(pivot, p)
        if u > 1:
            aug = [row + [u * (k == i) for k in range(n)] for i, row in enumerate(h)]
            k = _kernel_coordinates(aug, r)
            h = [[x // u for x in row] for row in mat_mul(h, k)]
            _hermite_inplace(h)
        c = min(_int_valuation(x, p) for row in h for x in row if x)
        if c:
            q = p**c
            h = [[x // q for x in row] for row in h]
        return cls(n, p, e + c, IntegerMatrix(tuple(tuple(row) for row in h)))

    # -- inspection ---------------------------------------------------

    @property
    def rank(self):
        return 0 if self.hermite is None else self.hermite.cols

    def basis_columns(self):
        """Generators as columns of exact rationals (p^e times Hermite)."""
        if self.hermite is None:
            return ()
        s = Fraction(self.prime) ** self.exponent
        return tuple(
            tuple(s * self.hermite.entries[i][j] for i in range(self.ambient))
            for j in range(self.hermite.cols)
        )

    def to_data(self):
        return {
            "ambient": self.ambient,
            "prime": self.prime,
            "rank": self.rank,
            "exponent": self.exponent,
            "basis": [] if self.hermite is None else self.hermite.to_lists(),
        }

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.prime == other.prime
            and self.exponent == other.exponent
            and (self.hermite.entries if self.hermite else None)
            == (other.hermite.entries if other.hermite else None)
        )

    def __hash__(self):
        return hash(
            (
                self.ambient,
                self.prime,
                self.exponent,
                self.hermite.entries if self.hermite else None,
            )
        )

    def __repr__(self):
        if self.hermite is None:
            return f"Lattice(0 in Q^{self.ambient}, p={self.prime})"
        return (
            f"Lattice(p={self.prime}, {self.prime}^{self.exponent} * "
            f"{self.hermite.to_lists()})"
        )

    # -- module arithmetic --------------------------------------------

    def _require_compatible(self, other):
        if self.ambient != other.ambient or self.prime != other.prime:
            raise InputError("lattices live in different ambient spaces")

    def __add__(self, other):
        self._require_compatible(other)
        if other.rank == 0:
            return self
        if self.rank == 0:
            return other
        e0 = min(self.exponent, other.exponent)
        a, b = _shifted(self, e0), _shifted(other, e0)
        rows = [ra + rb for ra, rb in zip(a, b)]
        return Lattice._from_integer(self.prime, self.ambient, e0, rows)

    def intersect(self, other):
        self._require_compatible(other)
        if self.rank == 0 or other.rank == 0:
            return Lattice.zero(self.ambient, self.prime)
        e0 = min(self.exponent, other.exponent)
        a, b = _shifted(self, e0), _shifted(other, e0)
        stacked = [ra + [-x for x in rb] for ra, rb in zip(a, b)]
        kern = _kernel_coordinates(stacked, self.rank)
        return Lattice._from_integer(self.prime, self.ambient, e0, mat_mul(a, kern))

    def image(self, matrix):
        """Image under a rational n x n matrix applied to the generators."""
        d, a = _integer_scaled(matrix)
        if len(a) != self.ambient or any(len(r) != self.ambient for r in a):
            raise InputError("matrix shape does not match the ambient space")
        if self.rank == 0:
            return self
        rows = mat_mul(a, self.hermite.entries)
        e = self.exponent - _int_valuation(d, self.prime)
        return Lattice._from_integer(self.prime, self.ambient, e, rows)

    def contains(self, other):
        self._require_compatible(other)
        return (self + other) == self

    def member(self, vector):
        if len(vector) != self.ambient:
            raise InputError("vector length does not match the ambient space")
        return self.contains(Lattice.span(self.prime, [vector], self.ambient))

    def same_span(self, other):
        self._require_compatible(other)
        if self.rank != other.rank:
            return False
        if self.rank == 0:
            return True
        h = self.hermite.entries
        piv = _pivot_rows(h)
        return not any(
            any(_reduce_by_hermite(h, piv, list(col)))
            for col in zip(*other.hermite.entries)
        )

    def index_exponent_in(self, super_lattice):
        """v_p of [super : self] for self a finite-index sublattice.

        Both Hermite bases have the same pivot rows, where they are
        triangular, so the index is read off the p-parts of the pivots."""
        self._require_compatible(super_lattice)
        if self.rank != super_lattice.rank:
            raise CommensurabilityError(
                f"ranks differ: {self.rank} vs {super_lattice.rank}"
            )
        if self.rank == 0:
            return 0
        if not self.same_span(super_lattice):
            raise CommensurabilityError("lattices span different subspaces")
        if not super_lattice.contains(self):
            raise InfiniteIndexError(super_lattice, self)
        return _pivot_valuation(self) - _pivot_valuation(super_lattice)

    def intersect_subspace(self, columns):
        """Sublattice of vectors lying in the rational span of the columns."""
        cols = [[Fraction(x) for x in c] for c in columns]
        cols = [c for c in cols if any(x != 0 for x in c)]
        if not cols:
            return Lattice.zero(self.ambient, self.prime)
        if self.rank == 0:
            return self
        # The linear conditions cutting out the span: vectors annihilating
        # every spanning column, i.e. the kernel of the matrix whose rows
        # are those columns.
        conditions = rat_kernel([list(c) for c in cols])
        if not conditions:
            return self
        h = self.hermite.entries
        _, rows = _integer_scaled(
            [[sum(c * x for c, x in zip(cond, col)) for col in zip(*h)] for cond in conditions]
        )
        kern = _kernel_coordinates(rows, self.rank)
        return Lattice._from_integer(
            self.prime, self.ambient, self.exponent, mat_mul(h, kern)
        )


def _int_valuation(x, p):
    """v_p of a nonzero integer, for a p already known to be prime."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _pivot_rows(h):
    """Pivot row of each column of a column Hermite basis: its lowest
    nonzero entry."""
    return [max(i for i, row in enumerate(h) if row[j]) for j in range(len(h[0]))]


def _pivot_valuation(lattice):
    """v_p det of the pivot rows of p^e H, for a lattice p^e H of rank r."""
    h, p = lattice.hermite.entries, lattice.prime
    return lattice.rank * lattice.exponent + sum(
        _int_valuation(h[i][j], p) for j, i in enumerate(_pivot_rows(h))
    )


def _shifted(lattice, e0):
    """Rows of p^(e - e0) H for a lattice p^e H of exponent e >= e0."""
    q = lattice.prime ** (lattice.exponent - e0)
    return [[x * q for x in row] for row in lattice.hermite.entries]


def _check_ambient(n, p):
    if not isinstance(n, int) or n < 1:
        raise InputError(f"ambient dimension must be a positive integer, got {n!r}")
    if not is_prime(p):
        raise InputError(f"{p!r} is not a prime")


# ---------------------------------------------------------------------------
# Automorphisms


@dataclass(frozen=True)
class PAdicAutomorphism:
    matrix: tuple
    prime: int

    def __post_init__(self):
        rows = _frac_rows(self.matrix)
        object.__setattr__(self, "matrix", rows)
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise InputError("automorphism matrix must be square and nonempty")
        if not is_prime(self.prime):
            raise InputError(f"{self.prime!r} is not a prime")
        d, a = _integer_scaled(rows)
        det_a = det(a)
        if det_a == 0:
            raise SingularityError("automorphism matrix is singular")
        # Derived data computed at most once per instance.  It is not a
        # dataclass field, so equality, hashing and repr ignore it.
        object.__setattr__(self, "_cache", {
            "det": Fraction(det_a, d**n),
            "integer_scaled": (d, a),
        })

    def _cached(self, key, compute):
        cache = self._cache
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    @property
    def dimension(self):
        return len(self.matrix)

    def det(self):
        return self._cache["det"]

    def charpoly(self):
        return list(
            self._cached("charpoly", lambda: charpoly([list(r) for r in self.matrix]))
        )

    def inverse(self):
        def compute():
            inv = mat_inverse([list(r) for r in self.matrix])
            out = PAdicAutomorphism(tuple(tuple(r) for r in inv), self.prime)
            out._cache["inverse"] = self
            return out

        return self._cached("inverse", compute)

    def compose(self, other):
        if self.prime != other.prime or self.dimension != other.dimension:
            raise InputError("automorphisms act on different spaces")
        prod = mat_mul([list(r) for r in self.matrix], [list(r) for r in other.matrix])
        return PAdicAutomorphism(tuple(tuple(r) for r in prod), self.prime)

    __mul__ = compose

    def power(self, k):
        if k == 0:
            return PAdicAutomorphism(mat_identity(self.dimension), self.prime)
        base = self if k > 0 else self.inverse()
        out = base
        for _ in range(abs(k) - 1):
            out = out.compose(base)
        return out

    def commutes_with(self, other):
        # (d A)(e B) = (e B)(d A) exactly when A B = B A
        a, b = self._cache["integer_scaled"][1], other._cache["integer_scaled"][1]
        return mat_mul(a, b) == mat_mul(b, a)

    def __repr__(self):
        return f"PAdicAutomorphism(p={self.prime}, {[list(r) for r in self.matrix]})"


def word(generators, exponents):
    """Product of generator powers; order-free for commuting families."""
    gens = list(generators)
    exps = list(exponents)
    if len(gens) != len(exps):
        raise InputError("one exponent per generator required")
    if not gens:
        raise InputError("empty generator list")
    out = None
    for g, e in zip(gens, exps):
        if e:
            out = g.power(e) if out is None else out.compose(g.power(e))
    return gens[0].power(0) if out is None else out


# ---------------------------------------------------------------------------
# Scale and slopes


def scale(alpha):
    """Minimal displacement index of alpha over all lattices, as an integer.

    Read off the Newton polygon of the characteristic polynomial: each
    polygon segment of strictly negative root valuation -s contributes its
    integer rise s * length to the exponent of p.
    """
    poly = newton_polygon(alpha.charpoly(), alpha.prime)
    expo = Fraction(0)
    for v, m in poly.root_valuations():
        if v < 0:
            expo += -v * m
    assert expo.denominator == 1
    return alpha.prime ** int(expo)


def _poly_str(coeffs):
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{c}*x" if c != 1 else "x")
        else:
            terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
    return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class SlopePiece:
    slope: Fraction
    basis: tuple  # columns spanning the invariant subspace
    dim: int


@dataclass(frozen=True)
class SlopeDecomposition:
    ambient: int
    prime: int
    pieces: tuple  # SlopePiece, sorted by slope

    def subspace_columns(self, predicate):
        cols = []
        for piece in self.pieces:
            if predicate(piece.slope):
                cols.extend(piece.basis)
        return cols


def _poly_of_matrix(coeffs, b):
    """f(b) for integer coefficients [f_0, ..., f_{k-1}, 1] and an integer
    matrix b, by Horner's rule."""
    n = len(b)
    out = [list(row) for row in b]
    for i in range(n):
        out[i][i] += coeffs[-2]
    for c in reversed(coeffs[:-2]):
        out = mat_mul(b, out)
        for i in range(n):
            out[i][i] += c
    return out


def slope_decomposition(alpha):
    """Invariant-subspace grading by root valuation.

    Requires each rational-irreducible factor of the characteristic
    polynomial to carry a single Newton-polygon slope; the subspace for a
    slope is the kernel of the product of those factors at alpha, each taken
    to its multiplicity.  Computed once per automorphism.
    """
    return alpha._cached("slopes", lambda: _slope_decomposition(alpha))


def _slope_decomposition(alpha):
    p = alpha.prime
    n = alpha.dimension
    by_slope = {}
    factors = alpha._cached("factors", lambda: factor_over_q(alpha.charpoly()))
    for coeffs, mult in factors:
        vals = newton_polygon(list(coeffs), p).root_valuations()
        if len(vals) != 1:
            raise SlopeSeparabilityError(
                _poly_str(coeffs),
                "irreducible factor carries more than one root valuation: "
                + _poly_str(coeffs),
            )
        by_slope.setdefault(vals[0][0], []).append((coeffs, mult))
    # Work with b = d alpha.  A monic factor f of degree k becomes
    # d^k f(x / d), a monic factor of b's integral characteristic polynomial
    # and so integral itself (Gauss's lemma), and its value at b is d^k f(alpha).
    # Nonzero scalar multiples have the same kernel, and rat_kernel returns
    # the reduced echelon basis, so the bases are those of the products at
    # alpha.
    d, b = alpha._cache["integer_scaled"]
    pieces = []
    for slope in sorted(by_slope):
        prod = None
        for coeffs, mult in by_slope[slope]:
            k = len(coeffs) - 1
            scaled = [c * d ** (k - i) for i, c in enumerate(coeffs)]
            if any(c.denominator != 1 for c in scaled):
                raise RuntimeError("rescaled factor is not integral (internal)")
            fm = _poly_of_matrix([c.numerator for c in scaled], b)
            for _ in range(mult):
                prod = fm if prod is None else mat_mul(prod, fm)
        basis = rat_kernel(prod)
        pieces.append(
            SlopePiece(slope=slope, basis=tuple(tuple(v) for v in basis), dim=len(basis))
        )
    total = sum(piece.dim for piece in pieces)
    if total != n:
        raise RuntimeError("slope subspaces do not fill the space (internal)")
    return SlopeDecomposition(ambient=n, prime=p, pieces=tuple(pieces))


# ---------------------------------------------------------------------------
# Indices and tidiness


def expansion_exponent(alpha, lattice):
    """v_p of [alpha(V) : alpha(V) n V], computed in integers.

    The index equals [V + alpha(V) : V], and neither side changes when V is
    rescaled, so V is taken as the span of its Hermite basis H (n x r, pivot
    rows piv).  With d alpha = A integral, the vectors of V + alpha(V) scaled
    by d are read off by their coordinates on the pivot rows, where H_piv is
    triangular and invertible.  So the exponent is
    v_p det(d H_piv) - v_p Delta_r(d H_piv | (A H)_piv), Delta_r the gcd of
    the r x r minors.  The second matrix holds the columns of the first, so
    its Delta_r divides theirs and v_p det(d H_piv) + 1 digits of p-adic
    precision determine it exactly.
    """
    n = lattice.ambient
    if alpha.dimension != n:
        raise InputError("matrix shape does not match the ambient space")
    r = lattice.rank
    if r == 0:
        return 0
    p = lattice.prime
    d, a = alpha._cache["integer_scaled"]
    h = lattice.hermite.entries
    piv = _pivot_rows(h)
    ah = [[sum(a[i][k] * h[k][j] for k in range(n)) for j in range(r)] for i in range(n)]
    residues = [_reduce_by_hermite(h, piv, [row[j] for row in ah]) for j in range(r)]
    moved = [res for res in residues if any(res)]
    if moved:
        # span(H, A H) is span(H) plus span(moved), a direct sum because the
        # residues vanish on the pivot rows, so dim(V n alpha V) is r minus
        # the rank of the residues.
        herm = hermite_form(IntegerMatrix(tuple(zip(*moved))))
        rank = sum(1 for col in zip(*herm.entries) if any(col))
        raise CommensurabilityError(f"ranks differ: {r - rank} vs {r}")
    bound = r * padic_valuation(d, p) + sum(
        padic_valuation(h[piv[j]][j], p) for j in range(r)
    )
    gens = [[d * x for x in h[i]] + ah[i] for i in piv]
    return bound - _minors_gcd_valuation(gens, p, bound + 1)


def _reduce_by_hermite(h, piv, y):
    """y minus a rational combination of H's columns that clears every pivot
    row, scaled to stay integral; zero exactly when y lies in span(H)."""
    for j in reversed(range(len(piv))):
        t = y[piv[j]]
        if t:
            hp = h[piv[j]][j]
            g = gcd(hp, t)
            y = [(hp // g) * x - (t // g) * row[j] for x, row in zip(y, h)]
    return y


def _minors_gcd_valuation(rows, p, precision):
    """v_p of the gcd of the maximal minors of an integer matrix of full row
    rank, for a value known to lie below `precision`.

    Eliminates over Z_(p) modulo p^precision, each time on an entry of least
    valuation left, so every other entry of its row is a multiple of it and
    needs no column operation; the pivot valuations are the exponents of
    the p-parts of the elementary divisors, each below the precision.
    """
    mod = p**precision
    work = [[x % mod for x in row] for row in rows]
    total = 0
    while work:
        best = None
        for i, row in enumerate(work):
            for j, x in enumerate(row):
                if x:
                    v = _int_valuation(x, p)
                    if best is None or v < best[0]:
                        best = (v, i, j)
        if best is None:
            raise RuntimeError("p-local elimination lost rank (internal)")
        v, i, j = best
        pivot = work.pop(i)
        scale_v = p**v
        unit_inv = pow(pivot[j] // scale_v, -1, mod)
        for row in work:
            if row[j]:
                f = (row[j] // scale_v) * unit_inv % mod
                row[:] = [(x - f * y) % mod for x, y in zip(row, pivot)]
        total += v
    return total


def expansion_index(alpha, lattice):
    return alpha.prime ** expansion_exponent(alpha, lattice)


def is_invariant(alpha, lattice):
    return lattice.image(alpha.matrix) == lattice


def step1_tidy(alpha):
    """Trim the standard lattice by forward images until the index is minimal.

    Iterates V_m = intersection of alpha^k(Z_(p)^n) for k = 0..m and returns
    the first iterate whose displacement index equals the scale; in this
    commutative slope-separable setting minimal index certifies tidiness.
    """
    sd = slope_decomposition(alpha)
    target = scale(alpha)
    n = alpha.dimension
    spread = sd.pieces[-1].slope - sd.pieces[0].slope
    bound = n + 2 + (math.ceil(n * spread) if spread > 0 else 0)
    standard = Lattice.standard(n, alpha.prime)
    v = standard
    for _ in range(bound + 1):
        if expansion_index(alpha, v) == target:
            return v
        v = standard.intersect(v.image(alpha.matrix))
    raise RuntimeError("forward trimming failed to reach the minimal index (internal)")


def parts(alpha, lattice):
    """(V_plus, V_minus, V_zero) of a tidy lattice.

    V_plus is the sublattice on the slope-nonpositive subspace (the
    directions alpha does not contract), V_minus on the slope-nonnegative
    one, V_zero their intersection; checks T1 as V = V_plus + V_minus.
    """
    sd = slope_decomposition(alpha)
    if expansion_index(alpha, lattice) != scale(alpha):
        raise InputError("lattice is not tidy: displacement index exceeds the scale")
    v_plus = lattice.intersect_subspace(sd.subspace_columns(lambda s: s <= 0))
    v_minus = lattice.intersect_subspace(sd.subspace_columns(lambda s: s >= 0))
    v_zero = v_plus.intersect(v_minus)
    if (v_plus + v_minus) != lattice:
        raise InputError("lattice is not tidy: it does not split into its parts")
    return v_plus, v_minus, v_zero


def _check_family(words, require_separable=True):
    ws = list(words)
    for w in ws:
        if not isinstance(w, PAdicAutomorphism):
            raise InputError("family members must be automorphisms")
    if len({(w.prime, w.dimension) for w in ws}) > 1:
        raise InputError("family members act on different spaces")
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            if not ws[i].commutes_with(ws[j]):
                raise UnsupportedInputError(
                    "only commuting families are supported here"
                )
    if require_separable:
        for w in ws:
            slope_decomposition(w)
    return ws


def _subspace_intersect(cols_a, cols_b, n):
    if not cols_a or not cols_b:
        return []
    da, db = len(cols_a), len(cols_b)
    stacked = [
        [cols_a[j][i] for j in range(da)] + [-cols_b[j][i] for j in range(db)]
        for i in range(n)
    ]
    kern = rat_kernel(stacked)
    out = []
    for vec in kern:
        col = tuple(
            sum(cols_a[j][i] * vec[j] for j in range(da)) for i in range(n)
        )
        out.append(col)
    return out


# ---------------------------------------------------------------------------
# Commuting families: common refinement, joint tidy lattices, eigenfactors


def _common_pieces(gens):
    """Simultaneous slope refinement: [(columns, slope vector)] covering Q^n."""
    n = gens[0].dimension
    pieces = [
        (
            [tuple(Fraction(int(i == j)) for i in range(n)) for j in range(n)],
            (),
        )
    ]
    for g in gens:
        sd = slope_decomposition(g)
        new = []
        for cols, slopes in pieces:
            for piece in sd.pieces:
                inter = _subspace_intersect(cols, list(piece.basis), n)
                if inter:
                    new.append((inter, slopes + (piece.slope,)))
        pieces = new
    if sum(len(cols) for cols, _ in pieces) != n:
        raise RuntimeError("joint slope refinement lost dimensions (internal)")
    return pieces


def _primitive_direction(nu):
    _, (w,) = _integer_scaled([nu])
    content = gcd(*w)
    return tuple(x // content for x in w)


def _halfspace_monoid_exponents(nu):
    """Exponent vectors generating the monoid of words that do not expand a
    piece with slope vector nu: the two boundary directions of the kernel of
    nu together with one word of minimal positive slope."""
    g = len(nu)
    if all(x == 0 for x in nu):
        out = []
        for i in range(g):
            e = [0] * g
            e[i] = 1
            out.append(tuple(e))
            e2 = [0] * g
            e2[i] = -1
            out.append(tuple(e2))
        return out
    mat = IntegerMatrix((_primitive_direction(nu),))
    out = []
    kern = kernel_basis(mat)
    if kern is not None:
        for j in range(kern.cols):
            vec = tuple(kern.entries[i][j] for i in range(g))
            out.append(vec)
            out.append(tuple(-x for x in vec))
    h, u = hermite_form_with_transform(mat)
    piv = next(j for j in range(g) if h.entries[0][j] != 0)
    out.append(tuple(u.entries[i][piv] for i in range(g)))
    return out


def common_tidy(generators):
    """A lattice tidy for every word in a commuting slope-separable family.

    Built piecewise on the joint slope refinement: on each piece, close a
    base lattice under the monoid of all non-expanding words (generated by
    the slope-zero boundary directions and one minimal-slope word), which
    makes every word's action on the piece a pure containment.  The direct
    sum over pieces then realizes each word's scale exactly.
    """
    gens = _check_family(generators)
    if not gens:
        raise InputError("empty generator list")
    if len(gens) == 1:
        return step1_tidy(gens[0])
    p = gens[0].prime
    n = gens[0].dimension
    total = Lattice.zero(n, p)
    for cols, nu in _common_pieces(gens):
        piece_lattice = Lattice.span(p, cols, ambient=n)
        operators = [
            word(gens, exps).matrix for exps in _halfspace_monoid_exponents(nu)
        ]
        for _ in range(500):
            grown = piece_lattice
            for op in operators:
                grown = grown + piece_lattice.image(op)
            if grown == piece_lattice:
                break
            piece_lattice = grown
        else:
            raise RuntimeError("piece closure failed to stabilize (internal)")
        total = total + piece_lattice
    if total.rank != n:
        raise RuntimeError("joint tidy lattice is rank-deficient (internal)")
    for g in gens:
        if expansion_index(g, total) != scale(g):
            raise RuntimeError("joint tidy lattice misses a scale (internal)")
    return total


@dataclass(frozen=True)
class FamilyEigenfactor:
    key: str
    direction: tuple  # primitive integer slope direction over the generators
    lattice: Lattice
    delta_weight: tuple  # Fractions w with measure ratio p^(w . exponents)


def family_eigenfactors(generators, tidy=None):
    """Distinct eigenfactors of a commuting family, plus the inert part.

    Eigenfactors are grouped by the direction of the joint slope vector:
    pieces whose slope vectors are positive multiples of one another expand
    and contract together under every word, and each such ray together with
    the slope-zero part carries one eigenfactor.  Returns (records, inert)
    with deterministic ordering by direction.
    """
    gens = _check_family(generators)
    if tidy is None:
        tidy = common_tidy(gens) if len(gens) > 1 else step1_tidy(gens[0])
    pieces = _common_pieces(gens)
    zero_cols = []
    rays = {}
    for cols, nu in pieces:
        if all(x == 0 for x in nu):
            zero_cols.extend(cols)
        else:
            rays.setdefault(_primitive_direction(nu), []).append((cols, nu))
    records = []
    for direction in sorted(rays):
        cols = list(zero_cols)
        weight = [Fraction(0)] * len(gens)
        for piece_cols, nu in rays[direction]:
            cols.extend(piece_cols)
            for i, s in enumerate(nu):
                weight[i] += -Fraction(s) * len(piece_cols)
        records.append(
            FamilyEigenfactor(
                key="ray" + str(direction).replace(" ", ""),
                direction=direction,
                lattice=tidy.intersect_subspace(cols),
                delta_weight=tuple(weight),
            )
        )
    inert = tidy.intersect_subspace(zero_cols)
    return records, inert
