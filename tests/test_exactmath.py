"""Core arithmetic: frozen worked examples plus randomized invariants."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tidyscale.errors import InputError, SingularityError
from tidyscale.exactmath import (
    INFINITY,
    IntegerMatrix,
    _integer_scaled,
    charpoly,
    cokernel,
    det,
    factor_over_q,
    hermite_form,
    hermite_form_with_transform,
    is_prime,
    kernel_basis,
    mat_inverse,
    newton_polygon,
    padic_valuation,
    rat_kernel,
    smith_decomposition,
    smith_invariants,
)

M = IntegerMatrix


class TestValuation:
    def test_worked_values(self):
        assert padic_valuation(Fraction(9, 2), 3) == 2
        assert padic_valuation(1, 5) == 0
        assert padic_valuation(Fraction(3, 4), 2) == -2

    def test_zero_is_infinite(self):
        v = padic_valuation(0, 7)
        assert v is INFINITY
        assert v > 10**100
        assert v + 5 is INFINITY

    def test_rejects_composite(self):
        with pytest.raises(InputError):
            padic_valuation(3, 6)
        with pytest.raises(InputError):
            padic_valuation(3, 1)

    def test_is_prime_matches_sympy(self):
        from sympy import isprime

        carmichael = [561, 41041, 825265, 321197185, 5394826801, 232250619601,
                      9746347772161]
        # strong pseudoprimes to every prime base up to 7, 11, 13, 23, 37
        # and 41: the last is the bound below which Miller-Rabin on the
        # first 13 prime bases is exact
        strong_pseudoprimes = [3215031751, 2152302898747, 3474749660383,
                               3825123056546413051, 318665857834031151167461,
                               3317044064679887385961981]
        above_2_64 = [2**64 + 13, 2**64 + 15, 2**89 - 1, 3317044064679887385961979,
                      (10**12 + 39) * (2 * 10**12 + 79)]
        above_bound = [10**25 + 13, 10**25 + 11, 2**107 - 1, 2**127 - 1,
                       (2**61 - 1) * (2**89 - 1), (2**89 - 1) ** 2]
        for p in (list(range(-3, 2000)) + [2**31 - 1, 2**61 - 1, 10**18 + 9]
                  + carmichael + strong_pseudoprimes + above_2_64 + above_bound):
            assert is_prime(p) == isprime(p), p
        for not_int in (True, Fraction(3), 3.0):
            assert not is_prime(not_int)

    def test_strong_lucas_matches_sympy(self):
        from sympy.ntheory.primetest import is_strong_lucas_prp

        from tidyscale.exactmath import _strong_lucas_probable_prime

        # the composites that pass begin 5459, 5777, 10877, 16109, ...
        for n in range(3, 30001, 2):
            assert _strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n

    @given(
        st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4),
        st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4),
        st.sampled_from([2, 3, 5, 7]),
    )
    @settings(max_examples=60, deadline=None)
    def test_additivity(self, a, b, p):
        va, vb, vab = (padic_valuation(x, p) for x in (a, b, a * b))
        if a == 0 or b == 0:
            assert vab is INFINITY
        else:
            assert vab == va + vb


class TestNewtonPolygon:
    def test_sqrt3(self):
        np = newton_polygon([-3, 0, 1], 3)
        assert np.segments == ((Fraction(-1, 2), 2),)
        assert np.root_valuations() == ((Fraction(1, 2), 2),)

    def test_split_slopes(self):
        np = newton_polygon([1, Fraction(-10, 3), 1], 3)
        assert [s for s, _ in np.segments] == [-1, 1]
        assert np.root_valuations() == ((1, 1), (-1, 1))

    def test_zero_constant_term(self):
        with pytest.raises(SingularityError):
            newton_polygon([0, 1, 1], 2)

    @given(
        st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=100),
            min_size=3,
            max_size=7,
        ),
        st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_and_reversal(self, coeffs, p):
        if coeffs[0] == 0 or coeffs[-1] == 0:
            return
        np = newton_polygon(coeffs, p)
        assert sum(m for _, m in np.segments) == len(coeffs) - 1
        slopes = [s for s, _ in np.segments]
        assert slopes == sorted(slopes)
        assert len(set(slopes)) == len(slopes)
        rev = newton_polygon(list(reversed(coeffs)), p)
        # roots invert, so valuations negate
        fwd = sorted(v for v, m in np.root_valuations() for _ in range(m))
        bwd = sorted(v for v, m in rev.root_valuations() for _ in range(m))
        assert fwd == sorted(-v for v in bwd)


class TestSmith:
    def test_worked_example(self):
        rank, factors = smith_invariants(M([[1, 0, 1], [0, 1, 1]]))
        assert rank == 2
        assert factors == (1, 1)
        # transpose map into Z^3 has cokernel of free rank 1, no torsion
        assert cokernel(M([[1, 0, 1], [0, 1, 1]]).transpose()) == (1, ())

    def test_diagonal_and_chain(self):
        assert smith_invariants(M([[2, 0], [0, 6]])) == (2, (2, 6))
        assert smith_invariants(M([[2, 0], [0, 3]])) == (2, (1, 6))

    def test_krylov_matrix(self):
        # d alpha applied to a Krylov sequence: the Smith elimination on the
        # matrix itself grows its entries for seconds, on its Hermite form
        # it finishes at once
        a = M(
            [
                [-7500, 15250, 60350, 403010],
                [-5000, -8250, -115025, -351640],
                [1500, 7000, -59875, -94555],
                [750, 26700, 17895, 265287],
            ]
        )
        assert smith_invariants(a) == (4, (1, 25, 750, 74123597298750))
        assert cokernel(a) == (0, (25, 750, 74123597298750))

    def test_decomposition_consistency(self):
        rng = random.Random(7)
        for _ in range(40):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            a = M([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)])
            rank, factors, pinv, q = smith_decomposition(a)
            assert smith_invariants(a) == (rank, factors)
            assert all(
                factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1)
            )
            # pinv and q are unimodular
            for t in (pinv, q):
                r2, f2 = smith_invariants(t)
                assert r2 == t.rows and set(f2) == {1}
            # column span of a equals column span of pinv . D
            d = [[0] * a.cols for _ in range(a.rows)]
            for i, f in enumerate(factors):
                d[i][i] = f
            lhs = hermite_form(a)
            rhs = hermite_form(pinv * M(d)) if any(factors) else lhs
            assert lhs == rhs

    def test_det_product(self):
        rng = random.Random(3)
        for _ in range(40):
            a = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
            det = (
                a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
            )
            rank, factors = smith_invariants(M(a))
            if det != 0:
                prod = 1
                for f in factors:
                    prod *= f
                assert rank == 3 and prod == abs(det)
            else:
                assert rank < 3


def _nonzero_cols(mat):
    cols = list(zip(*mat.entries))
    return [c for c in cols if any(c)]


class TestHermite:
    def test_golden(self):
        assert hermite_form(M([[2, 1], [0, 1]])) == M([[2, 1], [0, 1]])
        assert hermite_form(M([[0, 3], [3, 0]])) == M([[3, 0], [0, 3]])
        eye = M.identity(4)
        assert hermite_form(eye) == eye

    def test_shape_and_pivots(self):
        h = hermite_form(M([[1, 1], [1, 1]]))
        assert h == M([[0, 1], [0, 1]])

    def test_transform(self):
        rng = random.Random(11)
        for _ in range(40):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            a = M([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)])
            h, u = hermite_form_with_transform(a)
            assert a * u == h
            r2, f2 = smith_invariants(u)
            assert r2 == m and set(f2) <= {1}

    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_idempotent_and_span_invariant(self, n, m, seed):
        rng = random.Random(seed)
        a = M([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)])
        h = hermite_form(a)
        assert hermite_form(h) == h
        # span invariance: multiply by a random unimodular matrix
        v = [[int(i == j) for j in range(m)] for i in range(m)]
        for _ in range(4):
            i, j = rng.randrange(m), rng.randrange(m)
            if i != j:
                c = rng.randint(-2, 2)
                for r in range(m):
                    v[r][i] += c * v[r][j]
        assert _nonzero_cols(hermite_form(a * M(v))) == _nonzero_cols(h)


class TestKernel:
    def test_kernel_annihilates(self):
        rng = random.Random(5)
        for _ in range(40):
            n, m = rng.randint(1, 3), rng.randint(2, 5)
            a = M([[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)])
            k = kernel_basis(a)
            rank, _ = smith_invariants(a)
            if k is None:
                assert rank == m
                continue
            assert k.cols == m - rank
            prod = a * k
            assert all(all(x == 0 for x in row) for row in prod.entries)


# ---------------------------------------------------------------------------
# the fraction-free Gauss-Jordan core against Fraction eliminations


def _fraction_inverse(a):
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


def _fraction_kernel(a):
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


def _fraction_det(mat):
    work = [list(map(Fraction, row)) for row in mat]
    n = len(work)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        det *= work[col][col]
        inv = 1 / work[col][col]
        for r in range(col + 1, n):
            if work[r][col] != 0:
                f = work[r][col] * inv
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return det


def _outcome(f, *args):
    try:
        return f(*args)
    except SingularityError as exc:
        return type(exc), str(exc)


@st.composite
def _rational_matrices(draw):
    """Small rational matrices, a third of them with a zero row, a zero
    column or a repeated row."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 5]))
    a = [[draw(entry) for _ in range(m)] for _ in range(n)]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
    defect = draw(st.sampled_from([None, None, "row", "column", "repeat"]))
    if defect == "row":
        a[i] = [Fraction(0)] * m
    elif defect == "column":
        for row in a:
            row[j] = Fraction(0)
    elif defect == "repeat":
        a[i] = [-2 * x for x in a[draw(st.integers(0, n - 1))]]
    return a


@given(_rational_matrices())
@example([[Fraction(0)]])
@example([[Fraction(-2, 3)]])
@example([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]])
@settings(max_examples=100, deadline=None)
def test_gauss_jordan_matches_fraction_elimination(a):
    assert rat_kernel(a) == _fraction_kernel(a)
    k = min(len(a), len(a[0]))
    square = [row[:k] for row in a[:k]]
    assert _outcome(mat_inverse, square) == _outcome(_fraction_inverse, square)
    d, scaled = _integer_scaled(square)
    assert det(scaled) == _fraction_det(square) * d**k
    assert det(scaled) == _fraction_det(scaled)


def _sympy_factors(coeffs):
    """factor_over_q's contract, computed by sympy's factor_list."""
    import sympy

    x = sympy.Symbol("x")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * x**i
        for i, c in enumerate(map(Fraction, coeffs))
    )
    out = []
    for poly, mult in sympy.Poly(expr, x, domain="QQ").factor_list()[1]:
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
        out.append((tuple(c / cs[-1] for c in cs), int(mult)))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


# Irreducible over Q, reducible modulo every prime, so their modular
# factors recombine: x^4 + 1, x^4 - 10x^2 + 1 (the minimal polynomial of
# sqrt 2 + sqrt 3), and shifted or rescaled forms of them.
_SPLIT_EVERYWHERE = (
    [1, 0, 0, 0, 1],
    [1, 0, -10, 0, 1],
    [2, 4, 6, 4, 1],
    [1, 0, -40, 0, 16],
)


@st.composite
def _rational_polynomials(draw):
    """Rational polynomials of degree at most 8: products of random pieces
    and of the quartics above, each to a drawn power, times a constant."""
    coefficient = st.fractions(min_value=-30, max_value=30, max_denominator=12)
    random_piece = st.lists(coefficient, min_size=2, max_size=5).filter(lambda c: c[-1] != 0)
    piece = st.one_of(random_piece, st.sampled_from(_SPLIT_EVERYWHERE))
    poly = [draw(coefficient.filter(bool))]
    for factor, power in draw(st.lists(st.tuples(piece, st.integers(1, 3)), min_size=1, max_size=4)):
        for _ in range(power):
            if len(poly) + len(factor) - 2 <= 8:
                poly = _poly_mul(poly, [Fraction(c) for c in factor])
    return poly


class TestPolynomials:
    def test_charpoly_diagonal(self):
        cs = charpoly([[Fraction(1, 3), 0], [0, 3]])
        # (x - 1/3)(x - 3) = x^2 - (10/3)x + 1
        assert cs == [Fraction(1), Fraction(-10, 3), Fraction(1)]

    def test_charpoly_nilpotent(self):
        assert charpoly([[0, 1], [0, 0]]) == [0, 0, 1]

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.builds(
                        lambda num, p_exp, other: Fraction(
                            num, 3**p_exp * other
                        ),
                        st.integers(-20, 20),
                        st.integers(0, 3),
                        st.sampled_from([1, 1, 2, 5, 7, 10, 49]),
                    ),
                    min_size=n,
                    max_size=n,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_charpoly_matches_sympy(self, rows):
        # denominators mix the prime 3 with other primes, so the common
        # denominator scaled into the integer matrix is a product of both
        import sympy

        x = sympy.Symbol("x")
        want = sympy.Matrix(
            [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows]
        ).charpoly(x).all_coeffs()
        got = charpoly(rows)
        assert got == [Fraction(int(c.p), int(c.q)) for c in reversed(want)]
        assert all(isinstance(c, Fraction) for c in got)

    def test_factor_over_q(self):
        # x^4 - 1 = (x-1)(x+1)(x^2+1)
        factors = factor_over_q([-1, 0, 0, 0, 1])
        assert ((Fraction(-1), Fraction(1)), 1) in factors
        assert ((Fraction(1), Fraction(1)), 1) in factors
        assert ((Fraction(1), Fraction(0), Fraction(1)), 1) in factors

    def test_factor_multiplicity(self):
        factors = factor_over_q([1, 2, 1])  # (x+1)^2
        assert factors == [((Fraction(1), Fraction(1)), 2)]

    def test_constant_has_no_factors(self):
        assert factor_over_q([Fraction(5, 3)]) == []
        assert factor_over_q([0, 0]) == []

    @given(_rational_polynomials())
    @settings(max_examples=150, deadline=None)
    def test_factor_over_q_matches_sympy(self, coeffs):
        assert factor_over_q(coeffs) == _sympy_factors(coeffs)

    def test_factor_over_q_on_acceptance_charpolys(self, capsys, monkeypatch):
        import test_acceptance

        from tidyscale import padic

        seen = set()

        def recording(coeffs):
            seen.add(tuple(coeffs))
            return factor_over_q(coeffs)

        monkeypatch.setattr(padic, "factor_over_q", recording)
        test_acceptance.test_ac1_scale_matches_lattice_minimization(capsys)
        test_acceptance.test_ac8_identity_suite_and_basis_independence(capsys)
        assert len(seen) > 20
        for coeffs in seen:
            assert factor_over_q(coeffs) == _sympy_factors(coeffs), coeffs

