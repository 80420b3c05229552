"""Core arithmetic: frozen worked examples plus randomized invariants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tidyscale.errors import InputError, SingularityError
from tidyscale.exactmath import (
    INFINITY,
    IntegerMatrix,
    charpoly,
    cokernel,
    factor_over_q,
    hermite_form,
    hermite_form_with_transform,
    kernel_basis,
    newton_polygon,
    padic_valuation,
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
