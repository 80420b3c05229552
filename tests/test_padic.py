"""Lattice backend: scales, tidy lattices, eigenfactors, relative scales."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympy

from conftest import random_separable, random_unimodular, seeded_rng
from tidyscale import padic as pd
from tidyscale.errors import (
    CommensurabilityError,
    InputError,
    SingularityError,
    SlopeSeparabilityError,
    UnsupportedInputError,
)
from tidyscale.exactmath import (
    factor_over_q,
    mat_identity,
    mat_inverse,
    mat_mul,
    newton_polygon,
    rat_kernel,
)
from tidyscale.padic import (
    FamilyEigenfactor,
    Lattice,
    PAdicAutomorphism,
    common_tidy,
    eigenfactor,
    expansion_index,
    family_eigenfactors,
    is_invariant,
    lattice_arith,
    lattice_index,
    parts,
    relative_scale,
    scale,
    slope_decomposition,
    step1_tidy,
    word,
)


def aut(rows, p=3):
    return PAdicAutomorphism(tuple(tuple(F(x) for x in r) for r in rows), p)


DIAG = aut([[F(1, 3), 0, 0], [0, 1, 0], [0, 0, 3]])
SWAP = aut([[0, 1], [3, 0]])


# The three-coordinate family: coordinates carry labels (0,0), (1,0), (0,1)
# and the generator with exponent vector x scales the coordinate labelled m
# by 3^(-m.x).  So the first generator expands the middle coordinate, the
# second expands the last.
A1 = aut([[1, 0, 0], [0, F(1, 3), 0], [0, 0, 1]])
A2 = aut([[1, 0, 0], [0, 1, 0], [0, 0, F(1, 3)]])


class TestScale:
    def test_worked_diag(self):
        assert scale(DIAG) == 3
        assert scale(DIAG.inverse()) == 3

    def test_identity(self):
        assert scale(aut([[1, 0], [0, 1]])) == 1

    def test_irrational_slope_pair(self):
        # alpha^2 = 3I, so s(alpha)^2 = s(3I) = 1 and s(alpha^-1)^2 = 9
        assert scale(SWAP) == 1
        assert scale(SWAP.inverse()) == 3

    def test_singular_rejected(self):
        with pytest.raises(SingularityError):
            aut([[1, 1], [1, 1]])

    def test_s2_power_law(self):
        rng = seeded_rng(11)
        for _ in range(12):
            p = rng.choice([2, 3, 5])
            a = random_separable(rng, rng.choice([2, 3]), p)
            s = scale(a)
            for k in range(1, 5):
                assert scale(a.power(k)) == s**k

    def test_s3_det_balance(self):
        from tidyscale.exactmath import padic_valuation

        rng = seeded_rng(12)
        for _ in range(12):
            p = rng.choice([2, 3, 5])
            a = random_separable(rng, rng.choice([2, 3]), p)
            lhs = F(scale(a), scale(a.inverse()))
            assert lhs == F(p) ** (-padic_valuation(a.det(), p))

    def test_s1_iff_invariant(self):
        rng = seeded_rng(13)
        samples = [random_separable(rng, 2, rng.choice([2, 3])) for _ in range(16)]
        # slope-zero cases, where an invariant lattice must exist
        samples.append(aut([[2, 1], [1, 1]]))
        samples.append(aut([[1, F(1, 3)], [0, 1]]))
        flats = 0
        for a in samples:
            flat = scale(a) == 1 and scale(a.inverse()) == 1
            flats += flat
            assert flat == is_invariant(a, step1_tidy(a))
        assert 0 < flats < len(samples)


class TestLattice:
    def test_index_p_times_standard(self):
        std = Lattice.standard(2, 3)
        sub = std.image([[3, 0], [0, 3]])
        assert lattice_index(sub, std) == 9

    def test_intersect_golden(self):
        std = Lattice.standard(2, 3)
        other = std.image([[F(1, 3), 0], [0, 3]])
        got = std.intersect(other)
        assert got == Lattice.span(3, [(1, 0), (0, 3)])

    def test_sum_idempotent(self):
        lat = Lattice.span(3, [(F(1, 3), 2), (0, 5)])
        assert lat + lat == lat
        assert lattice_arith("sum", lat, lat) == lat

    def test_unit_content_is_invisible(self):
        # prime-to-p content of generators is a unit p-locally
        assert Lattice.span(3, [(1, 0), (0, 2)]) == Lattice.standard(2, 3)
        assert Lattice.span(3, [(2, 1), (0, 1)]) == Lattice.standard(2, 3)
        assert Lattice.span(3, [(F(5, 7), 0), (0, 1)]) == Lattice.standard(2, 3)

    def test_rank_mismatch_index(self):
        full = Lattice.standard(2, 3)
        line = Lattice.span(3, [(1, 0)], ambient=2)
        with pytest.raises(CommensurabilityError):
            lattice_index(line, full)

    def test_two_sided_index(self):
        a = Lattice.span(3, [(3, 0), (0, 1)])
        b = Lattice.span(3, [(1, 0), (0, 3)])
        assert lattice_index(a, b) == (3, 3)

    def test_member(self):
        lat = Lattice.span(3, [(3, 0), (1, 1)])
        assert lat.member((4, 1))
        assert lat.member((0, 0))
        assert not lat.member((1, 0))
        assert lat.member((F(1, 2), F(1, 2)))  # 2 is a unit at p=3

    def test_intersect_subspace(self):
        lat = Lattice.span(3, [(1, 0, 0), (0, 3, 0), (0, 1, 9)])
        line = lat.intersect_subspace([(0, 1, 0)])
        assert line == Lattice.span(3, [(0, 3, 0)], ambient=3)


class TestSlopeDecomposition:
    def test_diagonal(self):
        sd = slope_decomposition(DIAG)
        assert [(pc.slope, pc.dim) for pc in sd.pieces] == [
            (F(-1), 1),
            (F(0), 1),
            (F(1), 1),
        ]

    def test_half_slope(self):
        sd = slope_decomposition(SWAP)
        assert [(pc.slope, pc.dim) for pc in sd.pieces] == [(F(1, 2), 2)]

    def test_rational_split(self):
        a = aut([[0, 1], [-1, F(10, 3)]])
        sd = slope_decomposition(a)
        assert [(pc.slope, pc.dim) for pc in sd.pieces] == [(F(-1), 1), (F(1), 1)]

    def test_mixed_slope_factor_rejected(self):
        # x^2 - 10x + 3 is irreducible over Q with root valuations 0 and 1
        a = aut([[0, 1], [-3, 10]])
        with pytest.raises(SlopeSeparabilityError) as exc:
            slope_decomposition(a)
        assert "x^2" in str(exc.value.factor)


class TestStep1:
    def test_diag_already_tidy(self):
        assert step1_tidy(aut([[F(1, 3), 0], [0, 3]])) == Lattice.standard(2, 3)

    def test_conjugated(self):
        t = [[F(1), F(1)], [F(0), F(1)]]
        base = [[F(1, 3), 0], [0, F(3)]]
        conj = mat_mul(mat_mul(t, base), mat_inverse(t))
        a = aut(conj)
        v = step1_tidy(a)
        # the conjugating matrix is unimodular, so the standard lattice is
        # carried to itself and stays tidy
        assert v == Lattice.standard(2, 3)
        assert expansion_index(a, v) == 3 == scale(a)

    def test_identity_immediate(self):
        assert step1_tidy(aut([[1, 0], [0, 1]])) == Lattice.standard(2, 3)


class TestParts:
    def test_worked_diag(self):
        v = Lattice.standard(3, 3)
        plus, minus, zero = parts(DIAG, v)
        assert plus == Lattice.span(3, [(1, 0, 0), (0, 1, 0)], ambient=3)
        assert minus == Lattice.span(3, [(0, 1, 0), (0, 0, 1)], ambient=3)
        assert zero == Lattice.span(3, [(0, 1, 0)], ambient=3)

    def test_identity(self):
        v = Lattice.standard(2, 3)
        assert parts(aut([[1, 0], [0, 1]]), v) == (v, v, v)

    def test_strictly_contracted(self):
        v = Lattice.standard(2, 3)
        plus, minus, zero = parts(SWAP, v)
        assert plus.rank == 0
        assert minus == v
        assert zero.rank == 0

    def test_not_tidy_rejected(self):
        a = aut([[1, F(1, 3)], [0, 1]])
        with pytest.raises(InputError):
            parts(a, Lattice.standard(2, 3))

    def test_forward_part_containment(self):
        # the nonpositive-slope sublattice really is the full forward
        # intersection: it stays inside every forward image
        rng = seeded_rng(21)
        for _ in range(6):
            a = random_separable(rng, 2, 3)
            v = step1_tidy(a)
            plus, minus, _ = parts(a, v)
            img = v
            for _ in range(4):
                img = img.image(a.matrix)
                assert img.contains(plus)
            img = v
            for _ in range(4):
                img = img.image(a.inverse().matrix)
                assert img.contains(minus)


class TestEigenfactor:
    def test_three_coordinate_family(self):
        u = common_tidy([A1, A2])
        assert u == Lattice.standard(3, 3)
        got = eigenfactor(u, [A1, A2.inverse()])
        # A1 scales the middle coordinate by 1/3 and fixes the last; the
        # inverse of A2 scales the last by 3.  The non-contracted common part
        # therefore keeps the first two coordinates and drops the last.
        assert got == Lattice.span(3, [(1, 0, 0), (0, 1, 0)], ambient=3)

    def test_empty_family_returns_lattice(self):
        u = Lattice.standard(3, 3)
        assert eigenfactor(u, []) == u

    def test_opposite_pair_collapses(self):
        a = aut([[F(1, 3), 0], [0, 3]])
        u = step1_tidy(a)
        assert eigenfactor(u, [a, a.inverse()]).rank == 0

    def test_noncommuting_rejected(self):
        u = Lattice.standard(2, 3)
        with pytest.raises(UnsupportedInputError):
            eigenfactor(u, [SWAP, aut([[F(1, 3), 0], [0, 3]])])

    def test_covariance_under_family_words(self):
        # applying a family word to the lattice commutes with taking the
        # eigenfactor
        u = common_tidy([A1, A2])
        fam = [A1, A2.inverse()]
        for beta in [A1, A2, A1.compose(A2)]:
            left = eigenfactor(u, fam).image(beta.matrix)
            right = eigenfactor(u.image(beta.matrix), fam)
            assert left == right

    def test_sign_pattern_sum_recovers_lattice(self):
        u = common_tidy([A1, A2])
        total = Lattice.zero(3, 3)
        for signs in itertools.product([1, -1], repeat=2):
            fam = [g.power(s) for g, s in zip([A1, A2], signs)]
            total = total + eigenfactor(u, fam)
        assert total == u

    def test_bounded_orbit_vectors_lie_backward(self):
        # a vector whose forward orbit stays bounded sits in the
        # nonnegative-slope part
        rng = seeded_rng(31)
        for _ in range(6):
            a = random_separable(rng, 3, 3)
            v = step1_tidy(a)
            _, minus, _ = parts(a, v)
            for piece in slope_decomposition(a).pieces:
                if piece.slope < 0:
                    continue
                for col in piece.basis:
                    scaled = list(col)
                    for _ in range(12):
                        if v.member(scaled):
                            break
                        scaled = [3 * x for x in scaled]
                    assert v.member(scaled)
                    assert minus.member(scaled)


class TestRelativeScale:
    def test_three_coordinate_value(self):
        u = common_tidy([A1, A2])
        assert relative_scale([A1, A2.inverse()], A1, u, verify=True) == 3

    def test_stabilizing_word(self):
        u = common_tidy([A1, A2])
        # A2 fixes both coordinates of this eigenfactor pointwise
        assert relative_scale([A1, A2.inverse()], A2, u) == 1

    def test_empty_family_reduces_to_scale(self):
        u = step1_tidy(DIAG)
        assert relative_scale([], DIAG, u) == scale(DIAG) == 3

    def test_independent_of_tidy_choice(self):
        rng = seeded_rng(41)
        for _ in range(4):
            a = random_separable(rng, 2, 3)
            b = a.power(2)
            u = common_tidy([a, b])
            assert relative_scale([a], b, u, verify=True) == relative_scale(
                [a], b, u.image(a.matrix)
            )


class TestCommonTidy:
    def test_three_coordinate_family(self):
        assert common_tidy([A1, A2]) == Lattice.standard(3, 3)

    def test_single_generator_consistency(self):
        for a in [DIAG, SWAP, aut([[F(1, 3), 0], [0, 3]])]:
            assert common_tidy([a]) == step1_tidy(a)

    def test_diagonal_pair(self):
        a = aut([[F(1, 3), 0], [0, 3]])
        b = aut([[3, 0], [0, F(1, 3)]])
        assert common_tidy([a, b]) == Lattice.standard(2, 3)

    def test_triangular_family(self):
        h1 = aut([[3, 1], [0, 3]])
        h2 = aut([[F(1, 9), F(1, 2)], [0, F(1, 9)]])
        u = common_tidy([h1, h2])
        assert u == Lattice.span(3, [(F(1, 3), 0), (0, 1)])
        for e1, e2 in itertools.product(range(-2, 3), repeat=2):
            if e1 == e2 == 0:
                continue
            w = word([h1, h2], [e1, e2])
            assert expansion_index(w, u) == scale(w)

    def test_noncommuting_rejected(self):
        with pytest.raises(UnsupportedInputError):
            common_tidy([SWAP, aut([[F(1, 3), 0], [0, 3]])])


class TestFamilyEigenfactors:
    def test_three_coordinate_records(self):
        recs, inert = family_eigenfactors([A1, A2])
        assert [r.direction for r in recs] == [(-1, 0), (0, -1)]
        assert [r.delta_weight for r in recs] == [(F(1), F(0)), (F(0), F(1))]
        assert recs[0].lattice == Lattice.span(3, [(1, 0, 0), (0, 1, 0)], ambient=3)
        assert recs[1].lattice == Lattice.span(3, [(1, 0, 0), (0, 0, 1)], ambient=3)
        assert inert == Lattice.span(3, [(1, 0, 0)], ambient=3)

    def test_delta_weight_matches_measure_ratio(self):
        from tidyscale.padic import modular_exponent

        recs, _ = family_eigenfactors([A1, A2])
        for rec in recs:
            for exps in itertools.product(range(-2, 3), repeat=2):
                if all(e == 0 for e in exps):
                    continue
                w = word([A1, A2], exps)
                predicted = sum(
                    wgt * e for wgt, e in zip(rec.delta_weight, exps)
                )
                assert modular_exponent(w, rec.lattice) == predicted

    def test_scale_is_product_over_eigenfactors(self):
        # the full scale of a word factors through the eigenfactor expansions
        from tidyscale.padic import expansion_exponent

        gens = [A1, A2]
        recs, inert = family_eigenfactors(gens)
        for exps in itertools.product(range(-2, 3), repeat=2):
            w = word(gens, exps)
            total = sum(expansion_exponent(w, r.lattice) for r in recs)
            assert scale(w) == 3**total
            assert expansion_exponent(w, inert) == 0


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_canonical_form_is_stable(seed):
    rng = seeded_rng(seed)
    p = rng.choice([2, 3, 5])
    n = rng.choice([2, 3])
    cols = [
        [F(rng.randint(-6, 6), rng.choice([1, 1, p, p * p])) for _ in range(n)]
        for _ in range(rng.randint(1, n + 1))
    ]
    lat = Lattice.span(p, cols, ambient=n)
    # re-spanning the canonical basis reproduces the representation
    assert Lattice.span(p, lat.basis_columns(), ambient=n) == lat
    # unit rescaling of generators is invisible
    unit = 3 if p != 3 else 5
    scaled = [[unit * x for x in c] for c in cols]
    assert Lattice.span(p, scaled, ambient=n) == lat
    # p-rescaling shifts the exponent by exactly one
    if lat.rank:
        bumped = Lattice.span(p, [[p * x for x in c] for c in cols], ambient=n)
        assert bumped.hermite.entries == lat.hermite.entries
        assert bumped.exponent == lat.exponent + 1


# ---------------------------------------------------------------------------
# spectral data: integer evaluation against a Fraction reference, caching


def _fraction_slope_bases(alpha):
    """[(slope, basis)] with every factor evaluated at alpha itself in
    Fraction arithmetic, the polynomial taken from sympy."""
    rows = [list(r) for r in alpha.matrix]
    n = len(rows)
    x = sympy.Symbol("x")
    poly = sympy.Matrix(
        [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows]
    ).charpoly(x)
    coeffs = [F(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    by_slope = {}
    for factor, mult in factor_over_q(coeffs):
        (slope, _), = newton_polygon(list(factor), alpha.prime).root_valuations()
        by_slope.setdefault(slope, []).append((factor, mult))
    out = []
    for slope in sorted(by_slope):
        prod = mat_identity(n)
        for factor, mult in by_slope[slope]:
            fm = [[factor[-1] * (i == j) for j in range(n)] for i in range(n)]
            for c in reversed(factor[:-1]):
                fm = mat_mul(rows, fm)
                for i in range(n):
                    fm[i][i] += c
            for _ in range(mult):
                prod = mat_mul(prod, fm)
        out.append((slope, tuple(tuple(v) for v in rat_kernel(prod))))
    return out


def _ac8_corpus():
    """The AC-8 families (two diagonal ones and a conjugated one), each
    with every word of exponents in {-1, 0, 1}."""

    def diag(entries):
        n = len(entries)
        return aut([[F(entries[i]) if i == j else 0 for j in range(n)] for i in range(n)])

    rng = seeded_rng(481)
    first = [diag(["1/3", 1, 1]), diag([1, "1/3", 1])]
    second = [diag(["1/3", 1, 1, "1/3"]), diag([1, "1/3", 1, "1/3"])]
    c = random_unimodular(rng, 3)
    c_inv = mat_inverse(c)
    conjugated = [
        aut(mat_mul(mat_mul(c, [list(r) for r in g.matrix]), c_inv)) for g in first
    ]
    out = []
    for gens in (first, second, conjugated):
        for exps in itertools.product((-1, 0, 1), repeat=2):
            out.append(word(gens, exps))
    return out


class TestSpectralData:
    def test_integer_bases_match_fraction_reference(self):
        rng = seeded_rng(20260822)
        corpus = _ac8_corpus() + [
            random_separable(rng, n, p) for n in (2, 3, 4) for p in (2, 3, 5)
        ]
        for alpha in corpus:
            got = [(pc.slope, pc.basis) for pc in slope_decomposition(alpha).pieces]
            assert got == _fraction_slope_bases(alpha), alpha

    def test_computed_once_per_automorphism(self, monkeypatch):
        calls = {"charpoly": 0, "factor_over_q": 0}
        for name in calls:
            original = getattr(pd, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(pd, name, counted)
        a = aut([[0, 1], [-1, F(10, 3)]])
        for _ in range(3):
            scale(a)
            slope_decomposition(a)
            a.charpoly()
        assert calls == {"charpoly": 1, "factor_over_q": 1}
        assert a.inverse() is a.inverse()
        assert a.inverse().inverse() is a

    def test_cached_charpoly_cannot_be_mutated(self):
        a = aut([[F(1, 3), 0], [0, 3]])
        a.charpoly().append(F(7))
        assert a.charpoly() == [F(1), F(-10, 3), F(1)]

    def test_filled_caches_keep_identity(self):
        rows = [[0, 1], [-1, F(10, 3)]]
        fresh, filled = aut(rows), aut(rows)
        scale(filled)
        slope_decomposition(filled)
        filled.inverse().charpoly()
        assert filled == fresh and fresh == filled
        assert hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh)
        assert {fresh: "x"}[filled] == "x"
        assert filled.inverse().inverse() == filled == fresh.inverse().inverse()

    def test_separability_error_repeats(self):
        a = aut([[0, 1], [-3, 10]])
        for _ in range(2):
            with pytest.raises(SlopeSeparabilityError):
                slope_decomposition(a)
