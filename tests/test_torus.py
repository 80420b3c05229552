"""Pattern-subgroup backend: bounds arithmetic, root eigenfactors, and
congruence-quotient factorization checks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tidyscale.errors import (
    CommensurabilityError,
    InfiniteIndexError,
    InputError,
    ResourceCapError,
)
from tidyscale.torus import (
    DiagonalAutomorphism,
    PatternSubgroup,
    conjugate,
    diagonal_part,
    displacement_exponent,
    forward_pattern,
    halving_factorization_check,
    index_exponent,
    iwahori,
    pattern_residues,
    permute_vector,
    root_eigenfactors,
    sign_pattern_factor,
)

def pattern_index(inner, outer, p):
    return p ** index_exponent(inner, outer)


def permute_root(perm, root):
    """Relabeling of a root entry by a coordinate permutation."""
    i, j = root
    return (perm[i], perm[j])


A1 = DiagonalAutomorphism((-1, 0, 1))
A2 = DiagonalAutomorphism((0, -1, 1))
A3 = DiagonalAutomorphism((-1, 1, 0))


class TestPatternBasics:
    def test_iwahori_shape(self):
        u = iwahori(3)
        assert u.bounds == ((0, 1, 1), (0, 0, 1), (0, 0, 0))

    def test_diagonal_must_be_zero(self):
        with pytest.raises(InputError):
            PatternSubgroup(2, ((1, 0), (0, 0)))

    def test_closure_violation_rejected(self):
        # entries (1,2) and (2,3) free at level 0 force (1,3) no deeper than 0
        with pytest.raises(InputError):
            PatternSubgroup(3, ((0, 0, 5), (0, 0, 0), (0, 0, 0)))

    def test_forced_zero_entry_needs_closed_support(self):
        # (1,3) cannot vanish identically while (1,2) and (2,3) roam
        with pytest.raises(InputError):
            PatternSubgroup(3, ((0, 0, None), (0, 0, 0), (0, 0, 0)))

    def test_forced_zero_row_is_fine(self):
        p = PatternSubgroup(3, ((0, None, None), (0, 0, 0), (0, 0, 0)))
        assert p.bounds[0][1] is None

    def test_common_weight_shift_acts_trivially(self):
        # conjugation sees only the differences w_i - w_j, so a constant
        # vector is legal and fixes every pattern
        shift = DiagonalAutomorphism((1, 1, 1))
        assert conjugate(iwahori(3), shift) == iwahori(3)
        assert conjugate(iwahori(3), A1.compose(shift)) == conjugate(
            iwahori(3), A1
        )

    def test_compose_and_inverse(self):
        assert A1.compose(A1.inverse()).w == (0, 0, 0)
        assert A1.power(2).w == (-2, 0, 2)


class TestConjugation:
    def test_iwahori_conjugate_bounds(self):
        c = conjugate(iwahori(3), A1)
        assert c.bounds == ((0, 0, -1), (1, 0, 0), (2, 1, 0))

    def test_conjugation_is_additive(self):
        rng = random.Random(7)
        u = iwahori(3)
        for _ in range(20):
            a = rng.randint(-3, 3)
            b = rng.randint(-3, 3)
            w1 = DiagonalAutomorphism((a, b, -a - b))
            c = rng.randint(-3, 3)
            d = rng.randint(-3, 3)
            w2 = DiagonalAutomorphism((c, d, -c - d))
            lhs = conjugate(conjugate(u, w1), w2)
            rhs = conjugate(u, w1.compose(w2))
            assert lhs == rhs

    def test_forced_zero_stays_forced(self):
        c = conjugate(diagonal_part(3), A1)
        assert c == diagonal_part(3)


class TestIndices:
    def test_iwahori_displacement(self):
        assert displacement_exponent(iwahori(3), A1) == 4
        assert pattern_index(
            conjugate(iwahori(3), A1).intersect(iwahori(3)),
            conjugate(iwahori(3), A1),
            5,
        ) == 5**4

    def test_displacement_matches_positive_part_sum(self):
        rng = random.Random(11)
        u = iwahori(3)
        for _ in range(50):
            a = rng.randint(-4, 4)
            b = rng.randint(-4, 4)
            w = (a, b, -a - b)
            alpha = DiagonalAutomorphism(w)
            expected = sum(
                max(w[j] - w[i], 0)
                for i in range(3)
                for j in range(3)
                if i != j
            )
            assert displacement_exponent(u, alpha) == expected

    def test_displacement_of_inverse_balances_determinant(self):
        # sum of positive parts of w_j - w_i is symmetric under negation
        for w in [(-1, 0, 1), (2, -1, -1), (0, 0, 0), (3, -2, -1)]:
            alpha = DiagonalAutomorphism(w)
            assert displacement_exponent(iwahori(3), alpha) == displacement_exponent(
                iwahori(3), alpha.inverse()
            )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            displacement_exponent(iwahori(2), A1)

    def test_non_containment_rejected(self):
        u = iwahori(3)
        c = conjugate(u, A1)
        with pytest.raises(CommensurabilityError):
            index_exponent(c, u)

    def test_infinite_index_detected(self):
        with pytest.raises(InfiniteIndexError):
            index_exponent(diagonal_part(3), iwahori(3))

    def test_index_exponent_additive_in_towers(self):
        u = iwahori(3)
        mid = u.intersect(conjugate(u, A1))
        inner = mid.intersect(conjugate(u, A1.power(2)))
        assert u.contains(mid) and mid.contains(inner)
        assert index_exponent(inner, u) == index_exponent(
            inner, mid
        ) + index_exponent(mid, u)


def _closed_patterns(n, shift):
    """Closed patterns of dimension n: the base, the Iwahori subgroup, the
    diagonal part, the conjugates and forward patterns of the first two under
    diag(p^shift), and their root patterns."""
    base = PatternSubgroup(n, tuple((0,) * n for _ in range(n)))
    alpha = DiagonalAutomorphism(shift)
    out = [base, iwahori(n), diagonal_part(n)]
    for u in (base, iwahori(n)):
        out.append(conjugate(u, alpha))
        out.append(forward_pattern(u, alpha))
        out.append(forward_pattern(u, alpha).intersect(u))
        out.extend(r.pattern for r in root_eigenfactors(n, u)[0])
    return out


@st.composite
def _pattern_and_weights(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    weights = st.tuples(*[st.integers(min_value=-4, max_value=4)] * n)
    shift, w = draw(weights), draw(weights)
    return draw(st.sampled_from(_closed_patterns(n, shift))), w


class TestClosedFormDisplacement:
    @settings(max_examples=300, deadline=None)
    @given(_pattern_and_weights())
    def test_matches_conjugate_intersect_index(self, drawn):
        u, w = drawn
        alpha = DiagonalAutomorphism(w)
        img = conjugate(u, alpha)
        assert displacement_exponent(u, alpha) == index_exponent(
            img.intersect(u), img
        )


class TestForwardPatterns:
    def test_forward_keeps_nonexpanding_entries(self):
        f = forward_pattern(iwahori(3), A1)
        assert f.bounds == ((0, 1, 1), (None, 0, 1), (None, None, 0))

    def test_backward_is_forward_of_inverse(self):
        b = forward_pattern(iwahori(3), A1.inverse())
        assert b.bounds == ((0, None, None), (0, 0, None), (0, 0, 0))

    def test_zero_direction_keeps_everything(self):
        z = DiagonalAutomorphism((0, 0, 0))
        assert forward_pattern(iwahori(3), z) == iwahori(3)

    def test_forward_part_expands(self):
        # conjugating the forward pattern only relaxes its finite bounds
        f = forward_pattern(iwahori(3), A1)
        c = conjugate(f, A1)
        assert c.contains(f)
        assert index_exponent(f, c) == 4


class TestRootEigenfactors:
    def test_counts(self):
        records3, inert3 = root_eigenfactors(3)
        records2, inert2 = root_eigenfactors(2)
        assert len(records3) == 6
        assert len(records2) == 2
        assert inert3 == diagonal_part(3)
        assert inert2 == diagonal_part(2)

    def test_root_2_3_relative_scale(self):
        records, _ = root_eigenfactors(3)
        rec = next(r for r in records if r.root == (1, 2))
        assert rec.rho(A1) == 1
        assert rec.relative_scale(A1, 7) == 7
        assert rec.relative_scale(A1.inverse(), 7) == 1

    def test_functionals_split_displacement(self):
        records, _ = root_eigenfactors(3)
        rng = random.Random(3)
        for _ in range(50):
            a = rng.randint(-4, 4)
            b = rng.randint(-4, 4)
            alpha = DiagonalAutomorphism((a, b, -a - b))
            total = sum(max(r.rho(alpha), 0) for r in records)
            assert total == displacement_exponent(iwahori(3), alpha)

    def test_patterns_carry_base_bound_at_root(self):
        records, _ = root_eigenfactors(3)
        for r in records:
            i, j = r.root
            assert r.pattern.bounds[i][j] == iwahori(3).bounds[i][j]
            others = [
                r.pattern.bounds[a][b]
                for a in range(3)
                for b in range(3)
                if a != b and (a, b) != (i, j)
            ]
            assert all(v is None for v in others)

    def test_weyl_transposition_swaps_roots(self):
        perm = (1, 0, 2)
        assert permute_root(perm, (0, 1)) == (1, 0)
        assert permute_root(perm, (0, 2)) == (1, 2)
        assert permute_root(perm, (2, 0)) == (2, 1)
        assert permute_vector(perm, (-1, 0, 1)) == (0, -1, 1)


class TestResidues:
    def test_forward_pattern_sizes(self):
        f = forward_pattern(iwahori(3), A1)
        assert len(pattern_residues(f, 2, 2)) == 32
        assert len(pattern_residues(f, 3, 2)) == 972

    def test_iwahori_level_two_size(self):
        assert len(pattern_residues(iwahori(3), 2, 2)) == 2048

    def test_residues_form_a_group(self):
        f = forward_pattern(iwahori(3), A1)
        elems = pattern_residues(f, 2, 2)
        m = 4
        for a in list(elems)[:8]:
            for b in list(elems)[:8]:
                prod = tuple(
                    sum(a[i * 3 + t] * b[t * 3 + j] for t in range(3)) % m
                    for i in range(3)
                    for j in range(3)
                )
                assert prod in elems

    def test_cap_enforced(self):
        with pytest.raises(ResourceCapError) as info:
            pattern_residues(iwahori(3), 3, 2)
        assert info.value.needed == 4251528

    def test_negative_bound_rejected(self):
        c = conjugate(iwahori(3), A1)
        with pytest.raises(InputError):
            pattern_residues(c, 2, 2)

    def test_bad_prime_and_level(self):
        with pytest.raises(InputError):
            pattern_residues(iwahori(3), 4, 2)
        with pytest.raises(InputError):
            pattern_residues(iwahori(3), 3, 0)


class TestHalvingFactorization:
    def test_single_generator_upper_lower(self):
        for level in (1, 2):
            res = halving_factorization_check(iwahori(3), [A1], level, 2)
            assert res.ok
            assert res.order == ((1,), (-1,))

    def test_two_generator_full_pattern(self):
        for level in (1, 2):
            res = halving_factorization_check(iwahori(3), [A2, A3], level, 2)
            assert res.ok

    def test_cells_isolate_single_roots(self):
        gens = [A1, A2, A3]
        cells = {
            (1, 1, 1): (0, 2),
            (1, 1, -1): (1, 2),
            (1, -1, 1): (0, 1),
        }
        records, _ = root_eigenfactors(3)
        by_root = {
            r.root: r.pattern.intersect(forward_pattern(iwahori(3), A1))
            for r in records
        }
        for signs, root in cells.items():
            assert sign_pattern_factor(iwahori(3), gens, signs) == by_root[root]
        assert sign_pattern_factor(iwahori(3), gens, (1, -1, -1)) == diagonal_part(3)

    def test_forward_pattern_factorization_default_order(self):
        for p in (2, 3):
            res = halving_factorization_check(
                iwahori(3), [A1, A2, A3], 2, p, fixed_signs={0: 1}
            )
            assert res.ok

    def test_forward_pattern_factorization_central_order(self):
        # the (2,3), (1,3), (1,2) arrangement, central root in the middle
        order = [(1, 1, -1), (1, 1, 1), (1, -1, 1)]
        for p in (2, 3):
            res = halving_factorization_check(
                iwahori(3), [A1, A2, A3], 2, p, fixed_signs={0: 1}, order=order
            )
            assert res.ok

    def test_wrong_order_with_missing_factor_fails(self):
        order = [(1, 1, -1), (1, -1, 1)]
        res = halving_factorization_check(
            iwahori(3), [A1, A2, A3], 2, 2, fixed_signs={0: 1}, order=order
        )
        assert not res.ok
        assert res.witness

    def test_trivial_generator_passes_vacuously(self):
        z = DiagonalAutomorphism((0, 0, 0))
        res = halving_factorization_check(iwahori(3), [z], 1, 2)
        assert res.ok

    def test_cap_propagates(self):
        with pytest.raises(ResourceCapError):
            halving_factorization_check(iwahori(3), [A2, A3], 2, 3)
