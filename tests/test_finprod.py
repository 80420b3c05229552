"""Restricted-product backend: windowed subgroups, shift/twist automorphisms,
tidiness checks, and the tidying procedure on three worked families."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tidyscale.errors import (
    CommensurabilityError,
    InfiniteIndexError,
    InputError,
    ResourceCapError,
)
from tidyscale.finprod import (
    AmbientGroup,
    FiniteGroup,
    ShiftAutomorphism,
    WindowedSubgroup,
    apply,
    basic_subgroup,
    check_t1,
    check_t2,
    common_tidy_iterative,
    contains,
    cyclic_group,
    displacement_index,
    forward_part,
    is_tidy,
    k_subgroup,
    l_subgroup,
    meet,
    meet_index,
    order8_group,
    product_subgroup,
    product_subgroup_of,
    prop21_comparison,
    s3_group,
    tidying_procedure,
)
from tidyscale.finprod import _is_closed, _tails_only


# ---------------------------------------------------------------------------
# fixtures: the three ambient families


def two_sided_ambient(fiber_group):
    """Z x Z/2 index set, trivial far-left tail, full far-right tail."""
    full = frozenset(range(fiber_group.order))
    return AmbientGroup(fiber_group, 2, frozenset({fiber_group.identity}), full)


@pytest.fixture
def z2_setup():
    fib = cyclic_group(2)
    amb = two_sided_ambient(fib)
    e = fib.identity
    u = product_subgroup(amb, 0, 1, {(0, 1): (0, 1)}, left={e})
    a1 = ShiftAutomorphism(amb, d=1)
    a2 = ShiftAutomorphism(amb, d=1, sigma=(1, 0))
    return amb, u, a1, a2


@pytest.fixture
def s3_restricted():
    fib = s3_group()
    b = frozenset({fib.index_of("e"), fib.index_of("s1")})
    amb = AmbientGroup(fib, 1, b, b)
    shift = ShiftAutomorphism(amb, d=1)
    tau = fib.index_of("t")
    twist0 = ShiftAutomorphism(amb, d=0, twists=(((0, 0), fib.inner(tau)),))
    return amb, b, shift, twist0


@pytest.fixture
def order8_setup():
    fib = order8_group()
    c = frozenset({fib.identity, fib.index_of("c1")})
    amb = AmbientGroup(fib, 1, c, c)
    conj_a = fib.inner(fib.index_of("a"))
    beta = ShiftAutomorphism(amb, d=1, twists=(((0, 0), conj_a),))
    return amb, c, beta


# ---------------------------------------------------------------------------
# finite fiber groups


class TestFiniteGroups:
    def test_cyclic(self):
        c4 = cyclic_group(4)
        assert c4.order == 4
        assert c4.mul(1, 3) == 0
        assert c4.inv(1) == 3

    def test_bad_table_rejected(self):
        with pytest.raises(InputError):
            FiniteGroup(("e", "x"), ((0, 1), (1, 1)))

    def test_s3_conjugation_cycles_transpositions(self):
        s3 = s3_group()
        t = s3.index_of("t")
        conj = s3.inner(t)
        s1, s2, s3i = (s3.index_of(n) for n in ("s1", "s2", "s3"))
        assert conj[s1] == s2 and conj[s2] == s3i and conj[s3i] == s1

    def test_s3_transposition_order(self):
        s3 = s3_group()
        for name in ("s1", "s2", "s3"):
            i = s3.index_of(name)
            assert s3.mul(i, i) == s3.identity

    def test_order8_relations(self):
        g = order8_group()
        a = g.index_of("a")
        c1 = g.index_of("c1")
        c2 = g.index_of("c2")
        # a exchanges the two commuting involutions
        assert g.mul(a, c1) == g.mul(c2, a)
        assert g.mul(c1, c2) == g.mul(c2, c1)
        assert g.mul(a, a) == g.identity
        conj = g.inner(a)
        assert conj[c1] == c2 and conj[c2] == c1

    def test_order8_center(self):
        g = order8_group()
        c1 = g.index_of("c1")
        c2 = g.index_of("c2")
        z = g.mul(c1, c2)
        assert all(g.mul(z, x) == g.mul(x, z) for x in range(g.order))

    def test_automorphism_recognition(self):
        s3 = s3_group()
        assert s3.is_automorphism(s3.inner(s3.index_of("t")))
        # swapping the identity with anything is not a homomorphism
        bad = list(range(6))
        bad[0], bad[1] = bad[1], bad[0]
        assert not s3.is_automorphism(tuple(bad))

    def test_closure(self):
        s3 = s3_group()
        t = s3.index_of("t")
        assert s3.closure({t}) == frozenset(
            {s3.identity, t, s3.index_of("t2")}
        )


# ---------------------------------------------------------------------------
# windowed subgroups


class TestWindowedSubgroups:
    def test_canonical_strips_tail_columns(self, z2_setup):
        amb, u, a1, a2 = z2_setup
        wide = WindowedSubgroup(
            amb,
            -1,
            1,
            frozenset({(0, 0, 0, 0), (0, 0, 0, 1)}),
            frozenset({0}),
            frozenset({0, 1}),
        )
        assert wide.lo == 0 and wide.hi == 1
        assert wide == u

    def test_empty_window_boundary_is_kept(self, order8_setup):
        amb, c, beta = order8_setup
        e = frozenset({amb.fiber.identity})
        v1 = WindowedSubgroup(amb, 1, 1, frozenset({()}), e, c)
        v1_shifted = WindowedSubgroup(amb, 0, 0, frozenset({()}), e, c)
        assert v1 != v1_shifted

    def test_equal_tails_normalize_to_zero(self, order8_setup):
        amb, c, beta = order8_setup
        u0 = WindowedSubgroup(amb, 5, 5, frozenset({()}), c, c)
        assert u0.lo == 0 and u0.hi == 0

    def test_non_closed_set_rejected(self, s3_restricted):
        amb, b, shift, twist0 = s3_restricted
        t = amb.fiber.index_of("t")
        with pytest.raises(InputError):
            WindowedSubgroup(
                amb, 0, 1, frozenset({(amb.fiber.identity,), (t,)}), b, b
            )

    def test_tails_must_refine_ambient(self, s3_restricted):
        amb, b, shift, twist0 = s3_restricted
        full = frozenset(range(6))
        with pytest.raises(InputError):
            product_subgroup(amb, 0, 1, {}, left=full, right=b)

    def test_member(self, z2_setup):
        amb, u, a1, a2 = z2_setup
        assert u.member({(0, 1): 1})
        assert u.member({(3, 0): 1})
        assert not u.member({(0, 0): 1})
        assert not u.member({(-2, 0): 1})

    def test_is_open(self, z2_setup):
        amb, u, a1, a2 = z2_setup
        assert u.is_open
        closed = product_subgroup(amb, 0, 1, {}, left={0}, right={0})
        assert not closed.is_open

    def test_basic_subgroups_decrease(self, s3_restricted):
        amb, b, shift, twist0 = s3_restricted
        outer = basic_subgroup(amb, 0, 1)
        inner = basic_subgroup(amb, -1, 2)
        assert contains(outer, inner)
        _, ix = meet_index(outer, inner)
        assert ix == len(b) ** 2


class TestMeets:
    def test_meet_index_counts_cosets(self, z2_setup):
        amb, u, a1, a2 = z2_setup
        img = apply(a1, u)
        inter, ix = meet_index(img, u)
        assert ix == 4
        assert contains(img, inter) and contains(u, inter)

    def test_infinite_index_raises(self, z2_setup):
        amb, u, a1, a2 = z2_setup
        tiny = _tails_only(amb, frozenset({0}), frozenset({0}))
        with pytest.raises(InfiniteIndexError):
            meet_index(u, tiny)

    def test_mismatched_ambient_raises(self, z2_setup, s3_restricted):
        amb, u, a1, a2 = z2_setup
        amb2, b, shift, twist0 = s3_restricted
        g0 = _tails_only(amb2, b, b)
        with pytest.raises(CommensurabilityError):
            meet(u, g0)

    def test_far_apart_windows_stay_cheap(self):
        # padding pools are pre-cut by the other operand's constraints, so
        # the forty-column gap never enumerates the free fiber block
        fib = s3_group()
        amb = two_sided_ambient(fib)
        full = tuple(range(6))
        u = product_subgroup(amb, 0, 1, {(0, 1): full}, left={fib.identity})
        a1 = ShiftAutomorphism(amb, d=1)
        far = apply(a1.power(-40), u, cap=10**5)
        inter = meet(u, far, cap=10**5)
        assert (inter.lo, inter.hi) == (40, 41)
        assert len(inter.elements) == 6

    def test_tower_multiplicativity(self, s3_restricted):
        amb, b, shift, twist0 = s3_restricted
        big = basic_subgroup(amb, 0, 1)
        mid = basic_subgroup(amb, -1, 1)
        small = basic_subgroup(amb, -1, 2)
        _, i1 = meet_index(big, mid)
        _, i2 = meet_index(mid, small)
        _, i3 = meet_index(big, small)
        assert i1 * i2 == i3


# ---------------------------------------------------------------------------
# automorphism algebra


class TestAutomorphisms:
    def test_compose_inverse_laws(self, z2_setup):
        amb, u, a1, a2 = z2_setup
        gamma = a1.inverse().compose(a2)
        gens = [a1, a2, gamma, a1.inverse(), a2.inverse(), gamma.inverse()]
        for x, y in itertools.product(gens, repeat=2):
            assert apply(x.compose(y), u) == apply(x, apply(y, u))
        for x in gens:
            assert x.compose(x.inverse()).is_identity
            assert x.inverse().compose(x).is_identity

    def test_twisted_compose_inverse(self, order8_setup):
        amb, c, beta = order8_setup
        u0 = _tails_only(amb, c, c)
        v = basic_subgroup(amb, -1, 2)
        for x, y in itertools.product([beta, beta.inverse()], repeat=2):
            assert apply(x.compose(y), v) == apply(x, apply(y, v))
            assert apply(x.compose(y), u0) == apply(x, apply(y, u0))
        sq = beta.compose(beta)
        assert sq.d == 2
        assert apply(sq, u0) == apply(beta, apply(beta, u0))

    def test_finite_order(self, s3_restricted):
        amb, b, shift, twist0 = s3_restricted
        assert twist0.order() == 3
        with pytest.raises(InputError):
            shift.order()

    def test_global_map_must_fix_tails(self):
        s3 = s3_group()
        b = frozenset({s3.index_of("e"), s3.index_of("s1")})
        amb = AmbientGroup(s3, 1, b, b)
        conj_t = s3.inner(s3.index_of("t"))
        # conjugation by the 3-cycle moves s1, so it breaks the tails
        with pytest.raises(InputError):
            ShiftAutomorphism(amb, d=1, global_map=conj_t)

    def test_twist_keys_validated(self, s3_restricted):
        amb, b, shift, twist0 = s3_restricted
        with pytest.raises(InputError):
            ShiftAutomorphism(amb, d=0, twists=(((0, 5), amb.fiber.identity_map()),))


# ---------------------------------------------------------------------------
# the doubled-index-set family


class TestDoubledIndexFamily:
    def test_shift_image_displayed(self, z2_setup):
        amb, u, a1, a2 = z2_setup
        img = apply(a1, u)
        assert (img.lo, img.hi) == (-1, 0)
        assert img.elements == frozenset({(0, 0), (0, 1)})
        assert img.left == frozenset({0})

    def test_swapped_shift_image_displayed(self, z2_setup):
        amb, u, a1, a2 = z2_setup
        img = apply(a2, u)
        assert (img.lo, img.hi) == (-1, 0)
        assert img.elements == frozenset({(0, 0), (1, 0)})

    def test_both_shifts_expand_u(self, z2_setup):
        amb, u, a1, a2 = z2_setup
        assert contains(apply(a1, u), u)
        assert contains(apply(a2, u), u)
        assert is_tidy(a1, u, 6)
        assert is_tidy(a2, u, 6)

    def test_gamma_fixes_no_shift(self, z2_setup):
        amb, u, a1, a2 = z2_setup
        gamma = a1.inverse().compose(a2)
        assert gamma.d == 0
        assert gamma.sigma == (1, 0)
        assert gamma.order() == 2

    def test_gamma_intersection_canonical(self, z2_setup):
        amb, u, a1, a2 = z2_setup
        gamma = a1.inverse().compose(a2)
        inter = meet(u, apply(gamma, u))
        assert (inter.lo, inter.hi) == (1, 1)
        assert inter.left == frozenset({0})
        assert inter.right == frozenset({0, 1})
        assert apply(gamma, inter) == inter
        assert displacement_index(gamma, inter) == 1

    def test_backward_part_is_trivial(self, z2_setup):
        amb, u, a1, a2 = z2_setup
        minus, stabilized = forward_part(a1.inverse(), u, 6)
        assert stabilized
        assert minus == _tails_only(amb, frozenset({0}), frozenset({0}))

    def test_period_two_march_is_certified(self, z2_setup):
        # the fiber swap makes the backward images march with period two;
        # the limit certificate must still land exactly
        amb, u, a1, a2 = z2_setup
        minus, stabilized = forward_part(a2.inverse(), u, 6)
        assert stabilized
        assert minus == _tails_only(amb, frozenset({0}), frozenset({0}))

    def test_t1_fails_at_u_for_gamma(self, z2_setup):
        amb, u, a1, a2 = z2_setup
        gamma = a1.inverse().compose(a2)
        rep = check_t1(gamma, u, 6)
        assert rep.stabilized and not rep.ok
        assert rep.witness == (0, 1)

    def test_tidying_gamma(self, z2_setup):
        amb, u, a1, a2 = z2_setup
        gamma = a1.inverse().compose(a2)
        trace = tidying_procedure(gamma, u, 6)
        inter = meet(u, apply(gamma, u))
        assert trace.result == inter
        assert trace.step1_complete and trace.k_exact
        assert trace.t1.ok and trace.t2.ok
        assert trace.scale == 1
        assert trace.minimal
        assert trace.trim_indices == (2, 1)

    def test_common_tidy_three_generators(self, z2_setup):
        amb, u, a1, a2 = z2_setup
        gamma = a1.inverse().compose(a2)
        res = common_tidy_iterative([a1, a2, gamma], u, 6)
        assert res.found and res.rounds == 2
        expected = meet(u, apply(gamma, u))
        assert res.subgroup == expected
        for g in (a1, a2, gamma):
            assert is_tidy(g, res.subgroup, 6)

    def test_single_generator_matches_procedure(self, z2_setup):
        amb, u, a1, a2 = z2_setup
        gamma = a1.inverse().compose(a2)
        res = common_tidy_iterative([gamma], u, 6)
        trace = tidying_procedure(gamma, u, 6)
        assert res.found and res.subgroup == trace.result

    def test_s3_fiber_same_story(self):
        fib = s3_group()
        amb = two_sided_ambient(fib)
        full = tuple(range(6))
        u = product_subgroup(amb, 0, 1, {(0, 1): full}, left={fib.identity})
        a1 = ShiftAutomorphism(amb, d=1)
        a2 = ShiftAutomorphism(amb, d=1, sigma=(1, 0))
        gamma = a1.inverse().compose(a2)
        _, ix = meet_index(apply(a1, u), u)
        assert ix == 36
        inter = meet(u, apply(gamma, u))
        assert (inter.lo, inter.hi) == (1, 1)
        assert apply(gamma, inter) == inter
        res = common_tidy_iterative([a1, a2, gamma], u, 6)
        assert res.found and res.subgroup == inter
        assert displacement_index(gamma, res.subgroup) == 1

    def test_conjugate_subgroup_tidy_for_conjugated_map(self, z2_setup):
        # images of a tidy subgroup under a commuting map stay tidy
        amb, u, a1, a2 = z2_setup
        for j in (-2, -1, 1, 2):
            moved = apply(a2.power(j), u)
            assert is_tidy(a1, moved, 6)

    def test_scales_multiply_at_common_tidy(self, z2_setup):
        # with a subgroup tidy for the whole commuting family, displacement
        # indices are multiplicative along products
        amb, u, a1, a2 = z2_setup
        gamma = a1.inverse().compose(a2)
        res = common_tidy_iterative([a1, a2, gamma], u, 6)
        v = res.subgroup
        for x, y in [(a1, a2), (a1, gamma), (a2, gamma)]:
            assert displacement_index(x.compose(y), v) == displacement_index(
                x, v
            ) * displacement_index(y, v)
            assert is_tidy(x.compose(y), v, 6)

    def test_prop_comparison_routes_agree(self, z2_setup):
        amb, u, a1, a2 = z2_setup
        gamma = a1.inverse().compose(a2)
        w_k, w_l, same = prop21_comparison(gamma, u, 6)
        assert same
        assert w_k == meet(u, apply(gamma, u))


# ---------------------------------------------------------------------------
# the non-normal-tail family


class TestNonNormalTailFamily:
    def test_k_of_shift_is_full_tail_product(self, s3_restricted):
        amb, b, shift, twist0 = s3_restricted
        g0 = _tails_only(amb, b, b)
        kpart, exact = k_subgroup(shift)
        assert exact and kpart == g0

    def test_shift_tidy_on_tail_product(self, s3_restricted):
        amb, b, shift, twist0 = s3_restricted
        g0 = _tails_only(amb, b, b)
        assert is_tidy(shift, g0, 6)
        assert displacement_index(shift, g0) == 1

    def test_local_twist_not_tidy_on_tail_product(self, s3_restricted):
        amb, b, shift, twist0 = s3_restricted
        g0 = _tails_only(amb, b, b)
        rep = check_t1(twist0, g0, 6)
        assert rep.stabilized and not rep.ok

    def test_t2_spike_witness(self, s3_restricted):
        amb, b, shift, twist0 = s3_restricted
        g1 = product_subgroup(amb, 0, 1, {}, left=b, right=b)
        rep = check_t2(shift, g1, 6)
        assert not rep.ok
        m, k, n, element = rep.witness
        assert (m, k, n) == (0, 1, 2)
        s1 = amb.fiber.index_of("s1")
        assert element == (amb.fiber.identity, s1, amb.fiber.identity)

    def test_tidying_shift_lands_on_tail_product(self, s3_restricted):
        amb, b, shift, twist0 = s3_restricted
        g0 = _tails_only(amb, b, b)
        g1 = product_subgroup(amb, 0, 1, {}, left=b, right=b)
        trace = tidying_procedure(shift, g1, 6)
        assert trace.result == g0
        assert trace.k_part == g0 and trace.k_exact
        assert trace.v_second == g1
        assert trace.t1.ok and trace.t2.ok
        assert trace.scale == 1 and trace.minimal

    def test_tidying_twist_lands_on_pinned_column(self, s3_restricted):
        amb, b, shift, twist0 = s3_restricted
        g0 = _tails_only(amb, b, b)
        g1 = product_subgroup(amb, 0, 1, {}, left=b, right=b)
        trace = tidying_procedure(twist0, g0, 6)
        assert trace.result == g1
        assert trace.scale == 1

    @pytest.mark.parametrize("depth", [4, 6, 8])
    def test_joint_search_exhausts(self, s3_restricted, depth):
        amb, b, shift, twist0 = s3_restricted
        g0 = _tails_only(amb, b, b)
        res = common_tidy_iterative([shift, twist0], g0, depth)
        assert not res.found
        assert "search exhausted" in res.report
        assert res.rounds == 2

    def test_column_stability_criterion(self, s3_restricted):
        # for product-form subgroups, tidiness for the local twist is
        # exactly stability of the pinned column under the 3-cycle
        amb, b, shift, twist0 = s3_restricted
        fib = amb.fiber
        e = fib.identity
        lattice = {
            "trivial": (e,),
            "s1": (e, fib.index_of("s1")),
            "s2": (e, fib.index_of("s2")),
            "s3": (e, fib.index_of("s3")),
            "rotations": (e, fib.index_of("t"), fib.index_of("t2")),
            "full": tuple(range(6)),
        }
        stable = {"trivial", "rotations", "full"}
        cases = [
            ("trivial", None),
            ("s1", None),
            ("s2", None),
            ("s3", None),
            ("rotations", None),
            ("full", None),
            ("trivial", "trivial"),
            ("rotations", "full"),
            ("full", "rotations"),
            ("s1", "rotations"),
        ]
        assert len(cases) == 10
        for pinned, beside in cases:
            cols = {(0, 0): lattice[pinned]}
            hi = 1
            if beside is not None:
                cols[(1, 0)] = lattice[beside]
                hi = 2
            sub = product_subgroup(amb, 0, hi, cols, left=b, right=b)
            assert is_tidy(twist0, sub, 6) == (pinned in stable)

    def test_moved_twist_needs_moved_column(self, s3_restricted):
        amb, b, shift, twist0 = s3_restricted
        fib = amb.fiber
        moved = shift.inverse().compose(twist0).compose(shift)
        assert moved.d == 0 and moved.twists[0][0] == (1, 0)
        rot = (fib.identity, fib.index_of("t"), fib.index_of("t2"))
        pinned_wrong = product_subgroup(amb, 0, 1, {(0, 0): rot}, left=b, right=b)
        pinned_right = product_subgroup(amb, 1, 2, {(1, 0): rot}, left=b, right=b)
        assert not is_tidy(moved, pinned_wrong, 6)
        assert is_tidy(moved, pinned_right, 6)


# ---------------------------------------------------------------------------
# the twisted-shift family


class TestTwistedShiftFamily:
    def test_twisted_image_displayed(self, order8_setup):
        amb, c, beta = order8_setup
        fib = amb.fiber
        u0 = _tails_only(amb, c, c)
        img = apply(beta, u0)
        assert (img.lo, img.hi) == (0, 1)
        assert img.elements == frozenset(
            {(fib.identity,), (fib.index_of("c2"),)}
        )
        assert img.left == c and img.right == c

    def test_k_is_trivial(self, order8_setup):
        amb, c, beta = order8_setup
        kpart, exact = k_subgroup(beta)
        assert exact
        assert kpart == _tails_only(
            amb, frozenset({amb.fiber.identity}), frozenset({amb.fiber.identity})
        )

    def test_forward_part_golden(self, order8_setup):
        amb, c, beta = order8_setup
        e = frozenset({amb.fiber.identity})
        u0 = _tails_only(amb, c, c)
        plus, ok = forward_part(beta, u0, 6)
        assert ok
        assert plus == WindowedSubgroup(amb, 1, 1, frozenset({()}), e, c)

    def test_backward_part_golden(self, order8_setup):
        amb, c, beta = order8_setup
        e = frozenset({amb.fiber.identity})
        u0 = _tails_only(amb, c, c)
        minus, ok = forward_part(beta.inverse(), u0, 6)
        assert ok
        assert minus == WindowedSubgroup(amb, 1, 1, frozenset({()}), c, e)

    def test_relative_indices(self, order8_setup):
        amb, c, beta = order8_setup
        u0 = _tails_only(amb, c, c)
        plus, _ = forward_part(beta, u0, 6)
        minus, _ = forward_part(beta.inverse(), u0, 6)
        assert displacement_index(beta, plus) == 2
        assert displacement_index(beta.inverse(), plus) == 1
        assert displacement_index(beta, minus) == 1
        assert displacement_index(beta.inverse(), minus) == 2

    def test_halves_multiply_back(self, order8_setup):
        amb, c, beta = order8_setup
        u0 = _tails_only(amb, c, c)
        plus, _ = forward_part(beta, u0, 6)
        minus, _ = forward_part(beta.inverse(), u0, 6)
        assert product_subgroup_of(plus, minus) == u0

    def test_tidy_with_scale_two(self, order8_setup):
        amb, c, beta = order8_setup
        u0 = _tails_only(amb, c, c)
        assert is_tidy(beta, u0, 6)
        assert displacement_index(beta, u0) == 2
        assert displacement_index(beta.inverse(), u0) == 2

    def test_tidying_preserves_tidy_input(self, order8_setup):
        amb, c, beta = order8_setup
        u0 = _tails_only(amb, c, c)
        trace = tidying_procedure(beta, u0, 6)
        assert trace.result == u0
        assert trace.scale == 2 and trace.minimal

    def test_pure_shift_scale_one(self, order8_setup):
        amb, c, beta = order8_setup
        u0 = _tails_only(amb, c, c)
        pure = ShiftAutomorphism(amb, d=1)
        assert is_tidy(pure, u0, 6)
        assert displacement_index(pure, u0) == 1
        assert displacement_index(pure.inverse(), u0) == 1


# ---------------------------------------------------------------------------
# the obstruction subgroup in comparison form


class TestLSubgroup:
    def test_finite_order_case_is_orbit_meet(self, z2_setup):
        amb, u, a1, a2 = z2_setup
        gamma = a1.inverse().compose(a2)
        lpart, exact = l_subgroup(gamma, u, 6)
        assert exact
        assert lpart == meet(u, apply(gamma, u))

    def test_cap_bounds_the_order(self, s3_restricted):
        # twist0 conjugates slot (0, 0) by a 3-cycle, so it has order 3
        amb, b, shift, twist0 = s3_restricted
        g1 = product_subgroup(amb, 0, 1, {}, left=b, right=b)
        with pytest.raises(ResourceCapError):
            l_subgroup(twist0, g1, 6, cap=2)
        lpart, exact = l_subgroup(twist0, g1, 6, cap=3)
        assert exact
        assert lpart == l_subgroup(twist0, g1, 6)[0]

    def test_shift_case_collects_tail_orbits(self, s3_restricted):
        amb, b, shift, twist0 = s3_restricted
        g1 = product_subgroup(amb, 0, 1, {}, left=b, right=b)
        lpart, exact = l_subgroup(shift, g1, 6)
        assert exact
        assert lpart == _tails_only(amb, b, b)


# ---------------------------------------------------------------------------
# the window closure check


def _closed_pairwise(fib, elements):
    """Reference: the check over all pairs of elements that the window
    constructor used before it checked through a generating set."""
    for x in elements:
        if tuple(fib.inv(v) for v in x) not in elements:
            return False
        for y in elements:
            if tuple(fib.mul(u, v) for u, v in zip(x, y)) not in elements:
                return False
    return True


def _span(fib, gens, identity):
    out = {identity}
    frontier = [identity]
    while frontier:
        grown = []
        for x in frontier:
            for g in gens:
                y = tuple(fib.mul(u, v) for u, v in zip(x, g))
                if y not in out:
                    out.add(y)
                    grown.append(y)
        frontier = grown
    return out


_FIBERS = {
    "c2": cyclic_group(2),
    "c3": cyclic_group(3),
    "s3": s3_group(),
    "order8": order8_group(),
}


@st.composite
def _window_sets(draw):
    """An element set holding the identity inside a window product of
    width 1-3: a random subset, a closure of random generators, or such a
    closure with one element removed or one added, or the product set of
    two cyclic subgroups."""
    fib = _FIBERS[draw(st.sampled_from(sorted(_FIBERS)))]
    width = draw(st.integers(1, 3))
    identity = (fib.identity,) * width
    point = st.tuples(*[st.integers(0, fib.order - 1)] * width)
    kind = draw(
        st.sampled_from(["subset", "closure", "removed", "added", "product"])
    )
    if kind == "subset":
        elements = {identity} | draw(st.sets(point, max_size=40))
    elif kind == "product":
        first = _span(fib, [draw(point)], identity)
        second = _span(fib, [draw(point)], identity)
        elements = {
            tuple(fib.mul(u, v) for u, v in zip(x, y))
            for x in first
            for y in second
        }
    else:
        gens = draw(st.lists(point, min_size=1, max_size=3))
        elements = _span(fib, gens, identity)
        if kind == "removed" and len(elements) > 1:
            elements.discard(
                draw(st.sampled_from(sorted(elements - {identity})))
            )
        elif kind == "added":
            elements.add(draw(point))
    return fib, frozenset(elements), identity


class TestClosureCheck:
    @settings(max_examples=200, deadline=None)
    @given(_window_sets())
    def test_matches_pairwise_check(self, case):
        fib, elements, identity = case
        assert _is_closed(fib, elements, identity) == _closed_pairwise(
            fib, elements
        )

    @pytest.mark.parametrize("name", sorted(_FIBERS))
    def test_every_width_one_subset(self, name):
        # products of two cyclic subgroups such as {e, s1, s2, s1 s2} in S3
        # pass a closure under the newest generator alone
        fib = _FIBERS[name]
        others = [(v,) for v in range(fib.order) if v != fib.identity]
        for k in range(len(others) + 1):
            for subset in itertools.combinations(others, k):
                elements = frozenset(((fib.identity,),) + subset)
                assert _is_closed(fib, elements, (fib.identity,)) == (
                    _closed_pairwise(fib, elements)
                )

    @pytest.mark.parametrize(
        "lo, hi, names, left, right, message",
        [
            (1, 0, [("e",)], "b", "b", "window bounds out of order"),
            (0, 1, [("e", "e")], "b", "b",
             "element length does not match the window"),
            (0, 1, [], "b", "b", "element set must contain the identity"),
            (0, 1, [("s1",)], "b", "b",
             "element set must contain the identity"),
            (0, 1, [("e",)], "t", "b", "tail constraints must be subgroups"),
            (0, 1, [("e",)], "all", "b",
             "tail constraints must refine the ambient tails"),
            (0, 1, [("e",), ("t",)], "b", "b",
             "element set not closed under inverse"),
            (0, 1, [("e",), ("s1",), ("s2",)], "b", "b",
             "element set not closed under product"),
        ],
    )
    def test_rejections_keep_message(self, s3_restricted, lo, hi, names,
                                     left, right, message):
        amb, b, shift, twist0 = s3_restricted
        fib = amb.fiber
        tails = {
            "b": b,
            "t": frozenset({fib.identity, fib.index_of("t")}),
            "all": frozenset(range(fib.order)),
        }
        elements = frozenset(
            tuple(fib.index_of(v) for v in x) for x in names
        )
        with pytest.raises(InputError) as info:
            WindowedSubgroup(amb, lo, hi, elements, tails[left], tails[right])
        assert str(info.value) == message

    def test_ceiling_rejection_keeps_message(self):
        fib = cyclic_group(2)
        amb = AmbientGroup(fib, 1, frozenset({0}), frozenset({0, 1}))
        elements = frozenset(itertools.product((0, 1), repeat=13))
        with pytest.raises(ResourceCapError) as info:
            WindowedSubgroup(amb, 0, 13, elements, {0}, {0})
        assert str(info.value) == (
            "enumeration needs 67108864 elements, cap is 50000000"
        )

    def test_four_column_s3_window(self, s3_restricted):
        amb, b, shift, twist0 = s3_restricted
        full = tuple(range(6))
        cols = {(n, 0): full for n in range(4)}
        w = product_subgroup(amb, 0, 4, cols)
        assert (w.lo, w.hi) == (0, 4)
        assert len(w.elements) == 1296
        assert all(w.column(n) == (frozenset(full),) for n in range(4))
        # with a full right tail every column strips away
        fib = amb.fiber
        e = frozenset({fib.identity})
        open_right = AmbientGroup(fib, 1, e, frozenset(full))
        stripped = product_subgroup(open_right, 0, 4, cols)
        assert stripped == WindowedSubgroup(
            open_right, 0, 0, frozenset({()}), e, frozenset(full)
        )
