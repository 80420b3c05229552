"""Invariants layer across the three backends.

The worked families pin down every reported quantity: relative scale
records, rank and corank, the functional set with its hull statistics,
separating functionals, the cross-check suite, and the normalizer action.
A deliberately corrupted record list doubles as a negative control for
the suite itself.
"""

import itertools
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from conftest import random_unimodular, seeded_rng
from hypothesis import given, settings
from hypothesis import strategies as st

from tidyscale import finprod as fp
from tidyscale import invariants as inv
from tidyscale import padic as pd
from tidyscale.errors import (
    InputError,
    NormalizationError,
    SlopeSeparabilityError,
    UnsupportedInputError,
)
from tidyscale.exactmath import IntegerMatrix, smith_invariants
from tidyscale.invariants import (
    DiagonalBackend,
    EigenfactorRecord,
    PatternBackend,
    WindowedBackend,
    exponents_word,
    full_report,
    m_set,
    rank_corank,
    records_matrix,
    relative_scale_table,
    separation_sequence,
    verify_suite,
    weyl_action,
    word_exponents,
)

F = Fraction


# ---------------------------------------------------------------------------
# shared backends, built once


@pytest.fixture(scope="module")
def three_slot():
    g1 = pd.PAdicAutomorphism(((F(1, 3), 0, 0), (0, 1, 0), (0, 0, 1)), 3)
    g2 = pd.PAdicAutomorphism(((1, 0, 0), (0, F(1, 3), 0), (0, 0, 1)), 3)
    backend = DiagonalBackend([g1, g2])
    return backend, full_report(backend)


@pytest.fixture(scope="module")
def four_slot():
    g1 = pd.PAdicAutomorphism(
        ((F(1, 3), 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, F(1, 3))), 3
    )
    g2 = pd.PAdicAutomorphism(
        ((1, 0, 0, 0), (0, F(1, 3), 0, 0), (0, 0, 1, 0), (0, 0, 0, F(1, 3))), 3
    )
    backend = DiagonalBackend([g1, g2])
    return backend, full_report(backend)


@pytest.fixture(scope="module")
def pattern3():
    backend = PatternBackend(3, 2)
    return backend, full_report(backend)


@pytest.fixture(scope="module")
def twisted_shift():
    fib = fp.order8_group()
    c = frozenset({fib.identity, fib.index_of("c1")})
    amb = fp.AmbientGroup(fib, 1, c, c)
    beta = fp.ShiftAutomorphism(
        amb, d=1, twists=(((0, 0), fib.inner(fib.index_of("a"))),)
    )
    backend = WindowedBackend([beta], fp._tails_only(amb, c, c), depth=6)
    return backend, full_report(backend)


@pytest.fixture(scope="module")
def doubled_family():
    fib = fp.cyclic_group(2)
    amb = fp.AmbientGroup(fib, 2, frozenset({fib.identity}), frozenset({0, 1}))
    u = fp.product_subgroup(amb, 0, 1, {(0, 1): (0, 1)}, left={fib.identity})
    a1 = fp.ShiftAutomorphism(amb, d=1)
    a2 = fp.ShiftAutomorphism(amb, d=1, sigma=(1, 0))
    gamma = a1.inverse().compose(a2)
    w = fp.meet(u, fp.apply(gamma, u))
    return a1, a2, gamma, w


# ---------------------------------------------------------------------------
# word encoding


class TestWords:
    def test_exponents(self):
        assert word_exponents((1, -2, 1), 2) == (2, -1)

    def test_round_trip(self):
        vec = (2, 0, -3)
        assert word_exponents(exponents_word(vec), 3) == vec

    def test_bad_letter(self):
        with pytest.raises(InputError):
            word_exponents((0,), 2)
        with pytest.raises(InputError):
            word_exponents((3,), 2)


# ---------------------------------------------------------------------------
# the diagonal family on three and four slots


class TestDiagonalFamily:
    def test_records(self, three_slot):
        _, rep = three_slot
        assert rep.factor_number == 2
        assert [(r.t, r.rho) for r in rep.records] == [(3, (1, 0)), (3, (0, 1))]
        assert all(r.complete for r in rep.records)

    def test_functional_set_matches_support(self, three_slot):
        # the two moving directions are exactly the nonzero support points
        _, rep = three_slot
        assert set(rep.m_points) == {(1, 0), (0, 1)}
        assert rep.rank == 2
        assert (rep.corank_free, rep.corank_torsion) == (0, ())

    def test_delta_strings(self, three_slot):
        _, rep = three_slot
        assert rep.records[0].delta == "3^(x1)"
        assert rep.records[1].delta == "3^(x2)"

    def test_four_slot_records(self, four_slot):
        _, rep = four_slot
        assert rep.factor_number == 3
        assert {r.rho for r in rep.records} == {(1, 0), (0, 1), (1, 1)}
        assert all(r.t == 3 for r in rep.records)

    def test_four_slot_functional_set(self, four_slot):
        _, rep = four_slot
        assert set(rep.m_points) == {(1, 0), (0, 1), (1, 1)}
        assert rep.extreme_count == 3

    def test_four_slot_corank(self, four_slot):
        # three records over two generators leave a free line
        _, rep = four_slot
        assert rep.rank == 2
        assert (rep.corank_free, rep.corank_torsion) == (1, ())

    def test_suite_passes(self, three_slot, four_slot):
        for backend, rep in (three_slot, four_slot):
            report = verify_suite(backend, rep.records)
            assert report.ok, report.failures()

    def test_weyl_swap(self, three_slot):
        backend, rep = three_slot
        swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
        action = weyl_action(backend, rep.records, swap)
        a, b = [r.identifier for r in rep.records]
        assert action == {a: b, b: a}

    def test_weyl_identity(self, three_slot):
        backend, rep = three_slot
        eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        action = weyl_action(backend, rep.records, eye)
        assert all(k == v for k, v in action.items())

    def test_weyl_rejects_shear(self, three_slot):
        backend, rep = three_slot
        shear = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
        with pytest.raises(NormalizationError):
            weyl_action(backend, rep.records, shear)

    def test_weyl_rejects_external_swap(self, three_slot):
        # swapping a moving slot with the inert one leaves the family
        backend, rep = three_slot
        swap = ((1, 0, 0), (0, 0, 1), (0, 1, 0))
        with pytest.raises(NormalizationError):
            weyl_action(backend, rep.records, swap)


class TestLazyDiagonalBackend:
    def test_scales_and_modules_need_no_tidy_lattice(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a tidy lattice was built")

        monkeypatch.setattr(pd, "step1_tidy", refuse)
        monkeypatch.setattr(pd, "common_tidy", refuse)
        g1 = pd.PAdicAutomorphism(((F(1, 3), 0, 0), (0, 1, 0), (0, 0, 9)), 3)
        g2 = pd.PAdicAutomorphism(((1, 0, 0), (0, F(1, 3), 0), (0, 0, 1)), 3)
        pair = DiagonalBackend([g1, g2])
        assert pair.scale_pair((1,)) == (3, 9)
        assert pair.scale_pair((1, -2)) == (3, 27)
        assert pair.modular_ratio((1,)) == F(1, 3)
        assert pair.modular_ratio((1, -2)) == F(1, 9)
        single = DiagonalBackend([g1])
        assert single.scale_pair((-1,)) == (9, 3)
        assert single.modular_ratio((-1,)) == 3

    def test_tidy_lattice_built_once_on_first_use(self, monkeypatch):
        built = []
        original = pd.common_tidy

        def counted(gens):
            built.append(len(gens))
            return original(gens)

        monkeypatch.setattr(pd, "common_tidy", counted)
        g1 = pd.PAdicAutomorphism(((F(1, 3), 0, 0), (0, 1, 0), (0, 0, 1)), 3)
        g2 = pd.PAdicAutomorphism(((1, 0, 0), (0, F(1, 3), 0), (0, 0, 1)), 3)
        backend = DiagonalBackend([g1, g2])
        assert built == []
        assert len(backend.eigenfactors()) == 2
        assert backend.inert_summary() == "inert sublattice of rank 1"
        assert backend.tidy == pd.Lattice.standard(3, 3)
        assert built == [2]

    def test_validation_stays_eager(self):
        swap = pd.PAdicAutomorphism(((0, 1), (3, 0)), 3)
        diag = pd.PAdicAutomorphism(((F(1, 3), 0), (0, 3)), 3)
        with pytest.raises(UnsupportedInputError):
            DiagonalBackend([swap, diag])
        mixed = pd.PAdicAutomorphism(((0, 1), (-3, 10)), 3)
        with pytest.raises(SlopeSeparabilityError):
            DiagonalBackend([mixed])

    def test_words_cached_by_exponent_vector(self, three_slot):
        backend, _ = three_slot
        a = backend.automorphism((1, -2, 1))
        assert backend.automorphism((-2, 1, 1)) is a
        g1, g2 = backend.generators
        assert a == g1.compose(g1).compose(g2.inverse())
        assert backend.automorphism(()) == g1.power(0)


# ---------------------------------------------------------------------------
# the valuation pattern family


class TestPatternFamily:
    def test_six_records(self, pattern3):
        _, rep = pattern3
        assert rep.factor_number == 6
        assert all(r.t == 2 for r in rep.records)
        assert {r.rho for r in rep.records} == {
            (-1, 1, 0),
            (1, -1, 0),
            (-1, 0, 1),
            (1, 0, -1),
            (0, -1, 1),
            (0, 1, -1),
        }

    def test_rank_and_corank(self, pattern3):
        _, rep = pattern3
        assert rep.rank == 2
        assert (rep.corank_free, rep.corank_torsion) == (4, ())

    def test_hexagon(self, pattern3):
        # six functionals on a rank-two plane form a hexagon of area three
        _, rep = pattern3
        assert rep.extreme_count == 6
        assert rep.doubled_area == 6
        assert len(set(rep.m_points)) == 6

    def test_separation_has_at_most_three(self, pattern3):
        _, rep = pattern3
        assert 1 <= len(rep.separation) <= 3

    def test_suite_passes(self, pattern3):
        backend, rep = pattern3
        report = verify_suite(backend, rep.records)
        assert report.ok, report.failures()

    @pytest.mark.parametrize("p", [0, 1, 4, 9, -3])
    def test_prime_checked(self, p):
        with pytest.raises(InputError, match="is not a prime"):
            PatternBackend(3, p)

    def test_center_word_fixes(self, pattern3):
        # the common kernel of every functional stabilizes the block
        backend, _ = pattern3
        assert backend.fixes_tidy((1, 2, 3))
        assert not backend.fixes_tidy((1,))
        assert not backend.fixes_tidy((1, 2))

    def test_weyl_transposition(self, pattern3):
        backend, rep = pattern3
        action = weyl_action(backend, rep.records, (1, 0, 2))
        assert action["root(1,2)"] == "root(2,1)"
        assert action["root(2,1)"] == "root(1,2)"
        assert action["root(1,3)"] == "root(2,3)"
        assert action["root(3,1)"] == "root(3,2)"

    def test_weyl_three_cycle_has_no_fixed_point(self, pattern3):
        backend, rep = pattern3
        action = weyl_action(backend, rep.records, (1, 2, 0))
        assert all(k != v for k, v in action.items())

    def test_weyl_rejects_non_permutation(self, pattern3):
        backend, rep = pattern3
        with pytest.raises(NormalizationError):
            weyl_action(backend, rep.records, (0, 0, 1))

    def test_basis_change_preserves_hull(self, pattern3):
        backend, rep = pattern3
        records = list(rep.records)
        rng = seeded_rng(97)
        for _ in range(5):
            change = [
                [int(x) for x in row] for row in random_unimodular(rng, 2)
            ]
            moved = m_set(records, backend.generator_count, basis_change=change)
            assert moved.extreme_count == 6
            assert moved.doubled_area == 6
            assert len(set(moved.points)) == 6

    def test_basis_change_must_be_unimodular(self, pattern3):
        backend, rep = pattern3
        with pytest.raises(InputError):
            m_set(list(rep.records), 3, basis_change=[[2, 0], [0, 1]])
        with pytest.raises(InputError):
            m_set(list(rep.records), 3, basis_change=[[1, 0, 0], [0, 1, 0]])


# ---------------------------------------------------------------------------
# the restricted product families


class TestWindowedFamily:
    def test_two_records(self, twisted_shift):
        _, rep = twisted_shift
        assert rep.factor_number == 2
        assert [(r.t, r.rho) for r in rep.records] == [(2, (1,)), (2, (-1,))]

    def test_rank_and_corank(self, twisted_shift):
        # two opposite records over one generator: a free line survives
        _, rep = twisted_shift
        assert rep.rank == 1
        assert (rep.corank_free, rep.corank_torsion) == (1, ())

    def test_functional_points(self, twisted_shift):
        _, rep = twisted_shift
        assert set(rep.m_points) == {(1,), (-1,)}
        assert rep.separation == ((1,),)

    def test_suite_passes(self, twisted_shift):
        backend, rep = twisted_shift
        report = verify_suite(backend, rep.records)
        assert report.ok, report.failures()

    def test_conjugation_unsupported(self, twisted_shift):
        backend, rep = twisted_shift
        with pytest.raises(UnsupportedInputError):
            weyl_action(backend, rep.records, None)

    def test_empty_table_at_invariant_subgroup(self, doubled_family):
        # the swap fixes the common tidy subgroup, so nothing is displaced
        a1, a2, gamma, w = doubled_family
        backend = WindowedBackend([gamma], w, depth=6)
        rep = full_report(backend)
        assert rep.factor_number == 0
        assert rep.records == ()
        assert (rep.rank, rep.corank_free) == (0, 0)
        assert rep.m_points == ()
        suite = verify_suite(backend, rep.records)
        assert suite.ok, suite.failures()

    def test_doubled_pair_collapses_to_one_record(self, doubled_family):
        # both shifts displace the same forward part by four, and the
        # backward limit is fully invariant, so one record carries the pair
        a1, a2, gamma, w = doubled_family
        backend = WindowedBackend([a1, a2], w, depth=6)
        rep = full_report(backend)
        assert rep.factor_number == 1
        assert rep.records[0].t == 4
        assert rep.records[0].rho == (1, 1)
        assert rep.rank == 1
        assert (rep.corank_free, rep.corank_torsion) == (0, ())
        suite = verify_suite(backend, rep.records)
        assert suite.ok, suite.failures()

    def test_unstabilized_forward_part_is_reported(self, doubled_family):
        a1, a2, gamma, w = doubled_family
        backend = WindowedBackend([a1], w, depth=0)
        with pytest.raises(InputError):
            backend.eigenfactors()


# ---------------------------------------------------------------------------
# table mechanics on synthetic backends


class _StubBackend:
    """Fixed-response backend for exercising table edge cases."""

    def __init__(self, pairs_by_factor):
        self.pairs = pairs_by_factor
        self.generator_count = len(next(iter(pairs_by_factor.values())))

    def eigenfactors(self):
        return [(name, name) for name in self.pairs]

    def relative_pair(self, handle, word):
        return self.pairs[handle][abs(word[0]) - 1]


class TestTableMechanics:
    def test_incomplete_flag_depends_on_word_length(self):
        # indices 3^4 and 3^6 share base 9 with gcd exponent 2, which no
        # single generator attains
        g1 = pd.PAdicAutomorphism(((F(1, 81), 0), (0, 1)), 3)
        g2 = pd.PAdicAutomorphism(((F(1, 729), 0), (0, 1)), 3)
        backend = DiagonalBackend([g1, g2])
        short = relative_scale_table(backend, word_length=1)
        assert [(r.t, r.rho, r.complete) for r in short] == [(9, (2, 3), False)]
        long = relative_scale_table(backend, word_length=2)
        assert [(r.t, r.rho, r.complete) for r in long] == [(9, (2, 3), True)]

    def test_two_sided_displacement_rejected(self):
        stub = _StubBackend({"bad": [(2, 2)]})
        with pytest.raises(InputError):
            relative_scale_table(stub)

    def test_mixed_bases_rejected(self):
        stub = _StubBackend({"bad": [(4, 1), (1, 9)]})
        with pytest.raises(InputError):
            relative_scale_table(stub)

    def test_silent_factor_skipped(self):
        stub = _StubBackend({"still": [(1, 1), (1, 1)], "moves": [(2, 1), (1, 2)]})
        table = relative_scale_table(stub)
        assert [r.identifier for r in table] == ["moves"]
        assert table[0].rho == (1, -1)

    def test_empty_rank_corank(self):
        assert rank_corank([], 3) == (0, 0, ())


# ---------------------------------------------------------------------------
# geometry helpers


def _fake_records(rhos, t=2):
    return [
        EigenfactorRecord(
            identifier=f"r{k}", handle=None, t=t, rho=tuple(v),
            delta="", complete=True,
        )
        for k, v in enumerate(rhos)
    ]


class TestGeometry:
    def test_separation_golden(self):
        assert separation_sequence([(1, 0), (0, 1)]) == [(1, -1)]

    def test_separation_trivial_cases(self):
        assert separation_sequence([]) == []
        assert separation_sequence([(2, 5)]) == []
        assert separation_sequence([(1, 1), (1, 1)]) == []

    def test_high_rank_hull_omitted(self):
        rhos = [tuple(int(i == j) for j in range(5)) for i in range(5)]
        mset = m_set(_fake_records(rhos), 5)
        assert mset.extreme_count is None
        assert "rank exceeds 4" in mset.notice
        assert len(mset.points) == 5

    def test_collinear_points_have_two_extremes(self):
        mset = m_set(_fake_records([(1, 1), (2, 2), (3, 3)]), 2)
        # saturated line basis makes these one-dimensional
        assert mset.points == ((1,), (2,), (3,))
        assert set(mset.extreme_points) == {(1,), (3,)}
        assert mset.doubled_area == 0

    def test_saturation_keeps_coordinates_primitive(self):
        # a single doubled functional must read as two, not one
        mset = m_set(_fake_records([(2, 4)]), 2)
        assert mset.points == ((2,),)

    def test_m_set_basis_is_reduced(self):
        # reducing above the pivots from the last one up would leave
        # (1, 0, -114, 360) as the first row
        records = _fake_records([(1, 1, 0, -2), (-2, -3, 3, -3), (-2, 3, -2, -2)])
        basis = inv._saturated_row_basis(records_matrix(records))
        assert basis == [(1, 0, 3, -9), (0, 1, 10, -34), (0, 0, 13, -41)]
        assert m_set(records, 4).points == ((1, 1, -1), (-2, -3, 3), (-2, 3, -2))

    def test_coordinate_errors(self):
        with pytest.raises(InputError, match="functional lies outside the basis span"):
            inv._coordinates((1, 0), [(0, 1)])
        with pytest.raises(InputError, match="non-integer coordinate over the saturated basis"):
            inv._coordinates((1, 1), [(2, 0), (0, 1)])

    def test_zero_point_rejected(self):
        with pytest.raises(InputError):
            separation_sequence([(0, 0), (1, 0)])

    def test_shared_ray_rejected(self):
        # signs only see directions, and table functionals are primitive
        with pytest.raises(InputError):
            separation_sequence([(1, 0), (2, 0)])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-4, max_value=4),
                st.integers(min_value=-4, max_value=4),
            ).filter(any),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    def test_separation_separates(self, raw):
        from math import gcd

        pts, seen = [], set()
        for q in raw:
            scale = gcd(abs(q[0]), abs(q[1]))
            d = (q[0] // scale, q[1] // scale)
            if d not in seen:
                seen.add(d)
                pts.append(q)
        seq = separation_sequence(pts)
        for x in seq:
            assert any(x)
            for q in set(pts):
                assert sum(a * b for a, b in zip(q, x)) != 0
        signatures = {}
        for q in set(pts):
            sig = tuple(
                1 if sum(a * b for a, b in zip(q, x)) > 0 else -1 for x in seq
            )
            assert sig not in signatures, (q, signatures[sig])
            signatures[sig] = q


# ---------------------------------------------------------------------------
# suite integrity: corrupted records must be caught


class TestSuiteIntegrity:
    def test_tampered_base_fails(self, pattern3):
        backend, rep = pattern3
        bad = [replace(rep.records[0], t=4)] + list(rep.records[1:])
        report = verify_suite(backend, bad)
        failed = {c.name for c in report.failures()}
        assert "delta-power-law" in failed
        assert "pure-pair-law" in failed

    def test_wrong_closed_form_fails_fixer_tidy(self, pattern3, monkeypatch):
        # the certificate measures the displacement through the conjugate,
        # so a wrong closed form cannot certify itself
        from tidyscale import torus as tr

        right = tr.displacement_exponent
        monkeypatch.setattr(
            tr, "displacement_exponent", lambda u, a: right(u, a) + 1
        )
        backend, rep = pattern3
        report = verify_suite(backend, rep.records)
        failed = {c.name for c in report.failures()}
        assert "product-with-fixer-tidy" in failed

    def test_tampered_functional_fails(self, pattern3):
        backend, rep = pattern3
        bad = [replace(rep.records[0], rho=(1, 1, -2))] + list(rep.records[1:])
        report = verify_suite(backend, bad)
        failed = {c.name for c in report.failures()}
        assert "scale-factorizes" in failed

    def test_dropped_record_fails(self, twisted_shift):
        backend, rep = twisted_shift
        report = verify_suite(backend, [rep.records[1]])
        failed = {c.name for c in report.failures()}
        assert "scale-factorizes" in failed

    def test_check_order_is_stable(self, twisted_shift):
        backend, rep = twisted_shift
        names = [c.name for c in verify_suite(backend, rep.records).checks]
        assert names == [
            "invariant-iff-scale-one",
            "power-multiplicativity",
            "modular-ratio",
            "plus-index-independence",
            "parts-of-image",
            "commutators-fix",
            "torsion-free-quotient",
            "product-with-fixer-tidy",
            "scale-factorizes",
            "stabilizer-kernel",
            "delta-power-law",
            "pure-pair-law",
            "rho-additive",
        ]


class _CountingPairs:
    """Forwards to a backend and counts relative_pair by (handle, word)."""

    def __init__(self, backend):
        self._backend = backend
        self.asked = Counter()

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def relative_pair(self, handle, word):
        self.asked[id(handle), word] += 1
        return self._backend.relative_pair(handle, word)


def _words(g, max_length):
    letters = list(range(1, g + 1)) + [-i for i in range(1, g + 1)]
    return [
        w
        for length in range(1, max_length + 1)
        for w in itertools.product(letters, repeat=length)
    ]


class TestSuiteComputesPairsOnce:
    @pytest.mark.parametrize("family", ["pattern3", "three_slot"])
    def test_each_pair_asked_once(self, family, request):
        backend, rep = request.getfixturevalue(family)
        counting = _CountingPairs(backend)
        report = verify_suite(counting, rep.records, identity_length=2)
        assert report.ok, report.failures()
        assert max(counting.asked.values()) == 1
        # every check still sees every (record, word) it evaluates
        wanted = {
            (id(rec.handle), w)
            for rec in rep.records
            for w in _words(backend.generator_count, 2)
        }
        assert wanted <= set(counting.asked)

    def test_tampered_records_still_fail_with_cache(self, pattern3):
        backend, rep = pattern3
        counting = _CountingPairs(backend)
        bad = [replace(rep.records[0], t=4)] + list(rep.records[1:])
        report = verify_suite(counting, bad)
        failed = {c.name for c in report.failures()}
        assert {"delta-power-law", "pure-pair-law"} <= failed
        assert max(counting.asked.values()) == 1


def _adjoint_family(n, p, weights):
    """diag(p^w) acting by conjugation on the off-diagonal coordinates of
    n x n matrices: coordinate (i, j) is multiplied by p^(w_i - w_j)."""
    roots = [(i, j) for i in range(n) for j in range(n) if i != j]
    size = len(roots)
    gens = []
    for w in weights:
        diag = [F(p) ** (w[i] - w[j]) for i, j in roots]
        gens.append(
            pd.PAdicAutomorphism(
                tuple(
                    tuple(diag[a] if a == b else 0 for b in range(size))
                    for a in range(size)
                ),
                p,
            )
        )
    return DiagonalBackend(gens)


def _t_by_rho(records):
    out = {}
    for rec in records:
        out[rec.rho] = out.get(rec.rho, 1) * rec.t
    return out


class TestCrossBackendOracle:
    """The torus backend against the diagonal backend on the adjoint
    representation.  The diagonal backend merges coordinates on a common
    ray into one eigenfactor, while the torus backend keeps one record per
    root, so the tables agree as a multiset when the roots lie on distinct
    rays and, in general, as the product of t over each rho."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([2, 3, 4]).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sampled_from([2, 3, 5]),
                st.lists(
                    st.lists(
                        st.integers(min_value=-2, max_value=2),
                        min_size=n,
                        max_size=n,
                    ),
                    min_size=1,
                    max_size=2,
                ),
            )
        )
    )
    def test_root_records_match_adjoint_family(self, drawn):
        n, p, weights = drawn
        torus = relative_scale_table(PatternBackend(n, p, weights))
        adjoint = relative_scale_table(_adjoint_family(n, p, weights))
        assert _t_by_rho(torus) == _t_by_rho(adjoint)
        if len({rec.rho for rec in torus}) == len(torus):
            assert sorted((r.t, r.rho) for r in torus) == sorted(
                (r.t, r.rho) for r in adjoint
            )

    def test_shared_ray_merges_in_the_adjoint_family(self):
        # roots (1,2) and (2,3) of diag(1, p, p^2) share the ray rho = 1
        torus = relative_scale_table(PatternBackend(3, 2, [(0, 1, 2)]))
        adjoint = relative_scale_table(_adjoint_family(3, 2, [(0, 1, 2)]))
        assert sorted(r.t for r in torus if r.rho == (1,)) == [2, 2, 4]
        assert [r.t for r in adjoint if r.rho == (1,)] == [16]


# ---------------------------------------------------------------------------
# randomized diagonal families


class TestRandomFamilies:
    def test_random_diagonal_pairs_verify(self):
        rng = seeded_rng(331)
        for trial in range(6):
            p = rng.choice([2, 3, 5])
            n = rng.choice([2, 3])
            mats = []
            for _ in range(2):
                diag = [F(p) ** rng.randint(-2, 2) for _ in range(n)]
                mats.append(
                    pd.PAdicAutomorphism(
                        tuple(
                            tuple(diag[i] if i == j else 0 for j in range(n))
                            for i in range(n)
                        ),
                        p,
                    )
                )
            backend = DiagonalBackend(mats)
            records = relative_scale_table(backend)
            report = verify_suite(
                backend, records, sample_length=2, identity_length=2
            )
            assert report.ok, (trial, report.failures())

    def test_random_pattern_sizes_verify(self):
        for n, p in ((2, 3), (3, 5)):
            backend = PatternBackend(n, p)
            rep = full_report(backend)
            assert rep.factor_number == n * (n - 1)
            assert rep.rank == n - 1
            report = verify_suite(backend, rep.records, identity_length=2)
            assert report.ok, report.failures()


@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=4, max_size=4), min_size=1, max_size=4
    ),
    st.integers(1, 4),
)
@settings(max_examples=100, deadline=None)
def test_saturated_row_basis_is_canonical(rows, width):
    rows = [row[:width] for row in rows]
    if not any(any(row) for row in rows):
        return
    mat = IntegerMatrix(tuple(map(tuple, rows)))
    basis = inv._saturated_row_basis(mat)
    leads = [next(c for c, x in enumerate(row) if x) for row in basis]
    assert leads == sorted(set(leads))
    for i, (row, c) in enumerate(zip(basis, leads)):
        assert row[c] > 0
        assert all(0 <= above[c] < row[c] for above in basis[:i])
    assert inv._saturated_row_basis(IntegerMatrix(tuple(basis))) == basis
    # the rows have integer coordinates, and the basis has the rank of mat
    for row in rows:
        inv._coordinates(row, basis)
    assert len(basis) == smith_invariants(mat)[0]


@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=1, max_size=3
    ),
    st.integers(1, 3),
    st.lists(st.integers(-4, 4), min_size=3, max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_integer_combination_matches_exhaustive_search(rows, width, target):
    rows = [row[:width] for row in rows]
    target = target[:width]

    def combine(c):
        return [sum(ci * row[k] for ci, row in zip(c, rows)) for k in range(width)]

    box = itertools.product(range(-4, 5), repeat=len(rows))
    found = next((c for c in box if combine(c) == target), None)
    got = inv._solve_integer_combination(rows, target)
    if got is None:
        assert found is None
    else:
        assert len(got) == len(rows) and combine(got) == target
    if found is not None:
        assert got is not None
