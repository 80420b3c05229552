"""Group-of-automorphisms invariants over interchangeable backends.

Everything here works through a small backend protocol, so the same
functions serve diagonalizable p-adic families, valuation-pattern torus
actions, and restricted-product shift groups.  A backend exposes:

  generator_count            number of generators of the acting group
  eigenfactors()             [(identifier, handle)] in a fixed order
  relative_pair(handle, w)   ([w(V) : w(V) n V], [w^-1(V) : w^-1(V) n V])
  scale_pair(w)              (s(w), s(w^-1)) by an independent route
  modular_ratio(w)           the measure distortion of w, as a Fraction,
                             computed without reference to tidy subgroups
  fixes_tidy(w)              whether w maps the base tidy subgroup onto itself
  word_tidy_at(w)            whether the base subgroup is tidy for w
  forward_index_samples(w)   [w(V+) : V+] over at least two tidy subgroups
  parts_commute(w)           whether w(U_{w+}) equals (w(U))_{w+}
  conjugation_matrix(b)      integer matrix of g_j -> b g_j b^-1 over the
                             generator basis (optional)

Words are tuples of signed 1-based generator indices; (1, -2) means the
first generator followed by the inverse of the second.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import (
    InputError,
    NormalizationError,
    UnsupportedInputError,
)
from .exactmath import (
    IntegerMatrix,
    _gauss_jordan,
    cokernel,
    hermite_form,
    hermite_form_with_transform,
    is_prime,
    kernel_basis,
    padic_valuation,
    smith_invariants,
)
from . import finprod as _fp
from . import padic as _pd
from . import torus as _tr

DEFAULT_WORD_LENGTH = 6


def word_exponents(word, generator_count):
    """Net exponent vector of a word over the generator basis."""
    out = [0] * generator_count
    for letter in word:
        i = abs(letter)
        if letter == 0 or i > generator_count:
            raise InputError(f"letter {letter!r} outside the generator range")
        out[i - 1] += 1 if letter > 0 else -1
    return tuple(out)


def exponents_word(vector):
    """A word realizing the given exponent vector (generators commute)."""
    out = []
    for i, c in enumerate(vector, start=1):
        out.extend([i if c > 0 else -i] * abs(c))
    return tuple(out)


# ---------------------------------------------------------------------------
# backends


class DiagonalBackend:
    """Commuting p-adic matrix family acting on its common tidy lattice."""

    def __init__(self, generators, tidy=None):
        gens = list(generators)
        if not gens:
            raise InputError("at least one generator required")
        _pd._check_family(gens)
        self.generators = gens
        self.prime = gens[0].prime
        # The tidy lattice and the eigenfactors are built on first use:
        # scales and modules are read off characteristic polynomials alone.
        self._tidy = tidy
        self._eigen = None
        # Word automorphisms by exponent vector; exact because the family
        # was checked to commute.
        self._words = {}

    @property
    def generator_count(self):
        return len(self.generators)

    @property
    def tidy(self):
        if self._tidy is None:
            gens = self.generators
            self._tidy = (
                _pd.common_tidy(gens)
                if len(gens) > 1
                else _pd.step1_tidy(gens[0])
            )
        return self._tidy

    def _eigenfactor_data(self):
        """(records, inert) of the family at the tidy lattice."""
        if self._eigen is None:
            self._eigen = _pd.family_eigenfactors(self.generators, self.tidy)
        return self._eigen

    def automorphism(self, word):
        exps = word_exponents(word, self.generator_count)
        if exps not in self._words:
            self._words[exps] = _pd.word(self.generators, exps)
        return self._words[exps]

    def eigenfactors(self):
        return [(rec.key, rec) for rec in self._eigenfactor_data()[0]]

    def inert_summary(self):
        rank = self._eigenfactor_data()[1].rank
        return f"inert sublattice of rank {rank}" if rank else None

    def relative_pair(self, handle, word):
        a = self.automorphism(word)
        p = self.prime
        return (
            p ** _pd.expansion_exponent(a, handle.lattice),
            p ** _pd.expansion_exponent(a.inverse(), handle.lattice),
        )

    def scale_pair(self, word):
        a = self.automorphism(word)
        return _pd.scale(a), _pd.scale(a.inverse())

    def modular_ratio(self, word):
        # the module of a linear map is the reciprocal p-power of its
        # determinant valuation; no lattice enters
        a = self.automorphism(word)
        v = padic_valuation(a.det(), self.prime)
        return Fraction(self.prime) ** (-v)

    def fixes_tidy(self, word):
        return _pd.is_invariant(self.automorphism(word), self.tidy)

    def word_tidy_at(self, word):
        a = self.automorphism(word)
        return _pd.expansion_index(a, self.tidy) == _pd.scale(a)

    def forward_index_samples(self, word):
        a = self.automorphism(word)
        first = self.tidy
        second = first.intersect(first.image(a.matrix))
        out = []
        for lat in (first, second):
            plus = _pd.parts(a, lat)[0]
            out.append(_pd.expansion_index(a, plus))
        return out

    def parts_commute(self, word):
        a = self.automorphism(word)
        img = self.tidy.image(a.matrix)
        return _pd.parts(a, img)[0] == _pd.parts(a, self.tidy)[0].image(a.matrix)

    def conjugation_matrix(self, element):
        beta = _pd.PAdicAutomorphism(element, self.prime)
        gen_vals = []
        for g in self.generators:
            if any(
                g.matrix[i][j] != 0
                for i in range(g.dimension)
                for j in range(g.dimension)
                if i != j
            ):
                raise UnsupportedInputError(
                    "normalizer action needs diagonal generators"
                )
            gen_vals.append(
                [padic_valuation(g.matrix[i][i], self.prime) for i in range(g.dimension)]
            )
        columns = []
        for g in self.generators:
            conj = beta.compose(g).compose(beta.inverse())
            n = conj.dimension
            if any(conj.matrix[i][j] != 0 for i in range(n) for j in range(n) if i != j):
                raise NormalizationError(
                    "conjugate of a generator left the diagonal family"
                )
            target = [padic_valuation(conj.matrix[i][i], self.prime) for i in range(n)]
            coeffs = _solve_integer_combination(gen_vals, target)
            if coeffs is None:
                raise NormalizationError(
                    "conjugate of a generator is not a word in the family"
                )
            # the valuation vector determines a pure p-power diagonal; make
            # sure nothing beyond p-powers is present
            rebuilt = self.automorphism(exponents_word(coeffs))
            if rebuilt.matrix != conj.matrix:
                raise NormalizationError(
                    "conjugate of a generator is not a word in the family"
                )
            columns.append(coeffs)
        g = self.generator_count
        return tuple(
            tuple(columns[j][i] for j in range(g)) for i in range(g)
        )


class PatternBackend:
    """Diagonal conjugation on a p-adic matrix group via valuation patterns."""

    def __init__(self, n, p, generators=None):
        if generators is None:
            generators = tuple(
                tuple(1 if k == i else 0 for k in range(n)) for i in range(n)
            )
        if not is_prime(p):
            raise InputError(f"{p!r} is not a prime")
        self.n = n
        self.prime = p
        self.generators = tuple(tuple(int(x) for x in w) for w in generators)
        for w in self.generators:
            if len(w) != n:
                raise InputError("generator weight length must match n")
        self.base = _tr.PatternSubgroup(
            n, tuple(tuple(0 for _ in range(n)) for _ in range(n))
        )
        self._roots, self._inert = _tr.root_eigenfactors(n, self.base)

    @property
    def generator_count(self):
        return len(self.generators)

    def weight(self, word):
        out = [0] * self.n
        for letter in word:
            w = self.generators[abs(letter) - 1]
            sign = 1 if letter > 0 else -1
            for k in range(self.n):
                out[k] += sign * w[k]
        return tuple(out)

    def automorphism(self, word):
        return _tr.DiagonalAutomorphism(self.weight(word))

    def eigenfactors(self):
        return [
            (f"root({r.root[0] + 1},{r.root[1] + 1})", r) for r in self._roots
        ]

    def inert_summary(self):
        return f"diagonal part of size {self.n}"

    def relative_pair(self, handle, word):
        a = self.automorphism(word)
        p = self.prime
        return (
            p ** _tr.displacement_exponent(handle.pattern, a),
            p ** _tr.displacement_exponent(handle.pattern, a.inverse()),
        )

    def scale_pair(self, word):
        a = self.automorphism(word)
        p = self.prime
        return (
            p ** _tr.displacement_exponent(self.base, a),
            p ** _tr.displacement_exponent(self.base, a.inverse()),
        )

    def modular_ratio(self, word):
        # conjugation distorts entry (i, j) by w_i - w_j; over all entries
        # the distortions cancel pairwise
        w = self.weight(word)
        total = sum(
            w[i] - w[j] for i in range(self.n) for j in range(self.n) if i != j
        )
        return Fraction(self.prime) ** total

    def fixes_tidy(self, word):
        a = self.automorphism(word)
        return _tr.conjugate(self.base, a) == self.base

    def word_tidy_at(self, word):
        # measured through the conjugate, so it checks the closed form
        a = self.automorphism(word)
        img = _tr.conjugate(self.base, a)
        got = _tr.index_exponent(img.intersect(self.base), img)
        return got == _tr.displacement_exponent(self.base, a)

    def forward_index_samples(self, word):
        a = self.automorphism(word)
        out = []
        for pat in (self.base, _tr.iwahori(self.n)):
            plus = _tr.forward_pattern(pat, a)
            img = _tr.conjugate(plus, a)
            out.append(self.prime ** _tr.index_exponent(plus, img))
        return out

    def parts_commute(self, word):
        a = self.automorphism(word)
        lhs = _tr.conjugate(_tr.forward_pattern(self.base, a), a)
        rhs = _tr.forward_pattern(_tr.conjugate(self.base, a), a)
        return lhs == rhs

    def conjugation_matrix(self, element):
        perm = tuple(element)
        if sorted(perm) != list(range(self.n)):
            raise NormalizationError(
                "normalizer element must be a coordinate permutation"
            )
        gen_rows = [list(w) for w in self.generators]
        columns = []
        for w in self.generators:
            target = list(_tr.permute_vector(perm, w))
            coeffs = _solve_integer_combination(gen_rows, target)
            if coeffs is None:
                raise NormalizationError(
                    "permuted weight is not a word in the generators"
                )
            columns.append(coeffs)
        g = self.generator_count
        return tuple(
            tuple(columns[j][i] for j in range(g)) for i in range(g)
        )


class WindowedBackend:
    """Shift/twist automorphisms of a restricted product at a tidy subgroup."""

    def __init__(self, generators, tidy, depth=8, cap=_fp.DEFAULT_CAP):
        self.generators = list(generators)
        if not self.generators:
            raise InputError("at least one generator required")
        self.tidy = tidy
        self.depth = depth
        self.cap = cap

    @property
    def generator_count(self):
        return len(self.generators)

    def automorphism(self, word):
        amb = self.generators[0].ambient
        out = _fp.ShiftAutomorphism(amb)
        for letter in word:
            g = self.generators[abs(letter) - 1]
            out = out.compose(g if letter > 0 else g.inverse())
        return out

    def _stabilized_part(self, alpha, sub):
        part, ok = _fp.forward_part(alpha, sub, self.depth, self.cap)
        if not ok:
            raise InputError(
                f"forward part did not stabilize at depth {self.depth};"
                " increase the depth"
            )
        return part

    def eigenfactors(self):
        parts = []
        for g in self.generators:
            for a in (g, g.inverse()):
                cand = self._stabilized_part(a, self.tidy)
                if cand not in parts:
                    parts.append(cand)
        return [(f"factor({k + 1})", p) for k, p in enumerate(parts)]

    def inert_summary(self):
        return None

    def relative_pair(self, handle, word):
        a = self.automorphism(word)
        return (
            _fp.displacement_index(a, handle, self.cap),
            _fp.displacement_index(a.inverse(), handle, self.cap),
        )

    def _certificate_depth(self, a):
        # window width grows with the net shift per application, so wide
        # words get a shallower, still genuine, tidiness certificate
        return max(2, self.depth // max(1, abs(a.d)))

    def scale_pair(self, word):
        # the scale is the displacement at any tidy subgroup, so run the
        # tidying procedure when the base subgroup does not serve the word
        out = []
        for a in (self.automorphism(word), self.automorphism(word).inverse()):
            depth = self._certificate_depth(a)
            if _fp.is_tidy(a, self.tidy, depth, self.cap):
                out.append(_fp.displacement_index(a, self.tidy, self.cap))
            else:
                trace = _fp.tidying_procedure(a, self.tidy, depth, self.cap)
                out.append(trace.scale)
        return tuple(out)

    def modular_ratio(self, word):
        # measure distortion read off any compact open subgroup, tidy or not
        a = self.automorphism(word)
        amb = self.tidy.ambient
        probe = _fp.basic_subgroup(amb, 0, 1)
        img = _fp.apply(a, probe, self.cap)
        inter = _fp.meet(img, probe, self.cap)
        _, up = _fp.meet_index(img, inter, self.cap)
        _, down = _fp.meet_index(probe, inter, self.cap)
        return Fraction(up, down)

    def fixes_tidy(self, word):
        return _fp.apply(self.automorphism(word), self.tidy, self.cap) == self.tidy

    def word_tidy_at(self, word):
        a = self.automorphism(word)
        return bool(
            _fp.is_tidy(a, self.tidy, self._certificate_depth(a), self.cap)
        )

    def forward_index_samples(self, word):
        a = self.automorphism(word)
        out = []
        for sub in (self.tidy, _fp.apply(a, self.tidy, self.cap)):
            plus = self._stabilized_part(a, sub)
            out.append(_fp.displacement_index(a, plus, self.cap))
        return out

    def parts_commute(self, word):
        a = self.automorphism(word)
        lhs = _fp.apply(a, self._stabilized_part(a, self.tidy), self.cap)
        rhs = self._stabilized_part(a, _fp.apply(a, self.tidy, self.cap))
        return lhs == rhs

    def conjugation_matrix(self, element):
        raise UnsupportedInputError(
            "the windowed backend does not expose a normalizer action"
        )


def _solve_integer_combination(rows, target):
    """Integer coefficients c with sum c_i rows[i] = target, or None.

    With H = M U the column Hermite form of the matrix M whose columns are
    the rows, back-substitution from the lowest pivot solves H y = target
    in integers, and c = U y."""
    if not rows:
        return None
    h, u = hermite_form_with_transform(IntegerMatrix(tuple(zip(*rows))))
    h, u = h.entries, u.entries
    y = [0] * len(rows)
    rest = list(target)
    for j in reversed(range(len(rows))):
        piv = next((i for i in reversed(range(len(h))) if h[i][j]), None)
        if piv is None:
            break  # zero columns come first
        q, remainder = divmod(rest[piv], h[piv][j])
        if remainder:
            return None
        y[j] = q
        rest = [x - q * row[j] for x, row in zip(rest, h)]
    if any(rest):
        return None
    return tuple(sum(a * b for a, b in zip(row, y)) for row in u)


# ---------------------------------------------------------------------------
# the relative scale table


@dataclass(frozen=True)
class EigenfactorRecord:
    identifier: str
    handle: object = field(compare=False, repr=False)
    t: int
    rho: tuple
    delta: str
    complete: bool


def _common_base(indices):
    """Smallest integer >= 2 of which every index is a positive power."""
    smallest = min(indices)
    best = smallest
    m = 2
    while 2**m <= smallest:
        root = _integer_root(smallest, m)
        if root**m == smallest:
            if all(_power_exponent(x, root) is not None for x in indices):
                best = root
        m += 1
    return best


def _integer_root(x, m):
    """The largest integer r with r**m <= x, for integers x >= 1, m >= 1."""
    r = 1 << -(-x.bit_length() // m)  # 2^ceil(bits / m) exceeds the root
    while True:
        s = ((m - 1) * r + x // r ** (m - 1)) // m
        if s >= r:
            return r
        r = s


def _power_exponent(x, base):
    if x == 1:
        return 0
    e = 0
    while x % base == 0 and x > 1:
        x //= base
        e += 1
    return e if x == 1 else None


def _linear_form(rho):
    terms = []
    for i, c in enumerate(rho, start=1):
        if c == 0:
            continue
        mag = f"x{i}" if abs(c) == 1 else f"{abs(c)}*x{i}"
        if not terms:
            terms.append(mag if c > 0 else f"-{mag}")
        else:
            terms.append(f"+ {mag}" if c > 0 else f"- {mag}")
    return " ".join(terms) if terms else "0"


def _min_positive_sum(magnitudes, length):
    """Least positive value of sum c_i m_i with sum |c_i| <= length."""
    sums = {0}
    for _ in range(length):
        nxt = set(sums)
        for s in sums:
            for m in magnitudes:
                nxt.add(s + m)
                nxt.add(s - m)
        sums = nxt
    positive = [s for s in sums if s > 0]
    return min(positive) if positive else None


def relative_scale_table(backend, word_length=DEFAULT_WORD_LENGTH):
    """One record per eigenfactor the group actually moves.

    t is the minimal expansion index over all words (the gcd lower bound is
    always attained in the ambient group); the record is flagged incomplete
    when no word within the length bound witnesses it.
    """
    g = backend.generator_count
    records = []
    for identifier, handle in backend.eigenfactors():
        pairs = [backend.relative_pair(handle, (i,)) for i in range(1, g + 1)]
        indices = sorted({x for pair in pairs for x in pair if x > 1})
        if not indices:
            continue
        base = _common_base(indices)
        signed = []
        for s, s_inv in pairs:
            if s > 1 and s_inv > 1:
                raise InputError(
                    f"{identifier} is displaced in both directions by one"
                    " generator; it is not an eigenfactor"
                )
            e = _power_exponent(max(s, s_inv), base)
            if e is None:
                raise InputError(
                    f"{identifier} indices are not powers of a common base"
                )
            signed.append(e if s > 1 else -e if s_inv > 1 else 0)
        step = 0
        for m in signed:
            step = gcd(step, abs(m))
        witnessed = _min_positive_sum([abs(m) for m in signed if m], word_length)
        t = base**step
        rho = tuple(m // step for m in signed)
        records.append(
            EigenfactorRecord(
                identifier=identifier,
                handle=handle,
                t=t,
                rho=rho,
                delta=f"{t}^({_linear_form(rho)})",
                complete=witnessed == step,
            )
        )
    return records


def records_matrix(records):
    return IntegerMatrix(tuple(r.rho for r in records))


def rank_corank(records, generator_count):
    """(rank, corank free rank, corank torsion factors)."""
    if not records:
        return 0, 0, ()
    mat = records_matrix(records)
    if mat.cols != generator_count:
        raise InputError("records carry a different number of generators")
    rank, _ = smith_invariants(mat)
    free, torsion = cokernel(mat)
    return rank, free, torsion


# ---------------------------------------------------------------------------
# the geometry of the functional set


def _saturated_row_basis(mat):
    """Canonical basis of the saturation of the integer row span of mat:
    echelon rows, positive leading entries, entries above each pivot reduced
    into [0, pivot).  That is the column Hermite form of the basis columns
    with their coordinates reversed, read back column by column from the
    right."""
    ker = kernel_basis(mat)
    if ker is None:
        return [
            tuple(1 if j == i else 0 for j in range(mat.cols))
            for i in range(mat.cols)
        ]
    saturated = kernel_basis(ker.transpose())
    h = hermite_form(IntegerMatrix(saturated.entries[::-1]))
    return [col[::-1] for col in reversed(list(zip(*h.entries)))]


def _coordinates(vector, basis):
    """Integer coordinates of vector over independent basis rows."""
    rows = [list(col) for col in zip(*basis, vector)]
    pivots, d, _ = _gauss_jordan(rows)
    if len(basis) in pivots:
        raise InputError("functional lies outside the basis span")
    coords = [0] * len(basis)
    for row, c in zip(rows, pivots):
        if row[-1] % d:
            raise InputError("non-integer coordinate over the saturated basis")
        coords[c] = row[-1] // d
    return tuple(coords)


def _is_extreme(point, others):
    """Exact test: no convex combination of the others reaches the point."""
    if not others:
        return True
    d = len(point)
    # phase-one simplex over the equalities sum l_j v_j = point, sum l_j = 1
    rows = d + 1
    cols = len(others)
    a = [[Fraction(others[j][i]) for j in range(cols)] for i in range(d)]
    a.append([Fraction(1)] * cols)
    b = [Fraction(x) for x in point] + [Fraction(1)]
    for i in range(rows):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    # tableau with artificial basis
    tableau = [a[i] + [Fraction(int(k == i)) for k in range(rows)] + [b[i]] for i in range(rows)]
    basis = [cols + i for i in range(rows)]
    total = cols + rows
    cost = [Fraction(0)] * (total + 1)
    for i in range(rows):
        for j in range(total + 1):
            cost[j] += tableau[i][j]
    while True:
        enter = next(
            (j for j in range(cols) if j not in basis and cost[j] > 0), None
        )
        if enter is None:
            break
        ratios = [
            (tableau[i][total] / tableau[i][enter], i)
            for i in range(rows)
            if tableau[i][enter] > 0
        ]
        if not ratios:
            break
        _, leave = min(ratios, key=lambda t: (t[0], basis[t[1]]))
        piv = tableau[leave][enter]
        tableau[leave] = [x / piv for x in tableau[leave]]
        for i in range(rows):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [
                    x - f * y for x, y in zip(tableau[i], tableau[leave])
                ]
        f = cost[enter]
        cost = [x - f * y for x, y in zip(cost, tableau[leave])]
        basis[leave] = enter
    return cost[total] != 0


def _hull_vertices_2d(points):
    """Convex hull vertices of distinct 2-d integer points, ccw order."""
    pts = sorted(points)
    if len(pts) <= 2:
        return pts

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for q in pts:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], q) <= 0:
            lower.pop()
        lower.append(q)
    upper = []
    for q in reversed(pts):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], q) <= 0:
            upper.pop()
        upper.append(q)
    return lower[:-1] + upper[:-1]


def _doubled_area(vertices):
    total = 0
    for k in range(len(vertices)):
        x1, y1 = vertices[k]
        x2, y2 = vertices[(k + 1) % len(vertices)]
        total += x1 * y2 - x2 * y1
    return abs(total)


@dataclass(frozen=True)
class MSet:
    points: tuple
    extreme_points: tuple
    extreme_count: int
    doubled_area: int
    notice: str


def m_set(records, generator_count, basis_change=None):
    """Functionals as integer points of rank-dimensional space.

    The basis is the canonical echelon basis of the saturated span of the
    rho vectors, so the coordinates are deterministic; basis_change applies
    a unimodular matrix on the right for independence tests.
    """
    if not records:
        return MSet((), (), 0, 0, "")
    mat = records_matrix(records)
    if mat.cols != generator_count:
        raise InputError("records carry a different number of generators")
    basis = _saturated_row_basis(mat)
    points = [_coordinates(r.rho, basis) for r in records]
    rank = len(basis)
    if basis_change is not None:
        change = IntegerMatrix(tuple(tuple(row) for row in basis_change))
        if change.rows != rank or change.cols != rank:
            raise InputError("basis change must be square of size rank")
        r, factors = smith_invariants(change)
        if r != rank or any(d != 1 for d in factors):
            raise InputError("basis change must be unimodular")
        points = [
            tuple(
                sum(pt[i] * change.entries[i][j] for i in range(rank))
                for j in range(rank)
            )
            for pt in points
        ]
    points = [tuple(pt) for pt in points]
    if rank > 4:
        return MSet(
            tuple(points),
            (),
            None,
            None,
            "hull statistics omitted: rank exceeds 4",
        )
    distinct = sorted(set(points))
    extremes = tuple(
        q for q in distinct if _is_extreme(q, [x for x in distinct if x != q])
    )
    if rank == 2:
        # second route through the monotone chain guards the simplex
        hull = _hull_vertices_2d(distinct)
        if sorted(hull) != list(extremes):
            raise RuntimeError("extreme point routes disagree (internal)")
        area = _doubled_area(hull)
    elif rank <= 1:
        area = 0
    else:
        area = None
    return MSet(tuple(points), extremes, len(extremes), area, "")


def separation_sequence(points):
    """Integer functionals whose joint sign patterns single out each point.

    Greedy: scan vectors with positive leading entry in an expanding
    coefficient box, lexicographically, keeping each one that avoids every
    point's kernel and strictly refines the current partition.
    """
    distinct = sorted(set(tuple(p) for p in points))
    if len(distinct) <= 1:
        return []
    if any(not any(q) for q in distinct):
        raise InputError("the zero functional admits no separating signs")
    directions = {}
    for q in distinct:
        scale = 0
        for x in q:
            scale = gcd(scale, abs(x))
        d = tuple(x // scale for x in q)
        if d in directions:
            raise InputError(
                f"functionals {directions[d]} and {q} share a ray; sign"
                " patterns cannot tell them apart"
            )
        directions[d] = q
    dim = len(distinct[0])
    chosen = []
    patterns = {q: () for q in distinct}

    def blocks():
        groups = {}
        for q, pat in patterns.items():
            groups.setdefault(pat, []).append(q)
        return groups

    radius = 0
    while max(len(v) for v in blocks().values()) > 1:
        radius += 1
        if radius > 64:
            raise RuntimeError("separation search exceeded its box (internal)")
        found = False
        for x in _signed_box(dim, radius):
            dots = [sum(a * b for a, b in zip(q, x)) for q in distinct]
            if any(d == 0 for d in dots):
                continue
            trial = {
                q: patterns[q] + (1 if d > 0 else -1,)
                for q, d in zip(distinct, dots)
            }
            groups = {}
            for q, pat in trial.items():
                groups.setdefault(pat, []).append(q)
            if len(groups) > len(blocks()):
                chosen.append(x)
                patterns = trial
                found = True
                break
        if not found:
            continue
        radius -= 1  # retry the same box until it stops refining
    return chosen


def _signed_box(dim, radius):
    """Vectors with entries in [-radius, radius], first nonzero positive,
    in lexicographic order."""

    def rec(prefix, started):
        if len(prefix) == dim:
            if started:
                yield tuple(prefix)
            return
        low = 0 if not started else -radius
        for v in range(low, radius + 1):
            yield from rec(prefix + [v], started or v > 0)

    yield from rec([], False)


# ---------------------------------------------------------------------------
# the verification suite


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    ok: bool
    witness: str


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]


def _sample_words(g, max_length):
    alphabet = [i for i in range(1, g + 1)] + [-i for i in range(1, g + 1)]
    words = []
    frontier = [()]
    for _ in range(max_length):
        frontier = [w + (a,) for w in frontier for a in alphabet]
        words.extend(frontier)
    return words

def _measured_exponent(pair, t):
    s, s_inv = pair
    if s > 1:
        e = _power_exponent(s, t)
    elif s_inv > 1:
        e = _power_exponent(s_inv, t)
        e = None if e is None else -e
    else:
        e = 0
    return e


def verify_suite(backend, records=None, word_length=DEFAULT_WORD_LENGTH,
                 sample_length=2, identity_length=3):
    """Exact identity checks for the acting group, reported in a fixed order.

    A tampered records list makes the factorization and power-law checks
    fail, which is the intended negative control in the tests.
    """
    if records is None:
        records = relative_scale_table(backend, word_length)
    g = backend.generator_count
    singles = [(i,) for i in range(1, g + 1)]
    samples = _sample_words(g, sample_length)
    identity_words = _sample_words(g, identity_length)
    scale_cache = {}

    def scales(word):
        if word not in scale_cache:
            scale_cache[word] = tuple(backend.scale_pair(word))
        return scale_cache[word]

    # relative pairs by (record position, word): delta-power-law and
    # pure-pair-law ask for the same pairs, and rho-additive for some again
    pair_cache = {}

    def pair(k, word):
        if (k, word) not in pair_cache:
            handle = records[k].handle
            pair_cache[k, word] = backend.relative_pair(handle, word)
        return pair_cache[k, word]

    checks = []

    def run(name, gen):
        ok = True
        witness = ""
        for failed, text in gen:
            if failed:
                ok = False
                witness = text
                break
        checks.append(CheckOutcome(name, ok, witness))

    def invariant_iff_scale_one():
        for w in samples:
            fixed = backend.fixes_tidy(w)
            trivial = scales(w) == (1, 1)
            yield fixed != trivial, f"word {w}: fixes={fixed} scales={scales(w)}"

    run("invariant-iff-scale-one", invariant_iff_scale_one())

    def power_multiplicativity():
        for w in singles + samples[: 2 * g]:
            s, s_inv = scales(w)
            for n in (2, 3):
                got = scales(w * n)
                want = (s**n, s_inv**n)
                yield got != want, f"word {w} power {n}: {got} != {want}"

    run("power-multiplicativity", power_multiplicativity())

    def modular_ratio_identity():
        for w in samples:
            s, s_inv = scales(w)
            ratio = Fraction(s, s_inv)
            other = backend.modular_ratio(w)
            yield ratio != other, f"word {w}: s-ratio {ratio} module {other}"

    run("modular-ratio", modular_ratio_identity())

    def plus_index_independence():
        for w in singles + samples[: 2 * g]:
            if scales(w) == (1, 1):
                continue
            values = backend.forward_index_samples(w)
            target = scales(w)[0]
            yield any(v != target for v in values), (
                f"word {w}: plus-part indices {values} vs scale {target}"
            )

    run("plus-index-independence", plus_index_independence())

    def parts_of_image():
        for w in singles + samples[: 2 * g]:
            yield not backend.parts_commute(w), f"word {w}"

    run("parts-of-image", parts_of_image())

    def commutators_fix():
        for i in range(1, g + 1):
            for j in range(i + 1, g + 1):
                w = (i, j, -i, -j)
                yield not backend.fixes_tidy(w), f"commutator {w}"

    run("commutators-fix", commutators_fix())

    def torsion_free_quotient():
        for i in range(1, g + 1):
            for j in range(i + 1, g + 1):
                w = (i, j, -i, -j)
                yield scales(w) != (1, 1), f"commutator {w} has scale {scales(w)}"
        # powers via invariance, which scale-one words are checked to match
        for w in samples:
            for n in (2, 3):
                if backend.fixes_tidy(w * n) and not backend.fixes_tidy(w):
                    yield True, f"word {w}: power {n} fixes, word does not"
        yield False, ""

    run("torsion-free-quotient", torsion_free_quotient())

    def product_with_fixer_tidy():
        fixers = [w for w in samples if backend.fixes_tidy(w)][:4]
        for f in fixers:
            for a in singles:
                word = a + f
                # the hypothesis needs the two factors to commute
                if backend.automorphism(word) != backend.automorphism(f + a):
                    continue
                yield not backend.word_tidy_at(word), (
                    f"fixer {f} times generator {a} lost tidiness"
                )

    run("product-with-fixer-tidy", product_with_fixer_tidy())

    def scale_factorizes():
        for w in samples:
            expo = word_exponents(w, g)
            predicted = 1
            for rec in records:
                e = sum(a * b for a, b in zip(rec.rho, expo))
                predicted *= rec.t ** max(e, 0)
            actual = scales(w)[0]
            yield predicted != actual, (
                f"word {w}: table product {predicted} scale {actual}"
            )

    run("scale-factorizes", scale_factorizes())

    def stabilizer_kernel():
        if records:
            mat = records_matrix(records)
            ker = kernel_basis(mat)
            if ker is not None:
                for j in range(ker.cols):
                    vec = tuple(ker.entries[i][j] for i in range(ker.rows))
                    w = exponents_word(vec)
                    yield not backend.fixes_tidy(w), f"kernel word {w}"
        else:
            for w in singles:
                yield not backend.fixes_tidy(w), f"generator {w}"
        for w in samples:
            if backend.fixes_tidy(w):
                expo = word_exponents(w, g)
                for rec in records:
                    e = sum(a * b for a, b in zip(rec.rho, expo))
                    yield e != 0, (
                        f"word {w} fixes but {rec.identifier} moves by {e}"
                    )

    run("stabilizer-kernel", stabilizer_kernel())

    def delta_power_law():
        for k, rec in enumerate(records):
            for w in identity_words:
                expo = word_exponents(w, g)
                e = sum(a * b for a, b in zip(rec.rho, expo))
                s, s_inv = pair(k, w)
                yield Fraction(s, s_inv) != Fraction(rec.t) ** e, (
                    f"{rec.identifier} word {w}: {Fraction(s, s_inv)}"
                    f" != {rec.t}^{e}"
                )

    run("delta-power-law", delta_power_law())

    def pure_pair_law():
        for k, rec in enumerate(records):
            for w in identity_words:
                expo = word_exponents(w, g)
                e = sum(a * b for a, b in zip(rec.rho, expo))
                got = pair(k, w)
                want = (rec.t ** max(e, 0), rec.t ** max(-e, 0))
                yield got != want, (
                    f"{rec.identifier} word {w}: pair {got} expected {want}"
                )

    run("pure-pair-law", pure_pair_law())

    def rho_additive():
        for k, rec in enumerate(records):
            base = {}
            broken = False
            for w in singles + [(-i,) for i in range(1, g + 1)]:
                e = _measured_exponent(pair(k, w), rec.t)
                if e is None:
                    yield True, (
                        f"{rec.identifier}: index of {w} is not a power"
                        f" of {rec.t}"
                    )
                    broken = True
                    break
                base[w] = e
            if broken:
                continue
            for v in singles:
                for w in singles:
                    joined = _measured_exponent(pair(k, v + w), rec.t)
                    parts = base[v] + base[w]
                    yield joined != parts, (
                        f"{rec.identifier}: rho({v + w}) = {joined}"
                        f" != {base[v]} + {base[w]}"
                    )

    run("rho-additive", rho_additive())

    return VerifyReport(tuple(checks))


# ---------------------------------------------------------------------------
# the normalizer action on eigenfactors


def weyl_action(backend, records, element):
    """Permutation of record identifiers induced by conjugation."""
    matrix = backend.conjugation_matrix(element)
    g = backend.generator_count
    by_key = {}
    for rec in records:
        by_key.setdefault((rec.t, rec.rho), rec.identifier)
    mapping = {}
    seen = set()
    for rec in records:
        moved = tuple(
            sum(rec.rho[i] * matrix[i][j] for i in range(g)) for j in range(g)
        )
        target = by_key.get((rec.t, moved))
        if target is None:
            raise NormalizationError(
                f"conjugate of {rec.identifier} matches no eigenfactor"
            )
        mapping[rec.identifier] = target
        seen.add(target)
    if len(seen) != len(records):
        raise NormalizationError("conjugation action is not a permutation")
    return mapping


# ---------------------------------------------------------------------------
# the assembled report


@dataclass(frozen=True)
class InvariantsReport:
    records: tuple
    factor_number: int
    rank: int
    corank_free: int
    corank_torsion: tuple
    m_points: tuple
    extreme_count: int
    doubled_area: int
    hull_notice: str
    separation: tuple


def full_report(backend, word_length=DEFAULT_WORD_LENGTH):
    records = relative_scale_table(backend, word_length)
    rank, free, torsion = rank_corank(records, backend.generator_count)
    mset = m_set(records, backend.generator_count)
    separation = (
        tuple(separation_sequence(mset.points)) if not mset.notice else ()
    )
    return InvariantsReport(
        records=tuple(records),
        factor_number=len(records),
        rank=rank,
        corank_free=free,
        corank_torsion=torsion,
        m_points=mset.points,
        extreme_count=mset.extreme_count,
        doubled_area=mset.doubled_area,
        hull_notice=mset.notice,
        separation=separation,
    )
