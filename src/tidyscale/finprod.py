"""Restricted products of a finite group over Z with shift/twist
automorphisms, and the tidying procedure run literally on finite data.

The ambient group holds functions from Z x (Z/q) to a finite fiber group,
constrained to lie in a left tail subgroup far to the left and a right tail
subgroup far to the right.  Compact open subgroups are windows: an explicit
element set on finitely many coordinates with tail subgroups outside.  All
the subgroup operations (image, intersection, index, product set) are then
finite computations, and the obstruction subgroups K and L of the tidying
procedure reduce to per-coordinate orbit conditions that are exact for
shift-with-finite-twist automorphisms.
"""

import itertools
from dataclasses import dataclass

from .errors import (
    CommensurabilityError,
    InfiniteIndexError,
    InputError,
    ResourceCapError,
)

DEFAULT_CAP = 10**6


# ---------------------------------------------------------------------------
# finite fiber groups


@dataclass(frozen=True)
class FiniteGroup:
    names: tuple
    table: tuple  # table[i][j] = index of names[i] * names[j]

    def __post_init__(self):
        names = tuple(self.names)
        table = tuple(tuple(row) for row in self.table)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "table", table)
        n = len(names)
        if n == 0 or len(set(names)) != n:
            raise InputError("element names must be nonempty and distinct")
        if len(table) != n or any(len(r) != n for r in table):
            raise InputError("multiplication table shape mismatch")
        if any(x not in range(n) for row in table for x in row):
            raise InputError("table entries must index elements")
        ident = None
        for i in range(n):
            if all(table[i][j] == j and table[j][i] == j for j in range(n)):
                ident = i
                break
        if ident is None:
            raise InputError("no identity element")
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if table[i][j] == ident and table[j][i] == ident:
                    inv[i] = j
            if inv[i] is None:
                raise InputError(f"element {names[i]!r} has no inverse")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if table[table[i][j]][k] != table[i][table[j][k]]:
                        raise InputError("multiplication is not associative")
        object.__setattr__(self, "_identity", ident)
        object.__setattr__(self, "_inverses", tuple(inv))

    @property
    def order(self):
        return len(self.names)

    @property
    def identity(self):
        return self._identity

    def mul(self, i, j):
        return self.table[i][j]

    def inv(self, i):
        return self._inverses[i]

    def index_of(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"no element named {name!r}")

    def closure(self, gens):
        out = {self.identity}
        frontier = set(gens)
        while frontier:
            out |= frontier
            nxt = set()
            for x in out:
                for y in frontier:
                    for z in (self.table[x][y], self.table[y][x]):
                        if z not in out:
                            nxt.add(z)
            frontier = nxt
        return frozenset(out)

    def is_subgroup(self, subset):
        s = frozenset(subset)
        if self.identity not in s:
            return False
        return all(
            self.table[x][y] in s and self._inverses[x] in s for x in s for y in s
        )

    def is_automorphism(self, perm):
        n = self.order
        if len(perm) != n or set(perm) != set(range(n)):
            return False
        return all(
            perm[self.table[i][j]] == self.table[perm[i]][perm[j]]
            for i in range(n)
            for j in range(n)
        )

    def identity_map(self):
        return tuple(range(self.order))

    def inner(self, g):
        """Conjugation by the element with index g."""
        gi = self._inverses[g]
        return tuple(self.table[self.table[g][i]][gi] for i in range(self.order))


def cyclic_group(n):
    if n < 1:
        raise InputError("cyclic group order must be positive")
    names = ("e",) + tuple(f"g{k}" if k > 1 else "g" for k in range(1, n))
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(names, table)


def s3_group():
    """Symmetric group on three symbols.

    t is the 3-cycle, s1..s3 the transpositions, labeled so that conjugation
    by t cycles s1 -> s2 -> s3 -> s1.
    """
    perms = {
        "e": (0, 1, 2),
        "s1": (0, 2, 1),  # fixes symbol 0
        "s2": (2, 1, 0),  # fixes symbol 1
        "s3": (1, 0, 2),  # fixes symbol 2
        "t": (1, 2, 0),
        "t2": (2, 0, 1),
    }
    names = tuple(perms)
    order = {p: i for i, p in enumerate(perms.values())}
    table = []
    for p in perms.values():
        row = []
        for q in perms.values():
            comp = tuple(p[q[i]] for i in range(3))
            row.append(order[comp])
        table.append(tuple(row))
    return FiniteGroup(names, tuple(table))


def order8_group():
    """The order-8 group generated by commuting involutions c1, c2 and an
    involution a with a c1 = c2 a.  Elements are triples (x, y, z) over Z/2
    standing for c1^x c2^y a^z."""
    elems = [(x, y, z) for z in (0, 1) for y in (0, 1) for x in (0, 1)]
    elems.sort(key=lambda t: (t[2], t[1] + t[0], t))

    def mul(u, v):
        x1, y1, z1 = u
        x2, y2, z2 = v
        if z1:
            x2, y2 = y2, x2
        return ((x1 + x2) % 2, (y1 + y2) % 2, (z1 + z2) % 2)

    def label(t):
        x, y, z = t
        s = ("c1" if x else "") + ("c2" if y else "") + ("a" if z else "")
        return s or "e"

    names = tuple(label(t) for t in elems)
    pos = {t: i for i, t in enumerate(elems)}
    table = tuple(
        tuple(pos[mul(u, v)] for v in elems) for u in elems
    )
    return FiniteGroup(names, table)


# ---------------------------------------------------------------------------
# ambient restricted products


@dataclass(frozen=True)
class AmbientGroup:
    fiber: FiniteGroup
    q: int  # coordinates are (n, a) with n in Z, a in range(q)
    left_tail: frozenset
    right_tail: frozenset

    def __post_init__(self):
        object.__setattr__(self, "left_tail", frozenset(self.left_tail))
        object.__setattr__(self, "right_tail", frozenset(self.right_tail))
        if self.q < 1:
            raise InputError("index fiber size must be at least 1")
        for tail in (self.left_tail, self.right_tail):
            if not self.fiber.is_subgroup(tail):
                raise InputError("tail constraints must be subgroups of the fiber")

    def coords(self, lo, hi):
        return [(n, a) for n in range(lo, hi) for a in range(self.q)]


def _window_identity(amb, lo, hi):
    return tuple(amb.fiber.identity for _ in range((hi - lo) * amb.q))


@dataclass(frozen=True)
class WindowedSubgroup:
    ambient: AmbientGroup
    lo: int
    hi: int
    elements: frozenset  # tuples of fiber indices over coords(lo, hi)
    left: frozenset  # subgroup constraint for n < lo
    right: frozenset  # subgroup constraint for n >= hi

    def __post_init__(self):
        amb = self.ambient
        elements = frozenset(tuple(e) for e in self.elements)
        left = frozenset(self.left)
        right = frozenset(self.right)
        if self.lo > self.hi:
            raise InputError("window bounds out of order")
        width = (self.hi - self.lo) * amb.q
        if any(len(e) != width for e in elements):
            raise InputError("element length does not match the window")
        if not elements:
            raise InputError("element set must contain the identity")
        if not amb.fiber.is_subgroup(left) or not amb.fiber.is_subgroup(right):
            raise InputError("tail constraints must be subgroups")
        if not left <= amb.left_tail or not right <= amb.right_tail:
            raise InputError("tail constraints must refine the ambient tails")
        fib = amb.fiber
        if len(elements) ** 2 * max(width, 1) > 5 * 10**7:
            raise ResourceCapError(len(elements) ** 2, 5 * 10**7)
        identity = _window_identity(amb, self.lo, self.hi)
        if identity not in elements:
            raise InputError("element set must contain the identity")
        if not _is_closed(fib, elements, identity):
            # the check over all pairs names what fails, inverse or product
            for x in elements:
                if tuple(fib.inv(v) for v in x) not in elements:
                    raise InputError("element set not closed under inverse")
                for y in elements:
                    if tuple(fib.mul(u, v) for u, v in zip(x, y)) not in elements:
                        raise InputError("element set not closed under product")
        lo, hi, elements = _strip(amb, self.lo, self.hi, elements, left, right)
        if lo == hi and left == right:
            lo = hi = 0
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def is_open(self):
        return (
            self.left == self.ambient.left_tail
            and self.right == self.ambient.right_tail
        )

    def column(self, n):
        """Per-coordinate value sets at integer index n (a tuple over the
        fiber index), from tails or window marginals."""
        amb = self.ambient
        if n < self.lo:
            return tuple(self.left for _ in range(amb.q))
        if n >= self.hi:
            return tuple(self.right for _ in range(amb.q))
        base = (n - self.lo) * amb.q
        return tuple(
            frozenset(e[base + a] for e in self.elements) for a in range(amb.q)
        )

    def member(self, values):
        """Membership of a finitely supported element given as a dict
        mapping (n, a) to a fiber index; unspecified coordinates are e."""
        amb = self.ambient
        ident = amb.fiber.identity
        for (n, a), v in values.items():
            if v == ident:
                continue
            if n < self.lo and v not in self.left:
                return False
            if n >= self.hi and v not in self.right:
                return False
        window = list(_window_identity(amb, self.lo, self.hi))
        for (n, a), v in values.items():
            if self.lo <= n < self.hi:
                window[(n - self.lo) * amb.q + a] = v
        return tuple(window) in self.elements


def _is_closed(fib, elements, identity):
    """Whether a finite element set holding the identity is a group,
    checked through a generating set (Dimino's algorithm).

    Walk the set; each element not yet reached becomes a generator, and
    the reached set is closed under right multiplication by every generator
    so far.  The check fails as soon as a product leaves the set.  If none
    does, the reached set is the subgroup the generators span and holds
    every element, so the set is that subgroup.  Each generator at least
    doubles the reached subgroup, so at most log2|E| + 1 generators take
    O(|E| log |E|) products instead of the |E|^2 of all pairs.
    """
    # right multiplication by v, as a map on fiber indices
    right_by = [tuple(row[v] for row in fib.table) for v in range(fib.order)]
    reached = {identity}
    steps = []
    for g in elements:
        if g in reached:
            continue
        step = tuple(right_by[v] for v in g)
        steps.append(step)
        frontier = []
        for x in list(reached):
            y = tuple(map(tuple.__getitem__, step, x))
            if y not in elements:
                return False
            reached.add(y)
            frontier.append(y)
        while frontier:
            grown = []
            for x in frontier:
                for s in steps:
                    y = tuple(map(tuple.__getitem__, s, x))
                    if y in reached:
                        continue
                    if y not in elements:
                        return False
                    reached.add(y)
                    grown.append(y)
            frontier = grown
    return True


def _strip(amb, lo, hi, elements, left, right):
    q = amb.q

    def splits(block_sub, at_front):
        width = len(block_sub) ** q
        if at_front:
            blocks = frozenset(e[:q] for e in elements)
            rest = frozenset(e[q:] for e in elements)
        else:
            blocks = frozenset(e[-q:] for e in elements)
            rest = frozenset(e[:-q] for e in elements)
        full = frozenset(itertools.product(block_sub, repeat=q))
        if blocks != full or len(elements) != width * len(rest):
            return None
        recombined = frozenset(
            (b + r) if at_front else (r + b) for b in full for r in rest
        )
        return rest if recombined == elements else None

    while hi > lo:
        rest = splits(left, True)
        if rest is None:
            break
        lo += 1
        elements = rest
    while hi > lo:
        rest = splits(right, False)
        if rest is None:
            break
        hi -= 1
        elements = rest
    return lo, hi, elements


def basic_subgroup(amb, lo, hi):
    """Identity on the window, full tail constraints outside; these form the
    neighbourhood base of the identity."""
    return WindowedSubgroup(
        amb,
        lo,
        hi,
        frozenset({_window_identity(amb, lo, hi)}),
        amb.left_tail,
        amb.right_tail,
    )


def product_subgroup(amb, lo, hi, column_subgroups, left=None, right=None):
    """Windowed subgroup whose window part is a product of per-coordinate
    subgroups, given as a dict mapping (n, a) to an iterable of element
    names or indices; omitted coordinates are identity-only."""
    fib = amb.fiber
    left = amb.left_tail if left is None else frozenset(left)
    right = amb.right_tail if right is None else frozenset(right)
    pools = []
    for n in range(lo, hi):
        for a in range(amb.q):
            pool = column_subgroups.get((n, a), (fib.identity,))
            pool = tuple(
                v if isinstance(v, int) else fib.index_of(v) for v in pool
            )
            pools.append(pool)
    elements = frozenset(itertools.product(*pools)) if pools else frozenset({()})
    return WindowedSubgroup(amb, lo, hi, elements, left, right)


def _pad(elements, left_pools, right_pools, cap):
    """Every window element extended by one value from each pool on its
    left and its right."""
    total = len(elements)
    for pool in left_pools + right_pools:
        total *= len(pool)
    if total > cap:
        raise ResourceCapError(total, cap)
    lefts = list(itertools.product(*left_pools))
    rights = list(itertools.product(*right_pools))
    return frozenset(
        lft + e + rgt for e in elements for lft in lefts for rgt in rights
    )


def _padded(w, lo, hi, cap):
    """Element set of w written over the larger window [lo, hi)."""
    if lo > w.lo or hi < w.hi:
        raise InputError("padding must enlarge the window")
    q = w.ambient.q
    return _pad(
        w.elements,
        [tuple(w.left)] * ((w.lo - lo) * q),
        [tuple(w.right)] * ((hi - w.hi) * q),
        cap,
    )


def _check_same_ambient(v, w):
    if v.ambient != w.ambient:
        raise CommensurabilityError("subgroups live in different ambient groups")


def _padded_against(v, other, lo, hi, cap):
    """Padded element set of v over [lo, hi), keeping only tuples that can
    meet `other`: each padded coordinate pool is pre-cut by other's column
    constraint there.  The intersection with other's padding is unchanged,
    and large free tail blocks in the gap between two windows never get
    enumerated."""
    amb = v.ambient
    q = amb.q
    kept = []
    other_cols = {n: other.column(n) for n in range(lo, hi)}
    for e in v.elements:
        if all(
            e[(n - v.lo) * q + a] in other_cols[n][a]
            for n in range(v.lo, v.hi)
            for a in range(q)
        ):
            kept.append(e)
    left_pools = [
        tuple(v.left & other_cols[n][a])
        for n in range(lo, v.lo)
        for a in range(q)
    ]
    right_pools = [
        tuple(v.right & other_cols[n][a])
        for n in range(v.hi, hi)
        for a in range(q)
    ]
    return _pad(kept, left_pools, right_pools, cap)


def _window_count(v, lo, hi):
    """Size of v's element set written over the larger window [lo, hi)."""
    q = v.ambient.q
    return (
        len(v.elements)
        * len(v.left) ** ((v.lo - lo) * q)
        * len(v.right) ** ((hi - v.hi) * q)
    )


def _intersection(v, w, cap):
    """The subgroup v n w, with the window [lo, hi) and the element set
    over it that it was built from, before stripping."""
    _check_same_ambient(v, w)
    lo = min(v.lo, w.lo)
    hi = max(v.hi, w.hi)
    inter = _padded_against(v, w, lo, hi, cap) & _padded_against(w, v, lo, hi, cap)
    sub = WindowedSubgroup(
        v.ambient, lo, hi, inter, v.left & w.left, v.right & w.right
    )
    return sub, lo, hi, inter


def meet(v, w, cap=DEFAULT_CAP):
    return _intersection(v, w, cap)[0]


def meet_index(v, w, cap=DEFAULT_CAP):
    """Intersection together with the index [v : v n w], which is finite
    exactly when the intersection keeps v's tail constraints."""
    sub, lo, hi, inter = _intersection(v, w, cap)
    if sub.left != v.left or sub.right != v.right:
        raise InfiniteIndexError(v, sub)
    index, rem = divmod(_window_count(v, lo, hi), len(inter))
    if rem:
        raise InputError("intersection does not partition the subgroup")
    return sub, index


def contains(v, w, cap=DEFAULT_CAP):
    return meet(v, w, cap) == w


def product_set(v, w, cap=DEFAULT_CAP):
    """The element-set product vw over an aligned window.  Returns
    (lo, hi, set, left, right); the set need not be a group."""
    _check_same_ambient(v, w)
    amb = v.ambient
    fib = amb.fiber
    lo = min(v.lo, w.lo)
    hi = max(v.hi, w.hi)
    pv = _padded(v, lo, hi, cap)
    pw = _padded(w, lo, hi, cap)
    if len(pv) * len(pw) > cap:
        raise ResourceCapError(len(pv) * len(pw), cap)
    prod = frozenset(
        tuple(fib.mul(a, b) for a, b in zip(x, y)) for x in pv for y in pw
    )
    left = frozenset(fib.mul(a, b) for a in v.left for b in w.left)
    right = frozenset(fib.mul(a, b) for a in v.right for b in w.right)
    return lo, hi, prod, left, right


def product_subgroup_of(v, w, cap=DEFAULT_CAP):
    """The product vw as a subgroup; the constructor rejects products that
    fail to close up."""
    lo, hi, prod, left, right = product_set(v, w, cap)
    return WindowedSubgroup(v.ambient, lo, hi, prod, left, right)


# ---------------------------------------------------------------------------
# shift/twist automorphisms


@dataclass(frozen=True)
class ShiftAutomorphism:
    ambient: AmbientGroup
    d: int = 0
    sigma: tuple = None  # permutation of the index fiber Z/q
    global_map: tuple = None  # automorphism of the fiber group
    twists: tuple = ()  # sorted ((n, a), automorphism) pairs

    def __post_init__(self):
        amb = self.ambient
        fib = amb.fiber
        sigma = self.sigma if self.sigma is not None else tuple(range(amb.q))
        gmap = (
            self.global_map
            if self.global_map is not None
            else fib.identity_map()
        )
        sigma = tuple(sigma)
        gmap = tuple(gmap)
        if sorted(sigma) != list(range(amb.q)):
            raise InputError("sigma must permute the index fiber")
        if not fib.is_automorphism(gmap):
            raise InputError("global map must be a fiber automorphism")
        for tail in (amb.left_tail, amb.right_tail):
            if frozenset(gmap[v] for v in tail) != tail:
                raise InputError("global map must preserve the tail subgroups")
        twists = []
        for key, perm in self.twists:
            n, a = key
            perm = tuple(perm)
            if not (0 <= a < amb.q):
                raise InputError("twist key outside the index fiber")
            if not fib.is_automorphism(perm):
                raise InputError("local twist must be a fiber automorphism")
            if perm != fib.identity_map():
                twists.append(((int(n), int(a)), perm))
        twists.sort()
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "global_map", gmap)
        object.__setattr__(self, "twists", tuple(twists))

    def twist_at(self, n, a):
        for key, perm in self.twists:
            if key == (n, a):
                return perm
        return None

    def compose(self, other):
        """self after other, as an action on functions."""
        if self.ambient != other.ambient:
            raise InputError("automorphisms of different ambient groups")
        amb = self.ambient
        fib = amb.fiber
        d = self.d + other.d
        sigma = tuple(other.sigma[self.sigma[a]] for a in range(amb.q))
        gmap = tuple(self.global_map[other.global_map[i]] for i in range(fib.order))
        g1 = self.global_map
        g1_inv = _perm_inverse(g1)
        keys = {key for key, _ in self.twists}
        for (n, a), _ in other.twists:
            # other's twist at (n, a) shows through self at (n - d1, sigma1^-1(a))
            s1_inv = _perm_inverse(self.sigma)
            keys.add((n - self.d, s1_inv[a]))
        twists = []
        ident = fib.identity_map()
        for n, a in sorted(keys):
            l1 = self.twist_at(n, a) or ident
            l2 = other.twist_at(n + self.d, self.sigma[a]) or ident
            conj = tuple(g1[l2[g1_inv[i]]] for i in range(fib.order))
            perm = tuple(l1[conj[i]] for i in range(fib.order))
            if perm != ident:
                twists.append(((n, a), perm))
        return ShiftAutomorphism(amb, d, sigma, gmap, tuple(twists))

    def inverse(self):
        amb = self.ambient
        fib = amb.fiber
        sigma_inv = _perm_inverse(self.sigma)
        g_inv = _perm_inverse(self.global_map)
        twists = []
        for (n, a), perm in self.twists:
            perm_inv = _perm_inverse(perm)
            new = tuple(g_inv[perm_inv[self.global_map[i]]] for i in range(fib.order))
            twists.append(((n + self.d, self.sigma[a]), new))
        return ShiftAutomorphism(amb, -self.d, sigma_inv, g_inv, tuple(twists))

    def power(self, k):
        out = ShiftAutomorphism(self.ambient)
        base = self if k >= 0 else self.inverse()
        for _ in range(abs(k)):
            out = out.compose(base)
        return out

    @property
    def is_identity(self):
        return (
            self.d == 0
            and self.sigma == tuple(range(self.ambient.q))
            and self.global_map == self.ambient.fiber.identity_map()
            and not self.twists
        )

    def order(self, cap=1000):
        if self.d != 0:
            raise InputError("only shiftless automorphisms have finite order")
        acc = self
        for k in range(1, cap + 1):
            if acc.is_identity:
                return k
            acc = acc.compose(self)
        raise ResourceCapError(cap + 1, cap)


def _perm_inverse(perm):
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[v] = i
    return tuple(out)


def apply(alpha, w, cap=DEFAULT_CAP):
    """Image of the windowed subgroup under the automorphism."""
    amb = alpha.ambient
    if w.ambient != amb:
        raise CommensurabilityError("subgroup and automorphism ambient differ")
    d = alpha.d
    lo = w.lo - d
    hi = w.hi - d
    for (n, _), _perm in alpha.twists:
        lo = min(lo, n)
        hi = max(hi, n + 1)
    src = _padded(w, lo + d, hi + d, cap)
    gmap = alpha.global_map
    twist_map = dict(alpha.twists)
    out = set()
    coords = amb.coords(lo, hi)
    for e in src:
        img = []
        for n, a in coords:
            v = gmap[e[(n - lo) * amb.q + alpha.sigma[a]]]
            tw = twist_map.get((n, a))
            if tw is not None:
                v = tw[v]
            img.append(v)
        out.add(tuple(img))
    left = frozenset(gmap[v] for v in w.left)
    right = frozenset(gmap[v] for v in w.right)
    return WindowedSubgroup(amb, lo, hi, frozenset(out), left, right)


def displacement_index(alpha, w, cap=DEFAULT_CAP):
    """[alpha(W) : alpha(W) n W]."""
    img = apply(alpha, w, cap)
    return meet_index(img, w, cap)[1]


# ---------------------------------------------------------------------------
# forward parts with a marching-window limit certificate


def _tails_only(amb, left, right):
    return WindowedSubgroup(amb, 0, 0, frozenset({()}), left, right)


def _limit_candidates(amb, older, newer):
    """Guess the limit of a marching intersection sequence from two
    consecutive iterates.  Candidates are verified by the caller."""
    fib = amb.fiber
    q = amb.q
    out = []
    if (
        newer.hi == older.hi
        and newer.lo < older.lo
        and newer.left == older.left
        and newer.right == older.right
    ):
        # left end extends by columns of a fixed forced block
        ext = (older.lo - newer.lo) * q
        blocks = frozenset(e[:ext] for e in newer.elements)
        rest = frozenset(e[ext:] for e in newer.elements)
        col = frozenset(v for b in blocks for v in b)
        if (
            fib.is_subgroup(col)
            and col <= amb.left_tail
            and blocks == frozenset(itertools.product(tuple(col), repeat=ext))
            and rest == older.elements
            and len(newer.elements) == len(blocks) * len(rest)
        ):
            out.append(
                WindowedSubgroup(
                    amb, older.lo, older.hi, older.elements, col, older.right
                )
            )
    if (
        newer.lo == older.lo
        and newer.hi > older.hi
        and newer.left == older.left
        and newer.right == older.right
    ):
        ext = (newer.hi - older.hi) * q
        blocks = frozenset(e[-ext:] for e in newer.elements)
        rest = frozenset(e[:-ext] for e in newer.elements)
        col = frozenset(v for b in blocks for v in b)
        if (
            fib.is_subgroup(col)
            and col <= amb.right_tail
            and blocks == frozenset(itertools.product(tuple(col), repeat=ext))
            and rest == older.elements
            and len(newer.elements) == len(blocks) * len(rest)
        ):
            out.append(
                WindowedSubgroup(
                    amb, older.lo, older.hi, older.elements, older.left, col
                )
            )
    shift = newer.lo - older.lo
    if (
        shift != 0
        and newer.hi - older.hi == shift
        and newer.elements == older.elements
        and newer.left == older.left
        and newer.right == older.right
    ):
        # the whole window marches; the limit is a tails-only subgroup
        if shift > 0 and newer.left <= amb.right_tail:
            out.append(_tails_only(amb, newer.left, newer.left))
        if shift < 0 and newer.right <= amb.left_tail:
            out.append(_tails_only(amb, newer.right, newer.right))
    return out


def forward_part(alpha, w, depth, cap=DEFAULT_CAP):
    """Decreasing intersections of forward images, with stabilization either
    by reaching a fixed point or by certifying the marching-window limit.
    Marching may be periodic, so candidates are read off against every
    earlier iterate; each one is verified as an exact fixed point before it
    is returned."""
    if depth < 1:
        raise InputError("depth must be at least 1")
    history = [w]
    for _ in range(depth):
        current = history[-1]
        nxt = meet(w, apply(alpha, current, cap), cap)
        if nxt == current:
            return current, True
        for older in reversed(history):
            for cand in _limit_candidates(w.ambient, older, nxt):
                if meet(nxt, cand, cap) != cand:
                    continue
                if meet(w, apply(alpha, cand, cap), cap) == cand:
                    return cand, True
        history.append(nxt)
    return history[-1], False


# ---------------------------------------------------------------------------
# tidiness checks


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    witness: tuple
    stabilized: bool

    def __bool__(self):
        return self.ok


def check_t1(alpha, v, depth, cap=DEFAULT_CAP):
    """V = V+ V- as element sets over an aligned window."""
    plus, s1 = forward_part(alpha, v, depth, cap)
    minus, s2 = forward_part(alpha.inverse(), v, depth, cap)
    lo, hi, prod, left, right = product_set(plus, minus, cap)
    new_lo = min(lo, v.lo)
    new_hi = max(hi, v.hi)
    pv = _padded(v, new_lo, new_hi, cap)
    q = v.ambient.q
    # plus and minus lie in v, so the padded product is no larger than pv
    prod_padded = _pad(
        prod,
        [tuple(left)] * ((lo - new_lo) * q),
        [tuple(right)] * ((new_hi - hi) * q),
        cap,
    )
    ok = prod_padded == pv and left == v.left and right == v.right
    witness = ()
    if not ok:
        diff = (pv - prod_padded) or (prod_padded - pv)
        if diff:
            witness = min(diff)
        else:
            witness = (tuple(sorted(left)), tuple(sorted(right)))
    return CheckReport(ok=ok, witness=witness, stabilized=s1 and s2)


def check_t2(alpha, v, depth, cap=DEFAULT_CAP):
    """No orbit leaves and re-enters: for all m < k < n within depth,
    alpha^-m(V) n alpha^-n(V) is contained in alpha^-k(V)."""
    if depth < 2:
        raise InputError("depth must be at least 2 to see re-entry")
    images = [v]
    inv = alpha.inverse()
    for _ in range(depth):
        images.append(apply(inv, images[-1], cap))
    for m in range(depth - 1):
        for n in range(m + 2, depth + 1):
            both = meet(images[m], images[n], cap)
            for k in range(m + 1, n):
                if not contains(images[k], both, cap):
                    inner = meet(both, images[k], cap)
                    lo = min(both.lo, inner.lo)
                    hi = max(both.hi, inner.hi)
                    diff = _padded(both, lo, hi, cap) - _padded(
                        inner, lo, hi, cap
                    )
                    return CheckReport(
                        ok=False,
                        witness=(m, k, n, min(diff)),
                        stabilized=True,
                    )
    return CheckReport(ok=True, witness=(), stabilized=True)


def is_tidy(alpha, v, depth, cap=DEFAULT_CAP):
    t1 = check_t1(alpha, v, depth, cap)
    t2 = check_t2(alpha, v, depth, cap)
    return t1.ok and t2.ok and t1.stabilized


# ---------------------------------------------------------------------------
# the obstruction subgroups K and L


def _journey_composite(alpha, n, a, steps):
    """Automorphism applied to the value starting at coordinate (n, a)
    after the given number of forward steps."""
    fib = alpha.ambient.fiber
    comp = fib.identity_map()
    sigma_inv = _perm_inverse(alpha.sigma)
    pos_n, pos_a = n, a
    for _ in range(steps):
        pos_n -= alpha.d
        pos_a = sigma_inv[pos_a]
        step = [alpha.global_map[comp[i]] for i in range(fib.order)]
        tw = alpha.twist_at(pos_n, pos_a)
        if tw is not None:
            step = [tw[x] for x in step]
        comp = tuple(step)
    return comp


def _orbit_allowed(alpha, n, a, target, steps):
    """Values whose transported forward orbit eventually stays in target."""
    fib = alpha.ambient.fiber
    comp = _journey_composite(alpha, n, a, steps)
    gmap = alpha.global_map
    allowed = set()
    for v in range(fib.order):
        x = comp[v]
        ok = True
        seen = set()
        while x not in seen:
            if x not in target:
                ok = False
                break
            seen.add(x)
            x = gmap[x]
        if ok:
            allowed.add(v)
    return frozenset(allowed)


def _sigma_period(sigma):
    period = 1
    n = len(sigma)
    acc = tuple(sigma)
    ident = tuple(range(n))
    while acc != ident:
        acc = tuple(sigma[x] for x in acc)
        period += 1
    return period


def _asymptotic_zone(alpha):
    keys = [n for (n, _), _ in alpha.twists]
    if not keys:
        return 0, 0
    return min(keys), max(keys) + 1


def limit_subgroup(alpha, left_target, right_target, cap=DEFAULT_CAP):
    """Elements whose forward orbit lands in left_target-side tails and whose
    backward orbit stays in right_target-side tails, per coordinate.

    For a pure finite-order automorphism this is not defined here; callers
    special-case d = 0.  Returns (subgroup, exact flag).
    """
    amb = alpha.ambient
    if alpha.d == 0:
        raise InputError("limit subgroup needs a genuine shift")
    inv = alpha.inverse()
    z_lo = min(_asymptotic_zone(alpha)[0], _asymptotic_zone(inv)[0])
    z_hi = max(_asymptotic_zone(alpha)[1], _asymptotic_zone(inv)[1])
    period = abs(alpha.d) * _sigma_period(alpha.sigma)
    # forward images march toward -sign(d) infinity
    fwd_target = left_target if alpha.d > 0 else right_target
    bwd_target = right_target if alpha.d > 0 else left_target

    def allowed(n, a):
        # enough steps to carry the journey past every twist position
        steps = abs(n - z_lo) + abs(n - z_hi) + period + 2
        return _orbit_allowed(alpha, n, a, fwd_target, steps) & _orbit_allowed(
            inv, n, a, bwd_target, steps
        )

    probe = 2 * period
    lo = z_lo - probe
    hi = z_hi + probe
    cols = {}
    for n in range(lo, hi):
        for a in range(amb.q):
            cols[(n, a)] = allowed(n, a)
    left_sets = {cols[(n, a)] for n in range(lo, z_lo - period) for a in range(amb.q)}
    right_sets = {cols[(n, a)] for n in range(z_hi + period, hi) for a in range(amb.q)}
    exact = len(left_sets) <= 1 and len(right_sets) <= 1
    left_const = left_sets.pop() if len(left_sets) == 1 else frozenset(
        {amb.fiber.identity}
    )
    right_const = right_sets.pop() if len(right_sets) == 1 else frozenset(
        {amb.fiber.identity}
    )
    window_cols = {
        key: val
        for key, val in cols.items()
        if z_lo - period <= key[0] < z_hi + period
    }
    sub = product_subgroup(
        amb,
        z_lo - period,
        z_hi + period,
        window_cols,
        left=left_const & amb.left_tail,
        right=right_const & amb.right_tail,
    )
    return sub, exact


def k_subgroup(alpha, cap=DEFAULT_CAP):
    """Closure of the elements contracted to e forward with bounded backward
    orbit.  Exact for every representable automorphism here."""
    amb = alpha.ambient
    if alpha.d == 0:
        return _tails_only(amb, frozenset({amb.fiber.identity}),
                           frozenset({amb.fiber.identity})), True
    return limit_subgroup(alpha, amb.left_tail, amb.right_tail, cap)


def l_subgroup(alpha, v, depth, cap=DEFAULT_CAP):
    """Closure of the elements whose two-sided orbit leaves V only finitely
    often.  For a shiftless alpha, `cap` also bounds the order searched."""
    if alpha.d == 0:
        order = alpha.order(cap)
        out = v
        acc = alpha
        for _ in range(order - 1):
            out = meet(out, apply(acc, v, cap), cap)
            acc = acc.compose(alpha)
        return out, True
    return limit_subgroup(alpha, v.left, v.right, cap)


# ---------------------------------------------------------------------------
# the tidying procedure


@dataclass(frozen=True)
class TidyingTrace:
    subgroup: WindowedSubgroup
    trim_indices: tuple  # [alpha(V_i) : alpha(V_i) n V_i] per Step-1 iterate
    trimmed: WindowedSubgroup
    step1_complete: bool
    k_part: WindowedSubgroup
    k_exact: bool
    v_second: WindowedSubgroup
    result: WindowedSubgroup
    t1: CheckReport
    t2: CheckReport
    minimal: bool
    scale: int


def _conjugation_condition(v, k_part, target_lo, target_hi, target_set,
                           literal, cap):
    """Window elements of v surviving the Step-3a condition against every
    element of the K window block.  Returns the raw filtered set; the
    caller attaches the tail constraints."""
    amb = v.ambient
    fib = amb.fiber
    # the product window already covers both factors
    lo, hi = target_lo, target_hi
    pv = sorted(_padded(v, lo, hi, cap))
    pk = sorted(_padded(k_part, lo, hi, cap))
    if len(pv) * max(len(pk), 1) > cap:
        raise ResourceCapError(len(pv) * len(pk), cap)
    out = set()
    for e in pv:
        good = True
        for l in pk:
            if literal:
                cand = tuple(
                    fib.mul(x, fib.inv(y)) for x, y in zip(e, l)
                )
            else:
                cand = tuple(
                    fib.mul(fib.mul(y, x), fib.inv(y)) for x, y in zip(e, l)
                )
            if cand not in target_set:
                good = False
                break
        if good:
            out.add(e)
    return lo, hi, frozenset(out)


def _tail_condition(v_tail, k_tail, prod_tail, fib, literal):
    out = set()
    for t in v_tail:
        if literal:
            good = all(fib.mul(t, fib.inv(u)) in prod_tail for u in k_tail)
        else:
            good = all(
                fib.mul(fib.mul(u, t), fib.inv(u)) in prod_tail for u in k_tail
            )
        if good:
            out.add(t)
    return frozenset(out)


def tidying_procedure(alpha, u, depth, cap=DEFAULT_CAP, literal_step3=False):
    """Trim forward images until T1 holds, join with the obstruction K, and
    verify tidiness and index minimality of the result."""
    iterates = [u]
    current = u
    for _ in range(depth):
        current = meet(u, apply(alpha, current, cap), cap)
        if current == iterates[-1]:
            break
        iterates.append(current)
    indices = tuple(displacement_index(alpha, w, cap) for w in iterates)
    trimmed = None
    complete = False
    for w in iterates:
        rep = check_t1(alpha, w, depth, cap)
        if rep.ok and rep.stabilized:
            trimmed = w
            complete = True
            break
    if trimmed is None:
        trimmed = iterates[-1]
    k_part, k_exact = k_subgroup(alpha, cap)
    plo, phi, pset, pleft, pright = product_set(trimmed, k_part, cap)
    vlo, vhi, vset = _conjugation_condition(
        trimmed, k_part, plo, phi, pset, literal_step3, cap
    )
    new_left = _tail_condition(
        trimmed.left, k_part.left, pleft, alpha.ambient.fiber, literal_step3
    )
    new_right = _tail_condition(
        trimmed.right, k_part.right, pright, alpha.ambient.fiber, literal_step3
    )
    v_second = WindowedSubgroup(
        alpha.ambient, vlo, vhi, vset, new_left, new_right
    )
    result = product_subgroup_of(v_second, k_part, cap)
    t1 = check_t1(alpha, result, depth, cap)
    t2 = check_t2(alpha, result, depth, cap)
    scale = displacement_index(alpha, result, cap)
    minimal = all(scale <= ix for ix in indices)
    return TidyingTrace(
        subgroup=u,
        trim_indices=indices,
        trimmed=trimmed,
        step1_complete=complete,
        k_part=k_part,
        k_exact=k_exact,
        v_second=v_second,
        result=result,
        t1=t1,
        t2=t2,
        minimal=minimal,
        scale=scale,
    )


def prop21_comparison(alpha, u, depth, cap=DEFAULT_CAP):
    """Both halves of the procedure comparison: the K-based result and the
    L-based result, which must agree as subgroups."""
    trace = tidying_procedure(alpha, u, depth, cap)
    l_part, l_exact = l_subgroup(alpha, trace.trimmed, depth, cap)
    plo, phi, pset, pleft, pright = product_set(trace.trimmed, l_part, cap)
    vlo, vhi, vset = _conjugation_condition(
        trace.trimmed, l_part, plo, phi, pset, False, cap
    )
    new_left = _tail_condition(
        trace.trimmed.left, l_part.left, pleft, alpha.ambient.fiber, False
    )
    new_right = _tail_condition(
        trace.trimmed.right, l_part.right, pright, alpha.ambient.fiber, False
    )
    v_prime = WindowedSubgroup(
        alpha.ambient, vlo, vhi, vset, new_left, new_right
    )
    alt = product_subgroup_of(v_prime, l_part, cap)
    return trace.result, alt, trace.result == alt and l_exact


# ---------------------------------------------------------------------------
# iterative search for a common tidy subgroup


@dataclass(frozen=True)
class CommonTidyResult:
    found: bool
    subgroup: WindowedSubgroup
    report: str
    rounds: int

    def __bool__(self):
        return self.found


def common_tidy_iterative(generators, u, depth, cap=DEFAULT_CAP, max_rounds=12):
    """Re-tidy for each failing generator in turn until every generator is
    satisfied or the candidate sequence revisits itself."""
    generators = list(generators)
    if not generators:
        raise InputError("need at least one generator")
    current = u
    seen = {current}
    for round_no in range(1, max_rounds + 1):
        failing = [
            g for g in generators if not is_tidy(g, current, depth, cap)
        ]
        if not failing:
            return CommonTidyResult(
                found=True,
                subgroup=current,
                report=f"tidy for all {len(generators)} generators at depth {depth}",
                rounds=round_no,
            )
        trace = tidying_procedure(failing[0], current, depth, cap)
        current = trace.result
        if current in seen:
            return CommonTidyResult(
                found=False,
                subgroup=current,
                report=(
                    "search exhausted: tidying cycle revisited a candidate "
                    f"at depth {depth}"
                ),
                rounds=round_no,
            )
        seen.add(current)
    return CommonTidyResult(
        found=False,
        subgroup=current,
        report=f"search exhausted: no fixed point within {max_rounds} rounds",
        rounds=max_rounds,
    )
