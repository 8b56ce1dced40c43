"""Brute-force references shared by the tests.

The per-element deciders below are the definitions of the element flags,
one element at a time with scalar ops; the tests hold the whole-ring masks
of ``deciders.classify`` to them.  Each takes a frozen ring.
"""

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from finring import Ring, make_zmod, matrix_ring
from finring.kernel import _add_many, _indicator, _mul_many, _row_blocks, _sub_many


def ring_pow(R, x: int, k: int) -> int:
    """k-fold product by scalar binary exponentiation, x^0 = one."""
    if k < 0:
        raise ValueError("exponent must be >= 0")
    result = R.one
    base = x
    while k:
        if k & 1:
            result = R.mul(result, base)
        base = R.mul(base, base)
        k >>= 1
    return result


@functools.lru_cache(maxsize=16)
def _generator_products(R) -> tuple:
    """(places, terms): (w, r) for every radix r > 1 of R, w its weight, and
    (i, j, digits) for every product g_i*g_j of generators that is not 0,
    digits its nonzero digits (l, d), all read off R.radices and
    R.products."""
    places, w = [], 1
    for r in R.radices:
        if r > 1:
            places.append((w, r))
        w *= r
    terms = []
    for i, row in enumerate(R.products.tolist()):
        for j, p in enumerate(row):
            digits = [(l, p // v % q) for l, (v, q) in enumerate(places) if p // v % q]
            if digits:
                terms.append((i, j, digits))
    return places, terms


def bilinear_product(R, a: int, b: int) -> int:
    """a*b by the definition of the product, in Python integers: the
    bilinear extension a*b = sum over i, j of a_i * b_j * (g_i*g_j), the
    digits of a, b and g_i*g_j read off R.radices and added digit by digit
    modulo the radices.  It reads R.radices and R.products alone, through
    no kernel helper, so it does not share the structure constants that
    ``_mul_many`` and the scalar R.mul compute with."""
    places, terms = _generator_products(R)
    da = [a // w % r for w, r in places]
    db = [b // w % r for w, r in places]
    total = [0] * len(places)
    for i, j, digits in terms:
        ab = da[i] * db[j]
        if ab:
            for l, d in digits:
                total[l] += ab * d
    return sum(t % r * w for t, (w, r) in zip(total, places))


def digit_sum(R, a: int, b: int, sign: int = 1) -> int:
    """a + sign*b by the definition of the sum, in Python integers: digit by
    digit modulo R.radices, through no kernel helper."""
    places, _ = _generator_products(R)
    return sum((a // w % r + sign * (b // w % r)) % r * w for w, r in places)


def is_nilpotent(R, x: int) -> bool:
    """Iterate the powers of x until zero or a repeat; independent of the cache."""
    seen = set()
    y = x
    while y not in seen:
        if y == 0:
            return True
        seen.add(y)
        y = R.mul(y, x)
    return False


def _units(R) -> np.ndarray:
    """The units of a frozen R, in index order."""
    return np.array(sorted(R.caches.units), dtype=np.int64)


def _check_assoc_np(T):
    """Least (a, b, c) with T[T[a, b], c] != T[a, T[b, c]], or None; all n^3 triples."""
    for a in range(T.shape[0]):
        bad = T[T[a]] != T[a][T]
        if bad.any():
            b, c = np.argwhere(bad)[0]
            return (a, int(b), int(c))
    return None


def _closure(A, gens):
    """The closure of {0} under + g, by plain lookups."""
    reached, todo = {0}, [0]
    while todo:
        x = todo.pop()
        for g in gens:
            if A[x, g] not in reached:
                reached.add(int(A[x, g]))
                todo.append(int(A[x, g]))
    return reached


@dataclass
class Decomposition:
    """A witnessed sum decomposition x = e + other (possibly after a unit multiple)."""

    kind: str                      # "nil-clean" | "strongly-nil-clean" | "clean"
    idempotent: int
    other: int
    unit: Optional[int] = None     # u such that u*x = idempotent + other

    def verify(self, R, x) -> bool:
        caches = R.caches
        if self.unit is not None and self.unit not in caches.units:
            return False
        target = x if self.unit is None else R.mul(self.unit, x)
        if R.add(self.idempotent, self.other) != target:
            return False
        if self.idempotent not in caches.idempotents:
            return False
        if self.kind == "clean":
            return self.other in caches.units
        if self.other not in caches.nilpotents:
            return False
        if self.kind == "strongly-nil-clean":
            return R.mul(self.idempotent, self.other) == R.mul(self.other, self.idempotent)
        return True


def is_regular(R, x) -> bool:
    """x = x*y*x for some y: the row x*R multiplied by x holds x."""
    return bool((_mul_many(R, _mul_many(R, x, np.arange(R.order)), x) == x).any())


def is_unit_regular(R, x) -> bool:
    """x = x*u*x for some unit u: the products x*u over the units, multiplied
    by x, hold x."""
    return bool((_mul_many(R, _mul_many(R, x, _units(R)), x) == x).any())


def is_strongly_regular(R, x) -> bool:
    """x lies in x^2*R and in R*x^2."""
    sq, every = _mul_many(R, x, x), np.arange(R.order)
    return bool((_mul_many(R, sq, every) == x).any() and (_mul_many(R, every, sq) == x).any())


def is_nil_clean(R, x) -> Optional[Decomposition]:
    """x = idempotent + nilpotent, least idempotent index first."""
    caches = R.caches
    for e in sorted(caches.idempotents):
        b = R.sub(x, e)
        if b in caches.nilpotents:
            return Decomposition("nil-clean", e, b)
    return None


def is_strongly_nil_clean(R, x) -> Optional[Decomposition]:
    """As is_nil_clean, with the two parts required to commute."""
    caches = R.caches
    for e in sorted(caches.idempotents):
        b = R.sub(x, e)
        if b in caches.nilpotents and R.mul(e, b) == R.mul(b, e):
            return Decomposition("strongly-nil-clean", e, b)
    return None


def snc_poly_criterion(R, x) -> bool:
    """x - x^2 nilpotent; Diesl's route to strong nil-cleanness."""
    return R.sub(x, R.mul(x, x)) in R.caches.nilpotents


def is_clean(R, x) -> Optional[Decomposition]:
    """x = idempotent + unit."""
    caches = R.caches
    for e in sorted(caches.idempotents):
        u = R.sub(x, e)
        if u in caches.units:
            return Decomposition("clean", e, u)
    return None


def _least_unit_multiple(R, x, decide) -> Optional[Decomposition]:
    """decide's decomposition of the first unit multiple u*x, over the units
    in index order, with u recorded on it; None when there is none."""
    units = _units(R)
    for u, ux in zip(units.tolist(), _mul_many(R, units, x).tolist()):
        dec = decide(R, ux)
        if dec is not None:
            dec.unit = u
            return dec
    return None


def is_unit_nil_clean(R, x) -> Optional[Decomposition]:
    """Some unit multiple u*x is nil-clean."""
    return _least_unit_multiple(R, x, is_nil_clean)


def is_strongly_unit_nil_clean(R, x) -> Optional[Decomposition]:
    """Some unit multiple u*x is strongly nil-clean, by idempotent search."""
    return _least_unit_multiple(R, x, is_strongly_nil_clean)


def _power_orbit(R, x) -> tuple:
    """The distinct powers x^1, ..., x^(k-1), and the m < k with x^k = x^m."""
    seen = {}
    power = x
    k = 1
    while power not in seen:
        seen[power] = k
        power = R.mul(power, x)
        k += 1
    return list(seen), seen[power]


def periodic_indices(R, x) -> tuple:
    """Lexicographically least (m, n), 1 <= m < n, with x^m = x^n."""
    powers, m = _power_orbit(R, x)
    return m, len(powers) + 1


def is_periodic(R, x) -> bool:
    """x^m = x^n for the pair periodic_indices gives, recomputed by ring_pow."""
    m, n = periodic_indices(R, x)
    return 1 <= m < n and ring_pow(R, x, m) == ring_pow(R, x, n)


def is_strongly_pi_regular(R, x) -> bool:
    """Some power x^1, ..., x^(k-1) of x is strongly regular, tried in order."""
    powers, _ = _power_orbit(R, x)
    return any(is_strongly_regular(R, p) for p in powers)


# Every element flag of ``classify`` by its definition, in report order.
ELEMENT_DECIDERS = {
    "regular": is_regular,
    "unit_regular": is_unit_regular,
    "strongly_regular": is_strongly_regular,
    "clean": lambda R, x: is_clean(R, x) is not None,
    "nil_clean": lambda R, x: is_nil_clean(R, x) is not None,
    "strongly_nil_clean": lambda R, x: is_strongly_nil_clean(R, x) is not None,
    "unit_nil_clean": lambda R, x: is_unit_nil_clean(R, x) is not None,
    "strongly_unit_nil_clean": lambda R, x: is_strongly_unit_nil_clean(R, x) is not None,
    "strongly_pi_regular": is_strongly_pi_regular,
    "periodic": is_periodic,
}


def transposed_product():
    """X o Y = (XY)^T on 2 x 2 matrices over Z(2): bilinear, not associative."""
    M2 = matrix_ring(make_zmod(2), 2)
    gens = [1, 2, 4, 8]
    products = [[M2.encode(tuple(zip(*M2.decode(M2.mul(g, h))))) for h in gens] for g in gens]
    return Ring(16, products, one=M2.one, label="(XY)^T", radices=M2.radices)


def unit_row_masks(R, nil_clean, snc):
    """The unit_regular, unit_nil_clean and strongly_unit_nil_clean masks of a
    frozen R by one row u*R per unit u: x is in each when some u*x is
    idempotent, in the mask nil_clean, or in the mask snc."""
    n = R.order
    every = np.arange(n)
    targets = np.stack((_indicator(n, R.caches.idempotents), nil_clean, snc))
    masks = np.zeros((3, n), dtype=bool)
    for us in _row_blocks(R, _units(R)):
        masks |= targets[:, _mul_many(R, us, every)].any(1)      # [t, j, x] -> u_j*x
    return masks


def jacobson_rows(R):
    """J(R) of a frozen R by its definition, the x with 1 - y*x a unit for
    every y: one row y*R per y, over the x that passed every earlier y."""
    every = np.arange(R.order)
    quasi = _indicator(R.order, R.caches.units)[_sub_many(R, R.one, every)]
    x = every
    for ys in _row_blocks(R, every):
        x = x[quasi[_mul_many(R, ys, x)].all(0)]
    return set(x.tolist())


def ni_search(R):
    """The first sum or product of nilpotents of a frozen R that is not
    nilpotent, or None: a + b over nilpotents a, b in index order; then, for
    each nilpotent a in index order and each r, r*a and then a*r."""
    is_nil = _indicator(R.order, R.caches.nilpotents)
    N = np.flatnonzero(is_nil)
    every = np.arange(R.order)
    for a in _row_blocks(R, N):
        bad = ~is_nil[_add_many(R, a, N)]               # [i, j]: a_i + N_j
        if bad.any():
            i, j = np.unravel_index(bad.argmax(), bad.shape)
            return int(_add_many(R, a[i, 0], N[j]))
    for a in _row_blocks(R, N):
        bad = np.stack((~is_nil[_mul_many(R, every, a)], ~is_nil[_mul_many(R, a, every)]), -1)
        if bad.any():                                   # [i, r, side]: r*a_i, a_i*r
            i, r, side = np.unravel_index(bad.argmax(), bad.shape)
            a_i = a[i, 0]
            return int(_mul_many(R, r, a_i) if side == 0 else _mul_many(R, a_i, r))
    return None


def left_morphic_reference(R):
    """Per element x, whether some b has l(x) = R*b and l(b) = R*x, where
    l(x) = {y : y*x = 0}: frozensets of each column R*a, searched by ideal."""
    every = np.arange(R.order)
    left_ann, principal, by_principal = [], [], {}
    for a in R.elements():
        col = _mul_many(R, every, a)                # R*a
        left_ann.append(frozenset(every[col == 0].tolist()))
        principal.append(frozenset(col.tolist()))
        by_principal.setdefault(principal[-1], []).append(a)
    return [any(left_ann[b] == principal[x] for b in by_principal.get(left_ann[x], ()))
            for x in R.elements()]


def textbook_table(R):
    """The n x n table of x*y in a construction R by the textbook formula of
    its kind, on decoded elements and with the base ring's own ops.

    Every element is decoded into its entries as base indices (base.encode),
    the formula runs on all pairs at once through the base op tables, and
    each resulting tuple of entries is mapped back to the element that
    decodes to it (-1 where there is none).
    """
    base, kind = R.meta["base"], R.kind
    B = np.arange(base.order)
    add, mul = (op(base, B[:, None], B).astype(np.int64) for op in (_add_many, _mul_many))

    def total(values):
        return functools.reduce(lambda u, v: add[u, v], values)

    matrix = kind in ("matrix", "upper_triangular", "formal_matrix")

    def entries(value):
        return [e for row in value for e in row] if matrix else list(value)

    E = np.array([[base.encode(e) for e in entries(R.decode(z))] for z in R.elements()],
                 dtype=np.int64).reshape(R.order, -1)
    X, Y = E[:, None, :], E[None, :, :]
    if matrix:
        # Entry (i, j) is the sum over t of s^d(i,t,j) x[i,t] y[t,j] with
        # d(i,t,j) = [i>t] + [t>j] - [i>j] (formal matrix rings; s^0 = 1 in
        # M_k, and U_k is the subring of M_k with zeros below the diagonal).
        k, s = R.meta["k"], R.meta.get("s")

        def weight(i, t, j):
            w = base.one
            for _ in range((i > t) + (t > j) - (i > j) if s is not None else 0):
                w = base.mul(s, w)
            return w

        P = [total(mul[weight(i, t, j), mul[X[..., i * k + t], Y[..., t * k + j]]]
                   for t in range(k)) for i in range(k) for j in range(k)]
    elif kind == "generalized_matrix":
        # K_s(R): (a1, x1, y1, b1)(a2, x2, y2, b2) =
        # (a1a2 + s x1y2, a1x2 + x1b2, y1a2 + b1y2, s y1x2 + b1b2).
        s = R.meta["s"]
        a1, x1, y1, b1 = (X[..., c] for c in range(4))
        a2, x2, y2, b2 = (Y[..., c] for c in range(4))
        P = [add[mul[a1, a2], mul[s, mul[x1, y2]]], add[mul[a1, x2], mul[x1, b2]],
             add[mul[y1, a2], mul[b1, y2]], add[mul[s, mul[y1, x2]], mul[b1, b2]]]
    elif kind == "group_ring":
        # Convolution: (sum a_g g)(sum b_h h) = sum over g, h of a_g b_h (gh).
        G = R.meta["group"]
        P = [np.zeros((R.order, R.order), dtype=np.int64) for _ in range(G.order)]
        for g in range(G.order):
            for h in range(G.order):
                gh = G.op(g, h)
                P[gh] = add[P[gh], mul[X[..., g], Y[..., h]]]
    elif kind == "trivial_extension":
        # (a, m)(a', m') = (aa', am' + ma').
        P = [mul[X[..., 0], Y[..., 0]], add[mul[X[..., 0], Y[..., 1]], mul[X[..., 1], Y[..., 0]]]]
    else:
        raise ValueError(f"no textbook product for kind {kind!r}")
    place = base.order ** np.arange(E.shape[1])
    element = np.full(base.order ** E.shape[1], -1)
    element[E @ place] = R.elements()
    return element[np.stack(P, -1) @ place]
