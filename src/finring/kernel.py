"""Finite ring core: indexed elements, base rings, and structural caches.

Elements of a ring of order n are the integers 0..n-1.  Each construction
supplies encode/decode maps between indices and its natural element shape
(residues, matrices, coefficient vectors, ...), so the deciders only ever
see indices.

Products of many elements at once go through ``_mul_many`` (and sums and
differences through ``_add_many`` and ``_sub_many``): a lookup in the op
tables up to TABLE_LIMIT; above it, for a ring with radices, the product of
digit vectors through the |g|^2 structure constants of its additive
generators, so a whole row x*R or column R*x costs O(n * |g|) memory.
Besides these three, only ``_row_blocks`` knows whether the tables exist:
whole-ring reads take blocks of ROW_BLOCK // n rows with them, one row at a
time without them.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CapExceededError, RingAxiomError

# Order caps.  Exhaustive classification is O(order^2) per element in the
# worst case; arithmetic-only use tolerates larger rings.
CLASSIFY_CAP = 4096
ARITH_CAP = 65536

# Full op tables above this order cost too much memory; rings with radices
# then multiply through their structure constants (`_mul_many`), opaque
# rings through the scalar evaluators.
TABLE_LIMIT = 1024
# Products per row block on the table path (2 MiB of int64): the whole ring
# up to order 512, so a read never holds more than a few such arrays.
ROW_BLOCK = 2**18

# Axiom checking above TABLE_LIMIT, where no op tables exist: the laws other
# than the associativity of a ring with radices are checked on this many
# random triples.
LAW_SAMPLES = 10_000


class RingCaches:
    """Structural sets populated by freeze(), and the power indices (m, k):
    for every element x the least m < k with x^m == x^k (`_power_scan`)."""

    __slots__ = ("units", "unit_inverse", "idempotents", "nilpotents", "jacobson",
                 "unit_array", "power_indices")

    def __init__(self, units, unit_inverse, idempotents, nilpotents, jacobson, power_indices):
        self.units = frozenset(units)
        self.unit_array = np.array(sorted(self.units), dtype=np.int64)   # in index order
        self.unit_inverse = dict(unit_inverse)
        self.idempotents = frozenset(idempotents)
        self.nilpotents = frozenset(nilpotents)
        self.jacobson = frozenset(jacobson)
        self.power_indices = power_indices


class Ring:
    """A fully materialized finite ring.

    `add`, `mul`, `neg` are total evaluators on indices.  After freeze()
    the caches are populated, op tables are installed for small orders,
    and the ring must be treated as immutable.

    `radices` lists the sizes r_i of the cyclic factors of the additive
    group, little-endian: index sum(d_i * w_i), w_i = r_0 * ... * r_{i-1},
    is sum(d_i * g_i) with generator g_i at index w_i.  Without it the
    ring is opaque and its tables are filled pair by pair.  With it, the
    tables are derived from the generator rows, which is exact only when
    mul is additive in each argument: verify_ring_axioms spot-checks that
    on the squares x*x, and tests/test_kernel.py checks full scalar/table
    agreement for every construction.
    """

    def __init__(
        self,
        order: int,
        add: Callable[[int, int], int],
        mul: Callable[[int, int], int],
        neg: Callable[[int], int],
        one: int,
        label: str,
        kind: str = "opaque",
        decode: Optional[Callable[[int], object]] = None,
        encode: Optional[Callable[[object], int]] = None,
        fmt: Optional[Callable[[int], str]] = None,
        radices: Optional[Sequence[int]] = None,
        meta: Optional[dict] = None,
    ):
        if order < 1:
            raise ValueError("ring order must be >= 1")
        if radices is not None and math.prod(radices) != order:
            raise ValueError(f"radices {tuple(radices)} do not multiply to order {order}")
        self.order = order
        self.zero = 0
        self.one = one
        self.add = add
        self.mul = mul
        self.neg = neg
        self.label = label
        self.kind = kind
        self._decode = decode or (lambda i: i)
        self._encode = encode or (lambda v: int(v))
        self._fmt = fmt or (lambda i: str(i))
        self.radices = tuple(radices) if radices is not None else None
        self.meta = meta or {}
        self.caches: Optional[RingCaches] = None
        self._add_np: Optional[np.ndarray] = None
        self._mul_np: Optional[np.ndarray] = None
        self._neg_np: Optional[np.ndarray] = None
        self._structure: Optional[tuple] = None     # see _structure_constants

    # -- basic derived ops -------------------------------------------------

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def elements(self) -> range:
        return range(self.order)

    def decode(self, i: int):
        return self._decode(i)

    def encode(self, value) -> int:
        return self._encode(value)

    def format_element(self, i: int) -> str:
        return self._fmt(i)

    @property
    def frozen(self) -> bool:
        return self.caches is not None

    def __repr__(self):
        state = "frozen" if self.frozen else "raw"
        return f"<Ring {self.label} order={self.order} {state}>"


def _doubling_table(R: Ring, op, row0, combine) -> np.ndarray:
    """Op table of `op` from row 0 and the scalar rows of the generators.

    In the factor of weight w and radix r, rows [p*w, q*w), q = min(2p, r),
    are T[p*w:q*w] = combine(T[0:(q-p)*w], T[p*w]), with row p*w taken from
    (p/2)*w + (p/2)*w; rows below w are done before the factor starts.
    """
    n = R.order
    T = np.empty((n, n), dtype=np.int64)
    T[0] = row0
    w = 1
    for r in R.radices:
        if r > 1:
            T[w] = np.fromiter((op(w, z) for z in range(n)), dtype=np.int64, count=n)
        p = 1
        while p < r:
            if p > 1:
                h = (p // 2) * w
                T[p * w] = combine(T[h:h + 1], T[h])[0]
            q = min(2 * p, r)
            T[p * w:q * w] = combine(T[0:(q - p) * w], T[p * w])
            p = q
        w *= r
    return T


def _build_tables(R: Ring) -> None:
    """Install numpy op tables and table-backed evaluators (order <= TABLE_LIMIT).

    With R.radices only the generator rows of add and mul are scalar calls:
    row 0 is 0 + z = z and 0*z = 0, and `_doubling_table` fills the rest,
    x + z = (x - p*w) + (p*w + z) by composing add rows and
    x*z = (x - p*w)*z + (p*w)*z through the finished add table.  So the
    tables equal the scalar ops exactly when the indices follow R.radices
    and mul is additive in its left argument.  Every construction's mul is,
    being bilinear in the base-ring digits; tests/test_kernel.py checks the
    tables against the scalar ops on every construction.  Opaque rings
    (radices None) evaluate all n^2 pairs.
    """
    if R._mul_np is not None or R.order > TABLE_LIMIT:
        return
    n = R.order
    if R.radices is None:
        def table(op):
            return np.fromiter(
                (op(a, b) for a in range(n) for b in range(n)), dtype=np.int64, count=n * n
            ).reshape(n, n)

        add_np, mul_np = table(R.add), table(R.mul)
    else:
        add_np = _doubling_table(R, R.add, np.arange(n), lambda block, row: block[:, row])
        mul_np = _doubling_table(R, R.mul, 0, lambda block, row: add_np[block, row])
    neg_np = np.fromiter((R.neg(a) for a in range(n)), dtype=np.int64, count=n)
    R._mul_np = mul_np
    R._add_np = add_np
    R._neg_np = neg_np
    # One shared Python int per element, not a fresh int object per entry.
    ints = np.array(range(n), dtype=object)
    mt = ints[mul_np].tolist()
    at = ints[add_np].tolist()
    nt = neg_np.tolist()
    R.mul = lambda a, b: mt[a][b]
    R.add = lambda a, b: at[a][b]
    R.neg = lambda a: nt[a]


def _indicator(n: int, members) -> np.ndarray:
    """Boolean mask of length n that is True exactly on `members`."""
    mask = np.zeros(n, dtype=bool)
    mask[list(members)] = True
    return mask


def _structure_constants(R: Ring) -> tuple:
    """(D, C, r, w) of a ring with radices, built on first use and cached.

    w are the additive generators (`_additive_generators`) and r their
    radices.  D[x, l] = x // w_l % r_l is digit l of x, an n x |g| matrix,
    and C[i, j, l] is digit l of g_i*g_j, from |g|^2 scalar products.
    """
    if R._structure is None:
        w = np.array(_additive_generators(R), dtype=np.int64)
        r = np.array([q for q in R.radices if q > 1], dtype=np.int64)
        D = np.arange(R.order)[:, None] // w % r
        products = [R.mul(g, h) for g in w.tolist() for h in w.tolist()]
        C = D.take(products, 0).reshape(len(w), len(w), len(w))
        R._structure = (D, C, r, w)
    return R._structure


def _index(R: Ring, digits: np.ndarray) -> np.ndarray:
    """Element indices of unreduced digit vectors (last axis)."""
    _, _, r, w = _structure_constants(R)
    return digits % r @ w


def _scalar_many(op, *args) -> np.ndarray:
    """op on every (broadcast) element of the index arrays, by scalar calls."""
    return np.asarray(np.frompyfunc(op, len(args), 1)(*args), dtype=np.int64)


def _mul_many(R: Ring, a, b) -> np.ndarray:
    """The elementwise products a*b of two index arrays, which broadcast.

    With op tables this is a lookup, of whole rows or columns when one side
    is a column block (k, 1) and the other every element in order.  Above
    TABLE_LIMIT, a ring with radices multiplies digit vectors: mul is
    additive in each argument, so a*b = sum over i, j of a_i * b_j *
    (g_i*g_j), reduced mod r digit by digit after each contraction.  A
    single a gives the row a*b as one |g| x |g| matrix (the digits of
    a*g_j) applied to the digits of b, a single b likewise the column;
    otherwise the sum runs over j.  Opaque rings call the scalar mul on
    every pair.
    """
    a, b = np.asarray(a), np.asarray(b)
    if R._mul_np is not None:
        every = (R.order,)
        if a.shape[1:] == (1,) and b.shape == every and (b == np.arange(R.order)).all():
            return R._mul_np[a[:, 0]]                  # the rows a*R
        if b.shape[1:] == (1,) and a.shape == every and (a == np.arange(R.order)).all():
            return R._mul_np[:, b[:, 0]].T             # the columns R*b
        return R._mul_np[a, b]
    if R.radices is None:
        return _scalar_many(R.mul, a, b)
    D, C, r, _ = _structure_constants(R)
    shape = np.broadcast_shapes(a.shape, b.shape)
    L = len(r)
    if a.size == 1:          # [j, l] -> digit l of a*g_j
        digits = D.take(b, 0) @ ((D[a.item()] @ C.reshape(L, L * L)).reshape(L, L) % r)
    elif b.size == 1:        # [i, l] -> digit l of g_i*b
        digits = D.take(a, 0) @ (C.transpose(0, 2, 1) @ D[b.item()] % r)
    else:
        da, db = D.take(a, 0), D.take(b, 0)
        digits = np.zeros(shape + (L,), dtype=np.int64)
        for j in range(L):   # the digits of a*g_j, times b_j
            digits += db[..., j, None] * (da @ C[:, j] % r)
    return _index(R, digits).reshape(shape)


def _add_many(R: Ring, a, b) -> np.ndarray:
    """The elementwise sums a + b of two index arrays, which broadcast;
    digit by digit above TABLE_LIMIT (see `_mul_many`)."""
    if R._add_np is not None:
        return R._add_np[a, b]
    if R.radices is None:
        return _scalar_many(R.add, a, b)
    D = _structure_constants(R)[0]
    return _index(R, D.take(a, 0) + D.take(b, 0))


def _sub_many(R: Ring, a, b) -> np.ndarray:
    """The elementwise differences a - b, as `_add_many`."""
    if R._add_np is not None:
        return R._add_np[a, R._neg_np[b]]
    if R.radices is None:
        return _scalar_many(R.sub, a, b)
    D = _structure_constants(R)[0]
    return _index(R, D.take(a, 0) - D.take(b, 0))


def _row_blocks(R: Ring, xs) -> list:
    """The index array xs as column blocks (b, 1) in index order, so that
    ``_mul_many(R, block, every)`` is the rows x*R of the block's x: blocks
    of ROW_BLOCK // n of them with op tables, else one x per block, in
    O(n * |g|) memory for a ring with radices."""
    xs = np.asarray(xs, dtype=np.int64)[:, None]
    rows = max(1, ROW_BLOCK // R.order) if R._mul_np is not None else 1
    return [xs[i:i + rows] for i in range(0, len(xs), rows)]


def _powers(R: Ring, base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """base[i]^exponent[i] for every i, multiplied in the order ring_pow uses."""
    result = np.full_like(base, R.one)
    while exponent.any():
        result = np.where((exponent & 1) == 1, _mul_many(R, result, base), result)
        base = _mul_many(R, base, base)
        exponent = exponent >> 1
    return result


def _power_scan(R: Ring) -> tuple:
    """For every element x at once: the least (m, k), m < k, with x^m == x^k
    (as periodic_indices finds it), in O(n) memory.  Brent's cycle detection
    steps x^j -> x^(j+1) for the open x and compares x^j with x (a hit gives
    m = 1, k = j) and with the saved x^s, s = 2^i < j <= 2s (a hit gives
    k - m = j - s once s >= m, k - m); for those x m is then the least j
    with x^j == x^(j+k-m)."""
    n = R.order
    x = np.arange(n)
    m, period = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    live, saved, power = x, x, _mul_many(R, x, x)    # x^s and x^j, s = 1, j = 2
    s, j = 1, 2
    while live.size:
        back = power == live                           # x^j == x
        hit = back | (power == saved)
        if hit.any():
            m[live[back]] = 1
            period[live[hit]] = np.where(back, j - 1, j - s)[hit]
            live, saved, power = live[~hit], saved[~hit], power[~hit]
        if j == 2 * s:
            saved, s = power, j
        power = _mul_many(R, power, live)
        j += 1
    live = np.flatnonzero(m == 0)
    low, high = live, _powers(R, live, period[live] + 1)    # x^j and x^(j+k-m), j = 1
    j = 1
    while live.size:
        hit = low == high
        m[live[hit]] = j
        live, low, high = live[~hit], low[~hit], high[~hit]
        low, high = _mul_many(R, np.stack((low, high)), live)
        j += 1
    return m, m + period


def _compute_units(R: Ring):
    """(unit -> inverse, power indices (m, k) of `_power_scan`).  x is a unit
    iff m = 1 and x^(k-1) = 1, and then x^(k-2) is its inverse; every pair
    is checked two-sided, u*v == v*u == 1."""
    m, k = _power_scan(R)
    u = np.flatnonzero(m == 1)
    v = _powers(R, u, k[u] - 2)
    ok = (_mul_many(R, u, v) == R.one) & (_mul_many(R, v, u) == R.one)
    return dict(zip(u[ok].tolist(), v[ok].tolist())), (m, k)


def _compute_nilpotents(R: Ring):
    # x is nilpotent iff x^(2^k) = 0 for 2^k >= order (nilpotency index
    # is at most the order in a finite ring).
    n = R.order
    y = np.arange(n)
    for _ in range(max(1, (n - 1).bit_length())):
        y = _mul_many(R, y, y)
    return set(np.flatnonzero(y == 0).tolist())


def _compute_jacobson(R: Ring, units):
    # J(R) = { x : 1 - yx is a unit for all y }; one-sided quasi-regularity
    # suffices in a finite ring.  Rows y*x over the x that passed every
    # earlier y, a block of y at a time.
    every = np.arange(R.order)
    quasi = _indicator(R.order, units)[_sub_many(R, R.one, every)]     # 1 - z is a unit
    x = every
    for ys in _row_blocks(R, every):
        x = x[quasi[_mul_many(R, ys, x)].all(0)]
    return set(x.tolist())


def freeze(R: Ring, cap: int = CLASSIFY_CAP) -> Ring:
    """Populate the structural caches; idempotent; returns the same ring.

    Op tables are built up to TABLE_LIMIT.  On either side of it every set
    is read through `_mul_many` and `_row_blocks`, in O(n * |g|) memory per
    read above the limit for a ring with radices: one power scan gives the
    power indices (m, k) of every element and from them the units and their
    inverses (`_compute_units`); idempotents and nilpotents are whole-ring
    products; the Jacobson radical reads the rows y*R.
    """
    if R.caches is not None:
        return R
    if R.order > cap:
        raise CapExceededError(
            f"freezing {R.label} (order {R.order}) exceeds cap {cap}"
        )
    _build_tables(R)
    inverse, power_indices = _compute_units(R)
    units = frozenset(inverse)
    x = np.arange(R.order)
    idempotents = frozenset(np.flatnonzero(_mul_many(R, x, x) == x).tolist())
    nilpotents = frozenset(_compute_nilpotents(R))
    jacobson = frozenset(_compute_jacobson(R, units))
    R.caches = RingCaches(units, inverse, idempotents, nilpotents, jacobson, power_indices)
    return R


def ring_pow(R: Ring, x: int, k: int) -> int:
    """k-fold product, x^0 = one."""
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


def is_nilpotent(R: Ring, x: int) -> bool:
    """Iterate powers of x until zero or a repeat; independent of the cache."""
    seen = set()
    y = x
    while y not in seen:
        if y == 0:
            return True
        seen.add(y)
        y = R.mul(y, x)
    return False


def make_zmod(n: int, cap: int = ARITH_CAP) -> Ring:
    """The ring of residues modulo n."""
    if n == 0:
        raise ValueError("Z(0) is not a ring here; n must be >= 1")
    if n > cap:
        raise CapExceededError(f"Z({n}) exceeds cap {cap}")
    return Ring(
        order=n,
        add=lambda a, b: (a + b) % n,
        mul=lambda a, b: (a * b) % n,
        neg=lambda a: (-a) % n,
        one=1 % n,
        label=f"Z({n})",
        kind="zmod",
        radices=(n,),
        meta={"n": n},
    )


def direct_product(R: Ring, S: Ring, cap: int = ARITH_CAP) -> Ring:
    """Componentwise ring on pairs; index = a * |S| + b."""
    n = R.order * S.order
    if n > cap:
        raise CapExceededError(f"{R.label} x {S.label} exceeds cap {cap}")
    s = S.order

    def add(a, b):
        return R.add(a // s, b // s) * s + S.add(a % s, b % s)

    def mul(a, b):
        return R.mul(a // s, b // s) * s + S.mul(a % s, b % s)

    return Ring(
        order=n,
        add=add,
        mul=mul,
        neg=lambda a: R.neg(a // s) * s + S.neg(a % s),
        one=R.one * s + S.one,
        label=f"{R.label} x {S.label}",
        kind="product",
        decode=lambda i: (R.decode(i // s), S.decode(i % s)),
        encode=lambda v: R.encode(v[0]) * s + S.encode(v[1]),
        fmt=lambda i: f"({R.format_element(i // s)}, {S.format_element(i % s)})",
        radices=None if None in (R.radices, S.radices) else S.radices + R.radices,
        meta={"factors": (R, S)},
    )


# -- axiom verification ----------------------------------------------------


def _additive_generators(R: Ring) -> list:
    """Elements that generate R's additive group.

    The radix weights w_i with r_i > 1; every element of an opaque ring.
    """
    if R.radices is None:
        return list(range(R.order))
    gens, w = [], 1
    for r in R.radices:
        if r > 1:
            gens.append(w)
        w *= r
    return gens


def _assoc_violation(mul, gens) -> Optional[tuple]:
    """Least (g, h, k) over `gens` with (g*h)*k != g*(h*k), or None.

    `mul` multiplies index arrays elementwise, with broadcasting.  When mul
    is additive in each argument and `gens` generate the additive group,
    both sides are additive in each of g, h, k, so None means mul is
    associative.
    """
    G = np.asarray(gens)
    GG = mul(G[:, None], G[None, :])                   # [h, k] -> h*k
    for i, g in enumerate(gens):
        bad = mul(GG[i][:, None], G[None, :]) != mul(g, GG)
        if bad.any():
            h, k = np.argwhere(bad)[0]
            return (g, gens[h], gens[k])
    return None


def _law_violation(A: np.ndarray, M: np.ndarray, gens) -> Optional[tuple]:
    """First ring law that the op tables A (add) and M (mul) break, or None.

    Returns (law, witness): a triple (a, b, c) that breaks the law as
    written below, looked up in A and M, or (x,) for an element x that
    the generators do not reach.  Given that 0 is an additive identity and
    every element has an additive inverse in A, as verify_ring_axioms
    checks first, the checks prove each law for all elements in
    O(n^2 * |gens|) lookups:

    - A == A.T;
    - (a + g) + c == a + (g + c) for all a, c;
    - the closure of {0} under + g is everything.  With the two checks
      above, the b with (a + b) + c == a + (b + c) for all a, c contain 0
      and are closed under + g, so A is associative;
    - a*(b + g) == a*b + a*g and (b + g)*a == b*a + g*a for all a, b.  By
      the same closure, M is additive in each argument (b = 0 gives
      a*0 = 0 in the group A);
    - (g*h)*k == g*(h*k) on generator triples (`_assoc_violation`).

    With every element as a generator (an opaque ring) this is the
    exhaustive O(n^3) check.
    """
    n = A.shape[0]
    if not np.array_equal(A, A.T):
        a, b = np.argwhere(A != A.T)[0]
        return ("addition not commutative", (int(a), int(b)))
    for g in gens:
        bad = A[A[:, g]] != A[:, A[g]]
        if bad.any():
            a, c = np.argwhere(bad)[0]
            return ("addition not associative", (int(a), g, int(c)))
    # Breadth-first closure of {0} under + g, as a boolean-mask frontier.
    G = np.asarray(gens)
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        step = np.zeros(n, dtype=bool)
        step[A[frontier[:, None], G]] = True
        step &= ~reached
        reached |= step
        frontier = np.flatnonzero(step)
    if not reached.all():
        return ("additive generators do not generate", (int(np.argmin(reached)),))
    for g in gens:
        bad = M[:, A[:, g]] != A[M, M[:, g, None]]     # [a, b]
        if bad.any():
            a, b = np.argwhere(bad)[0]
            return ("left distributivity fails", (int(a), int(b), g))
        bad = M[A[:, g]] != A[M, M[g]]                 # [b, a]
        if bad.any():
            b, a = np.argwhere(bad)[0]
            return ("right distributivity fails", (int(a), int(b), g))
    bad = _assoc_violation(lambda x, y: M[x, y], gens)
    if bad is not None:
        return ("multiplication not associative", bad)
    return None


def verify_ring_axioms(R: Ring, rng: Optional[random.Random] = None) -> None:
    """Raise RingAxiomError (an AssertionError) on the first violated ring axiom.

    Identities and inverses are first checked through the scalar ops on
    the first 4096 elements (all of them up to CLASSIFY_CAP).  Up to
    TABLE_LIMIT the op tables are then built and checked: identities and
    inverses on every element, and every law exhaustively against the
    additive generators (`_law_violation`).  Above it no tables exist.
    For a ring with radices the scalar add must then agree with the
    digitwise sum on x + g for the same x and every generator g,
    associativity is checked on all |g|^3 generator triples through the
    scalar mul (exhaustive when mul is additive), and the other laws,
    additivity included, on LAW_SAMPLES random triples; an opaque ring
    gets the sampled laws only.  When this call builds the tables, or
    above TABLE_LIMIT, it also compares the scalar mul with the table or
    with `_mul_many` on the squares x*x of those x, a spot check that the
    scalar mul is additive, as tables and structure constants built from
    R.radices assume; tests/test_kernel.py checks full agreement for every
    construction.  The checks raise explicitly, so they also hold under
    ``python -O``.
    """
    n = R.order
    zero, one = R.zero, R.one
    label = R.label
    if n == 1:
        if not (R.add(0, 0) == 0 and R.mul(0, 0) == 0):
            raise RingAxiomError(f"{label}: the zero ring's operations do not fix 0")
        return
    if zero == one:
        raise RingAxiomError(f"{label}: zero == one with order > 1")

    add, mul, neg = R.add, R.mul, R.neg
    checked = min(n, 4096)      # elements checked through the scalar ops
    for x in range(checked):
        if add(x, zero) != x:
            raise RingAxiomError(f"{label}: additive identity fails at {x}")
        if add(x, neg(x)) != zero:
            raise RingAxiomError(f"{label}: inverse fails at {x}")
        if not (mul(x, one) == x and mul(one, x) == x):
            raise RingAxiomError(f"{label}: multiplicative identity fails at {x}")

    # What the scalar ops are compared with: the tables this call builds,
    # or above TABLE_LIMIT the digits and structure constants of R.radices.
    derived = None
    x = np.arange(checked)
    if n <= TABLE_LIMIT and R._mul_np is None:
        _build_tables(R)
        derived = "table"
    elif R._mul_np is None and R.radices is not None:
        derived = "structure constants"
        G = np.array(_additive_generators(R))[:, None]
        sums, digitwise = _scalar_many(add, G, x), _add_many(R, G, x)    # [g, y] -> g + y
        if (sums != digitwise).any():
            g, y = np.argwhere(sums != digitwise)[0]
            raise RingAxiomError(f"{label}: scalar add gives {G[g, 0]}+{y} = {sums[g, y]}, "
                                 f"its digits {digitwise[g, y]}")
    if derived is not None:
        squares, products = _scalar_many(mul, x, x), _mul_many(R, x, x)
        bad = np.flatnonzero(squares != products)
        if bad.size:
            y = int(bad[0])
            raise RingAxiomError(
                f"{label}: scalar mul gives {y}*{y} = {squares[y]}, its {derived} {products[y]}")

    if R._mul_np is not None:
        A, M, N = R._add_np, R._mul_np, R._neg_np
        x = np.arange(n)
        for law, bad in [("additive identity", A[:, zero] != x),
                         ("inverse", A[x, N] != zero),
                         ("multiplicative identity", (M[:, one] != x) | (M[one] != x))]:
            if bad.any():
                raise RingAxiomError(f"{label}: {law} fails at {int(bad.argmax())}")
        bad = _law_violation(A, M, _additive_generators(R))
        if bad is not None:
            law, at = bad
            raise RingAxiomError(f"{label}: {law} at {at}")
        return

    if R.radices is not None:
        bad = _assoc_violation(np.frompyfunc(lambda a, b: mul(int(a), int(b)), 2, 1),
                               _additive_generators(R))
        if bad is not None:
            raise RingAxiomError(f"{label}: multiplication not associative at {bad}")
    rng = rng or random.Random(0)
    for _ in range(LAW_SAMPLES):
        a, b, c = (rng.randrange(n) for _ in range(3))
        if add(a, b) != add(b, a):
            raise RingAxiomError(f"{label}: addition not commutative at {(a, b)}")
        if add(add(a, b), c) != add(a, add(b, c)):
            raise RingAxiomError(f"{label}: addition not associative at {(a, b, c)}")
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            raise RingAxiomError(
                f"{label}: multiplication not associative at {(a, b, c)}")
        if mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
            raise RingAxiomError(f"{label}: left distributivity fails at {(a, b, c)}")
        if mul(add(b, c), a) != add(mul(b, a), mul(c, a)):
            raise RingAxiomError(f"{label}: right distributivity fails at {(a, b, c)}")
