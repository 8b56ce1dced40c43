"""Finite ring core: indexed elements, base rings, and structural caches.

Elements of a ring of order n are the integers 0..n-1.  Each construction
supplies encode/decode maps between indices and its natural element shape
(residues, matrices, coefficient vectors, ...), so the deciders only ever
see indices.
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

# Full op tables above this order cost too much memory; fall back to the
# scalar evaluators.
TABLE_LIMIT = 1024

# Axiom checking: exhaustive below the limit, sampled above.
EXHAUSTIVE_LAW_LIMIT = 256
LAW_SAMPLES = 10_000


class RingCaches:
    """Structural sets populated by freeze()."""

    __slots__ = ("units", "unit_inverse", "idempotents", "nilpotents", "jacobson")

    def __init__(self, units, unit_inverse, idempotents, nilpotents, jacobson):
        self.units = frozenset(units)
        self.unit_inverse = dict(unit_inverse)
        self.idempotents = frozenset(idempotents)
        self.nilpotents = frozenset(nilpotents)
        self.jacobson = frozenset(jacobson)


class Ring:
    """A fully materialized finite ring.

    `add`, `mul`, `neg` are total evaluators on indices.  After freeze()
    the caches are populated, op tables are installed for small orders,
    and the ring must be treated as immutable.

    `radices` lists the sizes r_i of the cyclic factors of the additive
    group, little-endian: index sum(d_i * w_i), w_i = r_0 * ... * r_{i-1},
    is sum(d_i * g_i) with generator g_i at index w_i.  Without it the
    ring is opaque and its tables are filled pair by pair.
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
        self._morphic: Optional[tuple] = None
        # decider -> {element: verdict}, filled by the scalar deciders once frozen
        self._verdicts: dict = {}

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


def _compute_units(R: Ring):
    n, one = R.order, R.one
    if R._mul_np is not None:
        # A one-sided inverse is two-sided in a finite ring, so the first
        # right inverse v of u is the inverse exactly when v*u is one too.
        M = R._mul_np
        u = np.arange(n)
        v = (M == one).argmax(1)
        ok = (M[u, v] == one) & (M[v, u] == one)
        return dict(zip(u[ok].tolist(), v[ok].tolist()))
    inverse = {}
    mul = R.mul
    for u in range(n):
        for v in range(n):
            if mul(u, v) == one and mul(v, u) == one:
                inverse[u] = v
                break
    return inverse


def _compute_nilpotents(R: Ring):
    # x is nilpotent iff x^(2^k) = 0 for 2^k >= order (nilpotency index
    # is at most the order in a finite ring).
    n = R.order
    squarings = max(1, (n - 1).bit_length())
    if R._mul_np is not None:
        M = R._mul_np
        y = np.arange(n)
        for _ in range(squarings):
            y = M[y, y]
        return set(np.flatnonzero(y == 0).tolist())
    mul = R.mul
    out = set()
    for x in range(n):
        y = x
        for _ in range(squarings):
            y = mul(y, y)
            if y == 0:
                break
        if y == 0:
            out.add(x)
    return out


def _compute_jacobson(R: Ring, units):
    # J(R) = { x : 1 - yx is a unit for all y }; one-sided quasi-regularity
    # suffices in a finite ring.
    n, one = R.order, R.one
    if R._mul_np is not None:
        # [y, x] -> 1 - y*x
        one_minus = R._add_np[one][R._neg_np[R._mul_np]]
        return set(np.flatnonzero(_indicator(n, units)[one_minus].all(0)).tolist())
    mul, sub = R.mul, R.sub
    jac = set()
    for x in range(n):
        if all(sub(one, mul(y, x)) in units for y in range(n)):
            jac.add(x)
    return jac


def freeze(R: Ring, cap: int = CLASSIFY_CAP) -> Ring:
    """Populate the structural caches; idempotent; returns the same ring.

    Op tables are built up to TABLE_LIMIT; with them, units, idempotents,
    nilpotents and the Jacobson radical are each one whole-ring numpy mask
    over the tables.  Above TABLE_LIMIT each set is an elementwise sweep of
    scalar products.  Both paths give the same sets.
    """
    if R.caches is not None:
        return R
    if R.order > cap:
        raise CapExceededError(
            f"freezing {R.label} (order {R.order}) exceeds cap {cap}"
        )
    _build_tables(R)
    inverse = _compute_units(R)
    units = frozenset(inverse)
    if R._mul_np is not None:
        diagonal = np.diagonal(R._mul_np)
        idempotents = frozenset(np.flatnonzero(diagonal == np.arange(R.order)).tolist())
    else:
        idempotents = frozenset(e for e in range(R.order) if R.mul(e, e) == e)
    nilpotents = frozenset(_compute_nilpotents(R))
    jacobson = frozenset(_compute_jacobson(R, units))
    R.caches = RingCaches(units, inverse, idempotents, nilpotents, jacobson)
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


def _check_assoc_np(T: np.ndarray) -> Optional[tuple]:
    """Chunked exhaustive associativity check on an op table."""
    n = T.shape[0]
    for a in range(n):
        row = T[a]
        left = T[row][:, :]          # left[b, c] = T[T[a, b], c]
        right = row[T]               # right[b, c] = T[a, T[b, c]]
        if not np.array_equal(left, right):
            b, c = np.argwhere(left != right)[0]
            return (a, int(b), int(c))
    return None


def verify_ring_axioms(R: Ring, rng: Optional[random.Random] = None) -> None:
    """Raise RingAxiomError (an AssertionError) on the first violated ring axiom.

    Exhaustive for order <= EXHAUSTIVE_LAW_LIMIT (table-backed), sampled
    on LAW_SAMPLES random triples otherwise.  The checks raise explicitly,
    so they also hold under ``python -O``.
    """
    n = R.order
    add, mul, neg = R.add, R.mul, R.neg
    zero, one = R.zero, R.one
    label = R.label
    if n == 1:
        if not (add(0, 0) == 0 and mul(0, 0) == 0):
            raise RingAxiomError(f"{label}: the zero ring's operations do not fix 0")
        return
    if zero == one:
        raise RingAxiomError(f"{label}: zero == one with order > 1")

    for x in range(min(n, 4096)):
        if add(x, zero) != x:
            raise RingAxiomError(f"{label}: additive identity fails at {x}")
        if add(x, neg(x)) != zero:
            raise RingAxiomError(f"{label}: inverse fails at {x}")
        if not (mul(x, one) == x and mul(one, x) == x):
            raise RingAxiomError(f"{label}: multiplicative identity fails at {x}")

    if n <= EXHAUSTIVE_LAW_LIMIT:
        _build_tables(R)
        A, M = R._add_np, R._mul_np
        if not np.array_equal(A, A.T):
            raise RingAxiomError(f"{label}: addition not commutative")
        bad = _check_assoc_np(A)
        if bad is not None:
            raise RingAxiomError(f"{label}: addition not associative at {bad}")
        bad = _check_assoc_np(M)
        if bad is not None:
            raise RingAxiomError(f"{label}: multiplication not associative at {bad}")
        for a in range(n):
            mrow = M[a]
            left = mrow[A]                       # a*(b+c)
            right = A[mrow[:, None], mrow[None, :]]  # a*b + a*c
            if not np.array_equal(left, right):
                raise RingAxiomError(f"{label}: left distributivity fails at a={a}")
            mcol = M[:, a]
            left = mcol[A]                       # (b+c)*a
            right = A[mcol[:, None], mcol[None, :]]  # b*a + c*a
            if not np.array_equal(left, right):
                raise RingAxiomError(f"{label}: right distributivity fails at a={a}")
    else:
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
