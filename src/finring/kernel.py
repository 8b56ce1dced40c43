"""Finite ring core: indexed elements, base rings, and structural caches.

Elements of a ring of order n are the integers 0..n-1.  Each construction
supplies encode/decode maps between indices and its natural element shape
(residues, matrices, coefficient vectors, ...), so the deciders only ever
see indices.

Every ring has radices, the sizes of the cyclic factors of its additive
group, and they are its one definition of addition: digit by digit, each
digit modulo its radix.  Its one definition of the product is the |g|^2
products g_i*g_j of its additive generators, extended bilinearly; their
digits are the structure constants.  Up to TABLE_LIMIT the op tables are
built from them; above it products are computed from them directly, and
verify_ring_axioms checks them alone.  Products of many elements at once
go through ``_mul_many`` (and sums and differences through ``_add_many`` and
``_sub_many``): a lookup in the op tables when they exist, else the product
of digit vectors through the structure constants, one term per nonzero
constant, so a whole row x*R or column R*x costs O(n * |g|) memory.
Besides these three, only ``_row_blocks`` knows whether the tables exist:
whole-ring reads take blocks of ROW_BLOCK // n rows with them, one row at a
time without them.

Every power that freeze reads comes from one power scan (`_power_scan`):
for each x the least m < k with x^m == x^k, and x^m itself, the start of
the cycle of its powers (``RingCaches.cycle_start``).  The scan takes
O(sqrt(n)) products: m <= floor(log2 n), so Brent's saved power is held
once it passes that bound, and long periods are found by baby and giant
steps.  The units, the nilpotents (x^m == 0) and the power flags of
``deciders`` are read from them; no module of the package calls the
scalar ``Ring.mul``.

A ring above TABLE_LIMIT whose order has two or more prime factors is
frozen as its p-primary blocks R_p = e_p*R instead (``blocks``): R is their
direct product, each block small enough gets op tables, and R's caches,
and the element masks of ``deciders``, are read back from the blocks'
through x -> e_p*x.  Every other ring, and every block, is frozen on
itself.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CapExceededError, RingAxiomError

# Order caps.  Exhaustive classification reads every element: O(sqrt(order))
# whole-ring products for the power scan, and one whole-ring pass per
# idempotent and per generator of the unit group; arithmetic-only use
# tolerates larger rings.
CLASSIFY_CAP = 4096
ARITH_CAP = 65536

# Full op tables above this order cost too much memory; rings then multiply
# through their structure constants (`_mul_many`).
TABLE_LIMIT = 1024
# The one dtype of all three op tables: every entry is an index below
# TABLE_LIMIT <= 2^15.  Lookups return it; arithmetic on a looked-up value
# must widen it first (an int16 array times a Python int stays int16).
TABLE_DTYPE = np.int16
# Products per row block on the table path (512 KiB of int16): the whole
# ring up to order 512, so a read never holds more than a few such arrays.
# The power scan's giant steps read their baby table in blocks of at most
# as many entries.
ROW_BLOCK = 2**18


class RingCaches:
    """Structural sets populated by freeze(); the power indices (m, k): for
    every element x the least m < k with x^m == x^k (`_power_scan`); and
    cycle_start, x^m for every x, the first power of x on the cycle of its
    powers, from which the nilpotents (x^m == 0) are read."""

    __slots__ = ("units", "unit_inverse", "idempotents", "nilpotents", "jacobson",
                 "power_indices", "cycle_start")

    def __init__(self, units, unit_inverse, idempotents, nilpotents, jacobson, power_indices,
                 cycle_start):
        self.units = frozenset(units)
        self.unit_inverse = dict(unit_inverse)
        self.idempotents = frozenset(idempotents)
        self.nilpotents = frozenset(nilpotents)
        self.jacobson = frozenset(jacobson)
        self.power_indices = power_indices
        self.cycle_start = cycle_start


class Ring:
    """A fully materialized finite ring.

    `radices` lists the sizes r_i >= 1 of the cyclic factors of the
    additive group, little-endian: index sum(d_i * w_i),
    w_i = r_0 * ... * r_{i-1}, is sum(d_i * g_i) with generator g_i at
    index w_i (`_additive_generators`, the w_i with r_i > 1).  They define
    addition: `add` and `neg` work digit by digit modulo r_i, and `sub` is
    a + (-b).  `products` is the |g| x |g| table of the indices g_i*g_j, in
    that generator order, and it defines multiplication: the product is its
    bilinear extension, a*b = sum over i, j of a_i * b_j * (g_i*g_j), read
    through the structure constants (`_mul_many`).  verify_ring_axioms
    checks that this extension is well defined, unital and associative.

    `mul` is one such product, a one-element `_mul_many` call.  After
    freeze() the caches are populated, read-only op tables of dtype
    TABLE_DTYPE are installed for orders up to TABLE_LIMIT, `add`, `mul`
    and `neg` read those tables (no Python copy), and the ring must be
    treated as immutable.
    """

    def __init__(
        self,
        order: int,
        products,
        one: int,
        label: str,
        radices: Sequence[int],
        kind: str = "custom",
        decode: Optional[Callable[[int], object]] = None,
        encode: Optional[Callable[[object], int]] = None,
        fmt: Optional[Callable[[int], str]] = None,
        meta: Optional[dict] = None,
    ):
        if order < 1:
            raise ValueError("ring order must be >= 1")
        radices = tuple(radices)
        if not all(isinstance(r, int) and r >= 1 for r in radices):
            raise ValueError(f"radices {radices} must be integers >= 1")
        if math.prod(radices) != order:
            raise ValueError(f"radices {radices} do not multiply to order {order}")
        places = _places(radices)
        g = len(places)
        products = np.array(products, dtype=np.int64)
        if products.size != g * g or not ((0 <= products) & (products < order)).all():
            raise ValueError(f"products must be a {g} x {g} table of indices below {order}")
        if not 0 <= one < order:
            raise ValueError(f"one = {one} is not an index below {order}")
        products = products.reshape(g, g)
        products.flags.writeable = False

        def add(a, b):
            s = 0
            for w, r in places:
                s += (a // w + b // w) % r * w
            return s

        def neg(a):
            s = 0
            for w, r in places:
                s += -(a // w) % r * w
            return s

        self.order = order
        self.zero = 0
        self.one = one
        self.add = add
        self.neg = neg
        self.label = label
        self.kind = kind
        self._decode = decode or (lambda i: i)
        self._encode = encode or (lambda v: int(v))
        self._fmt = fmt or (lambda i: str(i))
        self.radices = radices
        self.products = products
        self.meta = meta or {}
        self.caches: Optional[RingCaches] = None
        self._add_np: Optional[np.ndarray] = None
        self._mul_np: Optional[np.ndarray] = None
        self._neg_np: Optional[np.ndarray] = None
        self._structure: Optional[tuple] = None     # see _structure_constants
        self._digits: Optional[tuple] = None        # see _digits
        self._blocks: Optional[tuple] = None        # see blocks._primary_blocks

    # -- basic derived ops -------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        # _build_tables shadows this with the mul table's ndarray.item.
        return int(_mul_many(self, a, b))

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


def _doubling_table(R: Ring, rows: np.ndarray, row0, combine) -> np.ndarray:
    """Op table from row 0 and `rows`, the rows of the additive generators
    (`_additive_generators`), in their order.

    In the factor of weight w and radix r, rows [p*w, q*w), q = min(2p, r),
    are combine(T[0:(q-p)*w], T[p*w]), written by combine into its third
    argument T[p*w:q*w], with row p*w taken from (p/2)*w + (p/2)*w; rows
    below w are done before the factor starts.  The rows read and the rows
    written never overlap, so combine writes in place.
    """
    n = R.order
    T = np.empty((n, n), dtype=TABLE_DTYPE)
    T[0] = row0
    T[_additive_generators(R)] = rows
    w = 1
    for r in R.radices:
        p = 1
        while p < r:
            if p > 1:
                h = (p // 2) * w
                combine(T[h:h + 1], T[h], T[p * w:p * w + 1])
            q = min(2 * p, r)
            combine(T[0:(q - p) * w], T[p * w], T[p * w:q * w])
            p = q
        w *= r
    return T


def _build_tables(R: Ring) -> None:
    """Install read-only numpy op tables (order <= TABLE_LIMIT), all three
    of dtype TABLE_DTYPE (2 MiB per n x n table at order 1024), and rebind
    R.add, R.mul and R.neg to their ``ndarray.item``, which returns a Python
    int: the tables are the only copy, with no Python list behind the
    scalar ops.

    The generator rows g + z come from the digits, and all rows g_i*z at
    once from the structure constants as one stack D @ C[i] % r, so the
    build makes no scalar call.  The negatives are the digits -D % r.  Row
    0 is 0 + z = z and 0*z = 0, and `_doubling_table` fills the rest,
    x + z = (x - p*w) + (p*w + z) by composing add rows and
    x*z = (x - p*w)*z + (p*w)*z through the finished add table, both as
    flat ``take`` gathers straight into the table.  The flat index x*n + z
    is formed in place in int32, which ``take`` widens to intp,
    max(n // 8, 2^14 // n) rows at a time: at most 12 bytes per entry of
    n^2 / 8 entries, or of 2^14 on small tables; every index is below n^2,
    so the gathers clip nothing.  So the tables are the bilinear extension
    of R.products, the same product `_mul_many` gives above TABLE_LIMIT.
    """
    if R._mul_np is not None or R.order > TABLE_LIMIT:
        return
    n = R.order
    every = np.arange(n)
    C, r, w = _constants(R)
    D = every[:, None] // w % r     # [z, l] -> digit l of z; not cached, no lookup reads it

    def add_rows(block, row, out):
        block.take(row, axis=1, out=out, mode="clip")

    step = max(n // 8, 2**14 // n)

    def mul_rows(block, row, out):
        for i in range(0, len(block), step):
            index = block[i:i + step].astype(np.int32)
            index *= n
            index += row
            flat.take(index, out=out[i:i + step], mode="clip")

    add_np = _doubling_table(R, (D[w][:, None] + D) % r @ w, every, add_rows)   # [i, z] -> g_i + z
    flat = add_np.ravel()                     # x + z at x*n + z
    mul_np = _doubling_table(R, D @ C % r @ w, 0, mul_rows)                      # [i, z] -> g_i*z
    neg_np = ((-D % r) @ w).astype(TABLE_DTYPE)
    for T in (add_np, mul_np, neg_np):
        T.flags.writeable = False
    R._mul_np = mul_np
    R._add_np = add_np
    R._neg_np = neg_np
    R.mul = mul_np.item
    R.add = add_np.item
    R.neg = neg_np.item


def _indicator(n: int, members) -> np.ndarray:
    """Boolean mask of length n that is True exactly on `members`."""
    mask = np.zeros(n, dtype=bool)
    mask[list(members)] = True
    return mask


def _constants(R: Ring) -> tuple:
    """(C, r, w): the additive generators w (`_additive_generators`), their
    radices r, and C[i, j, l], digit l of g_i*g_j, read off R.products.
    Nothing of size n."""
    w = np.array(_additive_generators(R), dtype=np.int64)
    r = np.array([q for q in R.radices if q > 1], dtype=np.int64)
    return R.products[..., None] // w % r, r, w


def _structure_constants(R: Ring) -> tuple:
    """(C, r, w, terms) of R, built by its first product without op tables
    and cached: (C, r, w) of `_constants`, and terms[l], the triples
    (i, j, c) with C[i, j, l] = c != 0, that is, c != 0 mod r_l.  Nothing
    of size n.

    The general product of `_mul_many` sums c * a_i * b_j over terms[l]
    before it reduces mod r_l.  Each term is at most
    (r_l - 1)(r_i - 1)(r_j - 1) < max(r)^3 <= n^3, and terms[l] holds at
    most |g|^2 <= log2(n)^2 of them, so the sum is below
    log2(n)^2 * n^3 < 2^63 at every order up to 2^18, four times
    ARITH_CAP.  Past that order (a raised cap, or a Ring built directly)
    the sum's largest value is computed here in Python integers, and
    CapExceededError is raised where it would wrap in int64.
    """
    if R._structure is None:
        C, r, w = _constants(R)
        i, j, l = np.nonzero(C)
        terms = tuple([] for _ in r)
        for p, q, d, c in zip(i.tolist(), j.tolist(), l.tolist(), C[i, j, l].tolist()):
            terms[d].append((p, q, c))
        if R.order > 2**18:
            radix = r.tolist()
            bound = max(sum(c * (radix[p] - 1) * (radix[q] - 1) for p, q, c in t) for t in terms)
            if bound >= 2**63:
                raise CapExceededError(f"{R.label}: a product digit sums to {bound} before "
                                       f"it is reduced, past the int64 range")
        R._structure = (C, r, w, terms)
    return R._structure


def _digits(R: Ring) -> tuple:
    """(D, DT, r, w): the radices r and weights w of `_constants`,
    D[x, l] = x // w_l % r_l, digit l of x, an n x |g| matrix, and DT, the
    same digits digit-major (|g| x n, each digit's row contiguous for the
    general product of `_mul_many`); built on first use and cached.  An
    index is the reduced digits times w."""
    if R._digits is None:
        _, r, w = _constants(R)
        DT = np.arange(R.order) // w[:, None] % r[:, None]
        R._digits = (np.ascontiguousarray(DT.T), DT, r, w)
    return R._digits


def _mul_many(R: Ring, a, b) -> np.ndarray:
    """The elementwise products a*b of two index arrays, which broadcast.

    With op tables this is a lookup, of whole rows or columns when one side
    is a column block (k, 1) and the other every element in order, in the
    tables' dtype TABLE_DTYPE (widen it before any arithmetic).  Without
    tables (above TABLE_LIMIT, or before `_build_tables`), it multiplies
    digit vectors: the product is the bilinear extension of R.products, so
    a*b = sum over i, j of a_i * b_j * (g_i*g_j).  A single a against many b
    gives the row a*b as one |g| x |g| matrix (the digits of a*g_j) applied
    to the digits of b, a single b likewise the column.  Otherwise digit l
    of a*b is the sum of c * a_i * b_j over the nonzero structure constants
    c = C[i, j, l] (`_structure_constants`, which bounds the sum below
    2^63), reduced mod r_l and added times w_l straight into the index:
    nnz(C) multiply-adds per product, with O(size) temporaries besides the
    digits of a and b.  The digits of a single element are read as
    x // w % r, so one product builds nothing of size n.
    """
    a, b = np.asarray(a), np.asarray(b)
    if R._mul_np is not None:
        every = (R.order,)
        if a.shape[1:] == (1,) and b.shape == every and (b == np.arange(R.order)).all():
            return R._mul_np[a[:, 0]]                  # the rows a*R
        if b.shape[1:] == (1,) and a.shape == every and (a == np.arange(R.order)).all():
            return R._mul_np[:, b[:, 0]].T             # the columns R*b
        return R._mul_np[a, b]
    C, r, w, terms = _structure_constants(R)
    shape = np.broadcast(a, b).shape
    if a.size == 1 < b.size:     # [j, l] -> digit l of a*g_j
        D, L = _digits(R)[0], len(r)
        digits = D.take(b, 0) @ ((D[a.item()] @ C.reshape(L, L * L)).reshape(L, L) % r)
        return (digits % r @ w).reshape(shape)
    if b.size == 1 < a.size:     # [i, l] -> digit l of g_i*b
        D = _digits(R)[0]
        digits = D.take(a, 0) @ (C.transpose(0, 2, 1) @ D[b.item()] % r)
        return (digits % r @ w).reshape(shape)
    radix, weight = r.tolist(), w.tolist()
    da, db = (_digit_columns(R, x, radix, weight) for x in (a, b))
    index = np.zeros(shape, dtype=np.int64)
    for triples, q, v in zip(terms, radix, weight):
        digit = 0
        for i, j, c in triples:
            term = da[i] * db[j]
            digit = digit + (term if c == 1 else c * term)
        index += digit % q * v
    return index


def _digit_columns(R: Ring, x: np.ndarray, radix: list, weight: list):
    """The digits of the index array x, digit l at [l]: Python ints
    x // w % r for a single element, which builds nothing of size n, else
    its columns of DT (`_digits`)."""
    if x.size == 1:
        x = x.item()
        return [x // v % q for q, v in zip(radix, weight)]
    return _digits(R)[1].take(x, 1)


def _add_many(R: Ring, a, b) -> np.ndarray:
    """The elementwise sums a + b of two index arrays, which broadcast;
    digit by digit without op tables (`_digit_sum`)."""
    if R._add_np is not None:
        return R._add_np[a, b]
    return _digit_sum(R, a, b, operator.add)


def _sub_many(R: Ring, a, b) -> np.ndarray:
    """The elementwise differences a - b, as `_add_many`."""
    if R._add_np is not None:
        return R._add_np[a, R._neg_np[b]]
    return _digit_sum(R, a, b, operator.sub)


def _digit_sum(R: Ring, a, b, op) -> np.ndarray:
    """op(a, b), op the sum or the difference, of two index arrays, which
    broadcast, digit by digit modulo the radices.  When one side is a single
    element, its digits are Python ints (`_digit_columns`) added to or
    subtracted from the digit-major rows of the other's digits: |g| vector
    ops of its size, and one gather of its digits.  Otherwise both sides'
    digits are gathered from D."""
    a, b = np.asarray(a), np.asarray(b)
    D, _, r, w = _digits(R)
    if a.size > 1 and b.size > 1:
        return op(D.take(a, 0), D.take(b, 0)) % r @ w
    radix, weight = r.tolist(), w.tolist()
    da, db = (_digit_columns(R, x, radix, weight) for x in (a, b))
    index = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
    for x, y, q, v in zip(da, db, radix, weight):
        index += op(x, y) % q * v
    return index


def _row_blocks(R: Ring, xs) -> list:
    """The index array xs as column blocks (b, 1) in index order, so that
    ``_mul_many(R, block, every)`` is the rows x*R of the block's x: blocks
    of ROW_BLOCK // n of them with op tables, else one x per block, in
    O(n * |g|) memory."""
    xs = np.asarray(xs, dtype=np.int64)[:, None]
    rows = max(1, ROW_BLOCK // R.order) if R._mul_np is not None else 1
    return [xs[i:i + rows] for i in range(0, len(xs), rows)]


def _powers(R: Ring, base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """base[i]^exponent[i] for every i, by binary exponentiation: the low
    bits of the exponent first, x^0 = one."""
    result = np.full_like(base, R.one)
    while exponent.any():
        result = np.where((exponent & 1) == 1, _mul_many(R, result, base), result)
        base = _mul_many(R, base, base)
        exponent = exponent >> 1
    return result


def _power_scan(R: Ring) -> tuple:
    """For every element x at once: the least (m, k), m < k, with x^m == x^k
    (x, ..., x^(k-1) distinct and x^k the first repeat), in O(sqrt(n))
    products.  t = k - m is the period of x.

    The power index m is at most top = floor(log2 n) (or 1).  The right
    ideals x^j*R form a chain of additive subgroups; each strict step down
    at least halves it, and once x^j*R == x^(j+1)*R the chain is stable
    (x^(j+1)*R = x*x^j*R = x*x^(j+1)*R).  So it is stable from some j <= top
    on, and so is R*x^j.  There x^j lies in x^(2j)*R and in R*x^(2j), so
    x^j has a group inverse (Drazin): it lies in a finite subgroup of
    (R, *), its powers return to it, and m <= j.

    Brent's cycle detection steps x^j -> x^(j+1) for the open x and
    compares x^j with x (a hit gives m = 1, k = j) and with the saved
    x^e (a hit gives t = j - e once e >= m).  e doubles, 1, 2, 4, ..., until
    it reaches top, and is then held at that exponent h >= top >= m, so
    every x closes by j = h + t.  On orders with s = ceil(sqrt(n)) + 1 >=
    2 * n.bit_length() (about 200 and up) the scan stops at j = h + 2s and
    every x still open, with t > 2s, takes baby and giant steps (Shanks):
    the scan's last s steps record the baby steps B_i = x^(h+s+1+i), i < s,
    and the giant steps are G_J = x^(h+s+1+J*s), the first the scan's last
    power and each next one G_J * x^s, x^s kept at j = s.  All of them lie
    on the cycle, where x^a == x^b iff t divides a - b, so G_J == B_i iff
    t divides J*s - i.  Since t > s the baby steps are distinct and each
    range (J-1)*s < J*s - i <= J*s holds at most one multiple of t: the
    first hit is J = ceil(t/s) <= ceil(n/s), at i = J*s - t, so t = J*s - i.
    Below that order the tail's fixed cost, the binary powers of the
    m-search for x that Brent closes at x^j == x, outweighs the steps it
    saves.  Finally m is the least j with x^j == x^(j+t).

    A table that is not a ring's can break these bounds; the scan then
    raises RingAxiomError, also under ``python -O``: an x still open at
    j = h + n without the tail, a giant hit with t <= 2s, no giant hit by
    J = ceil(n/s) + 1, or m above top.  The baby table is one n x s array
    of the narrowest dtype that holds n - 1.  A giant step is looked up in
    the rows of the open x only, in blocks of at most ROW_BLOCK // s and at
    most n // (itemsize + 1) rows, so that a block's gathered rows and its
    boolean compare take at most n * s bytes.
    """
    n = R.order
    top = max(1, n.bit_length() - 1)                # m <= top in a ring
    hold = 1 << (top - 1).bit_length()              # the saved exponent once held, >= top
    s = math.isqrt(n - 1) + 2                       # ceil(sqrt(n)) + 1
    tail = s >= 2 * n.bit_length()
    last = hold + 2 * s if tail else hold + n
    x = np.arange(n)
    m, period = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    live, saved, power = x, x, _mul_many(R, x, x)    # x^e and x^j, e = 1, j = 2
    e, j = 1, 2
    while live.size and j <= last:
        back = power == live                           # x^j == x
        hit = back | (power == saved)
        if hit.any():
            m[live[back]] = 1
            period[live[hit]] = np.where(back, j - 1, j - e)[hit]
            live, saved, power = live[~hit], saved[~hit], power[~hit]
        if j == 2 * e and e < top:
            saved, e = power, j
        if tail and j == s:
            stride = np.zeros(n, dtype=power.dtype)
            stride[live] = power
        if tail and j > hold + s:
            if j == hold + s + 1:
                baby = np.empty((n, s), dtype=np.min_scalar_type(n - 1))
            baby[live, j - hold - s - 1] = power
        power = _mul_many(R, power, live)
        j += 1
    if live.size and not tail:
        raise RingAxiomError(f"{R.label}: the powers of {int(live[0])} do not return to "
                             f"x^{hold}, so its power index exceeds log2({n})")
    if live.size:
        step = stride[live]
        rows = max(1, min(ROW_BLOCK // s, n // (baby.itemsize + 1)))
        for J in range(1, -(-n // s) + 2):           # power = G_J
            giant, i = power.astype(baby.dtype), np.full(live.size, s)
            for lo in range(0, live.size, rows):     # i = the baby step G_J meets, or s
                meet = baby.take(live[lo:lo + rows], 0) == giant[lo:lo + rows, None]
                hit = meet.any(1)
                if hit.any():
                    i[lo:lo + rows][hit] = meet[hit].argmax(1)
            found = i < s
            if found.any():
                t = J * s - i[found]
                if t.min() <= 2 * s:
                    y = int(live[found][t.argmin()])
                    raise RingAxiomError(f"{R.label}: the powers of {y} repeat within "
                                         f"{2 * s} steps of x^{hold + s + 1}")
                period[live[found]] = t
                live, power, step = live[~found], power[~found], step[~found]
                if not live.size:
                    break
            power = _mul_many(R, power, step)
        else:
            raise RingAxiomError(f"{R.label}: the giant steps of {int(live[0])} never meet "
                                 f"its baby steps")
        del baby
    live = np.flatnonzero(m == 0)
    low, high = live, _powers(R, live, period[live] + 1)    # x^j and x^(j+t), j = 1
    j = 1
    while live.size:
        if j > top:
            raise RingAxiomError(f"{R.label}: the power index of {int(live[0])} exceeds "
                                 f"log2({n})")
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


def _compute_nilpotents(R: Ring, m: np.ndarray) -> tuple:
    """(the nilpotents, x^m for every x), m the power index of `_power_scan`,
    with one `_powers` call.  x is nilpotent iff x^m == 0: if t is the least
    exponent with x^t = 0, the powers x, ..., x^t are distinct (x^i = x^j,
    i < j <= t, would make x^i recur beyond t, where every power is 0, while
    x^i != 0 for i < t), and x^(t+1) = 0 = x^t is the first repeat, so
    m = t.  Conversely x^m == 0 says x is nilpotent."""
    start = _powers(R, np.arange(R.order), m)
    return set(np.flatnonzero(start == 0).tolist()), start


def _orbit_union(T: np.ndarray, row: np.ndarray, steps: int) -> np.ndarray:
    """The union of the preimages of the boolean mask T (last axis the
    elements) under the first 2^steps powers of the map `row` of the elements,
    by doubling: T |= T[..., row], then row = row[row], at most `steps`
    times.  A step that adds nothing ends it: T is then closed along row,
    and so along every power of it.  When row is a permutation of order at
    most 2^steps, this is the closure of T under the cyclic group it
    generates."""
    for _ in range(steps):
        grown = T | T[..., row]
        if np.array_equal(grown, T):
            break
        T, row = grown, row[row]
    return T


def _join(S: np.ndarray, row: np.ndarray) -> np.ndarray:
    """<S, x> for an additive subgroup S (a mask) and the row z + x of x:
    the union of S - j*x over j < 2^s, where 2^s >= |R/S| bounds the order
    of x modulo S."""
    return _orbit_union(S, row, (len(S) // int(S.sum()) - 1).bit_length())


def _compute_jacobson(R: Ring, units, nilpotents):
    """J(R) = { x : 1 - y*x is a unit for all y }; one-sided quasi-regularity
    suffices in a finite ring.  J is an additive subgroup inside the
    nilpotents, so they are sieved in index order, one column R*x per x
    tested, keeping a subgroup S of J: if x passes, S becomes <S, x>;
    otherwise x + S misses J, and the whole coset is struck."""
    n = R.order
    every = np.arange(n)
    quasi = _indicator(n, units)[_sub_many(R, R.one, every)]     # 1 - z is a unit
    todo = _indicator(n, nilpotents)
    S = _indicator(n, [0])
    while True:
        todo &= ~S
        if not todo.any():
            return set(np.flatnonzero(S).tolist())
        x = int(todo.argmax())
        if quasi[_mul_many(R, every, x)].all():
            S = _join(S, _add_many(R, every, x))
        else:
            todo[_add_many(R, x, np.flatnonzero(S))] = False


def _freeze_undivided(R: Ring) -> Ring:
    """Populate R's caches on R itself, with op tables up to TABLE_LIMIT:
    every set is read through `_mul_many`, in O(n * |g|) memory per read
    above the limit.  One power scan gives the power indices (m, k) of
    every element and from them the units and their inverses
    (`_compute_units`) and x^m, the cycle start, whose zeros are the
    nilpotents (`_compute_nilpotents`); the idempotents are the x with
    x*x == x; the Jacobson radical is sieved from the nilpotents, one column
    R*x per nilpotent x tested (`_compute_jacobson`)."""
    _build_tables(R)
    inverse, power_indices = _compute_units(R)
    units = frozenset(inverse)
    x = np.arange(R.order)
    idempotents = frozenset(np.flatnonzero(_mul_many(R, x, x) == x).tolist())
    nilpotents, cycle_start = _compute_nilpotents(R, power_indices[0])
    jacobson = frozenset(_compute_jacobson(R, units, nilpotents))
    R.caches = RingCaches(units, inverse, idempotents, nilpotents, jacobson, power_indices,
                          cycle_start)
    return R


def freeze(R: Ring, cap: int = CLASSIFY_CAP) -> Ring:
    """Populate the structural caches; idempotent; returns the same ring.

    A ring above TABLE_LIMIT whose order has two or more prime factors is
    frozen as its p-primary blocks (``blocks._primary_blocks`` and
    ``blocks._freeze_split``), each block with op tables when it is small
    enough, and R keeps the blocks in R._blocks for ``deciders``; any other
    ring is frozen on itself (`_freeze_undivided`).  The caches are the
    same either way.
    """
    if R.caches is not None:
        return R
    if R.order > cap:
        raise CapExceededError(
            f"freezing {R.label} (order {R.order}) exceeds cap {cap}"
        )
    if R.order > TABLE_LIMIT:
        from .blocks import _freeze_split, _prime_factors, _primary_blocks   # blocks imports kernel
        if len(_prime_factors(R.order)) > 1:
            return _freeze_split(R, _primary_blocks(R), cap)
    return _freeze_undivided(R)


def make_zmod(n: int, cap: int = ARITH_CAP) -> Ring:
    """The ring of residues modulo n."""
    if n == 0:
        raise ValueError("Z(0) is not a ring here; n must be >= 1")
    if n > cap:
        raise CapExceededError(f"Z({n}) exceeds cap {cap}")
    return Ring(
        order=n,
        products=[[1]] if n > 1 else [],
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
    g = len(S.products)                       # S's generators come first
    products = np.zeros((g + len(R.products),) * 2, dtype=np.int64)
    products[:g, :g], products[g:, g:] = S.products, R.products * s
    return Ring(
        order=n,
        products=products,
        one=R.one * s + S.one,
        label=f"{R.label} x {S.label}",
        kind="product",
        decode=lambda i: (R.decode(i // s), S.decode(i % s)),
        encode=lambda v: R.encode(v[0]) * s + S.encode(v[1]),
        fmt=lambda i: f"({R.format_element(i // s)}, {S.format_element(i % s)})",
        radices=S.radices + R.radices,
        meta={"factors": (R, S)},
    )


# -- axiom verification ----------------------------------------------------


def _places(radices) -> list:
    """(w_i, r_i) for every radix r_i > 1, with weight w_i = r_0 * ... * r_{i-1}."""
    places, w = [], 1
    for r in radices:
        if r > 1:
            places.append((w, r))
        w *= r
    return places


def _additive_generators(R: Ring) -> list:
    """Elements that generate R's additive group: the weights w_i with r_i > 1."""
    return [w for w, _ in _places(R.radices)]


def _assoc_violation(R: Ring) -> Optional[tuple]:
    """Least generator triple (g, h, k) with (g*h)*k != g*(h*k), or None,
    from the structure constants alone: (g_i*g_j)*g_k has digits
    sum over l of C[i, j, l] * C[l, k] mod r, and g_i*(g_j*g_k)
    sum over l of C[j, k, l] * C[i, l].  Once the product is well defined
    (the torsion of verify_ring_axioms), both sides are additive in each of
    g, h, k, so None means the product is associative.
    """
    C, r, w = _constants(R)
    left = np.einsum("ijl,lkm->ijkm", C, C) % r
    right = np.einsum("jkl,ilm->ijkm", C, C) % r
    bad = (left != right).any(-1)
    if bad.any():
        return tuple(int(w[t]) for t in np.argwhere(bad)[0])
    return None


def verify_ring_axioms(R: Ring) -> None:
    """Raise RingAxiomError (an AssertionError) on the first violated ring axiom.

    Addition is the digits of R.radices, an abelian group by construction,
    and the product is the bilinear extension of R.products, so every ring
    law reduces to a check on the structure constants C, exact at every
    order in O(|g|^4) work, with no op table and nothing of size n:

    - torsion: r_i*(g_i*g_j) = 0 and r_j*(g_i*g_j) = 0.  Since
      Z/r_i (x) Z/r_j = Z/gcd(r_i, r_j), this is exactly when the bilinear
      extension is well defined, and then both distributive laws hold;
    - one*g_i = g_i = g_i*one on every generator: both sides are additive,
      so this is the identity law on every element;
    - associativity on every generator triple (`_assoc_violation`), which
      is associativity by trilinearity.

    The checks raise explicitly, so they also hold under ``python -O``.
    """
    label = R.label
    if R.order == 1:
        return
    if R.zero == R.one:
        raise RingAxiomError(f"{label}: zero == one with order > 1")
    C, r, w = _constants(R)
    bad = np.stack(((r[:, None, None] * C % r).any(-1),      # [i, j, side]
                    (r[None, :, None] * C % r).any(-1)), -1)
    if bad.any():
        i, j, side = np.argwhere(bad)[0]
        raise RingAxiomError(f"{label}: torsion fails at {(int(w[i]), int(w[j]))}: "
                             f"{r[(i, j)[side]]}*({w[i]}*{w[j]}) != 0")
    d = R.one // w % r                                       # the digits of one
    eye = np.eye(len(w), dtype=np.int64)
    bad = ((np.einsum("i,ijl->jl", d, C) % r != eye)          # one*g_j
           | (np.einsum("j,ijl->il", d, C) % r != eye)).any(1)    # g_i*one
    if bad.any():
        raise RingAxiomError(f"{label}: multiplicative identity fails at {w[bad.argmax()]}")
    bad = _assoc_violation(R)
    if bad is not None:
        raise RingAxiomError(f"{label}: multiplication not associative at {bad}")
