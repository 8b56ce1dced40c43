"""Finite ring core: indexed elements, base rings, and structural caches.

Elements of a ring of order n are the integers 0..n-1.  Each construction
supplies encode/decode maps between indices and its natural element shape
(residues, matrices, coefficient vectors, ...), so the deciders only ever
see indices.

Every ring has radices, the sizes of the cyclic factors of its additive
group, and they are its one definition of addition: digit by digit, each
digit modulo its radix.  Its one definition of the product is the |g|^2
products g_i*g_j of its additive generators, extended bilinearly; their
digits are the structure constants.  Up to TABLE_LIMIT the mul table is
built from them; above it products are computed from them directly, and
verify_ring_axioms checks them alone.  Products of many elements at once
go through ``_mul_many``: a lookup in the mul table when it exists, else
one sum of one term per nonzero structure constant over the digits, for
rows, columns and elementwise products alike, read from the one cached
digit-major digit matrix (``_digits``), so a whole row x*R or column R*x
costs O(n * |g|) memory.
Sums and differences go through ``_add_many`` and ``_sub_many``.  A ring
whose radices are all powers of 2 has no add or neg table at any order:
an index's bits are its digits, and its sums are carry-free bit arithmetic
(``_field_sum``).  Any other ring up to TABLE_LIMIT has an add and a neg
table and looks its sums up; above the limit it sums digit by digit.
Besides these three, only ``_row_blocks``, ``_power_scan`` and
``_left_orbit_keys`` ask whether the tables exist: whole-ring reads take
blocks of ROW_BLOCK // n rows with them, one row at a time without them;
the power scan takes its powers from a power table with them, one product
per step without them; and the unit-multiple masks of ``deciders`` are read
from left-orbit keys with them, by closure under generators of the unit
group without them.

Every power that freeze reads comes from one power scan (`_power_scan`):
for each x the least m < k with x^m == x^k, and x^m itself, the start of
the cycle of its powers (``RingCaches.cycle_start``).  m <= floor(log2 n),
so every x^h, h the least power of 2 at or above that bound, lies on the
cycle.  With op tables the scan fills the power table x^1, ..., x^L of
every x by doubling, one lookup per doubling, and reads the periods, the
power indices, the units' inverses and the cycle starts off it.  Without
them Brent's saved power is held at x^h, in O(sqrt(n)) products.  Either
way, periods too long for the table or the scan are found by baby and
giant steps.  The units, the nilpotents (x^m == 0) and the power flags of
``deciders`` are read from them.  The caches (`RingCaches`) are read-only
arrays over the elements: boolean masks of the units, idempotents,
nilpotents and J, the units' inverses (-1 off the units), the power
indices and the cycle starts.  A Ring has no scalar ops: one element or
many, every sum, difference and product goes through the three functions
above.

A ring of order n > 512 whose order has two or more prime factors is
frozen as its p-primary blocks R_p = e_p*R instead (``blocks``): R is
their direct product, each block small enough gets op tables, and R's
caches, and the element masks of ``deciders``, are read
back from the blocks' through x -> e_p*x.  R itself then has no op
tables, even up to TABLE_LIMIT: its own checks read the term sum, and the
blocks' tables hold sum_p n_p^2 entries where R's would hold n^2.  Every
other ring, and every block, is frozen on itself.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CapExceededError, RingAxiomError
from .fastpath import factorize

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
# TABLE_LIMIT <= 2^15.  Lookups return it, and so do the carry-free sums of
# `_field_sum` up to TABLE_LIMIT; arithmetic on a looked-up value must
# widen it first (an int16 array times a Python int stays int16).  The
# carry-free sums add entries in it digit field by digit field: every field
# sum is below 2*r_l, so every entry is below 2n <= 2^11.
TABLE_DTYPE = np.int16
# Products per row block on the table path (512 KiB of int16): the whole
# ring up to order 512, so a read never holds more than a few such arrays.
# The power scan's giant steps read their baby table in blocks of at most
# as many entries.
ROW_BLOCK = 2**18


class RingCaches:
    """The structure freeze() reads off a ring of order n, as read-only
    n-length numpy arrays indexed by element: the boolean masks is_unit,
    is_idempotent, is_nilpotent and is_jacobson (J(R)); inverse, the int64
    inverse of each unit and -1 off the units; the power indices
    power_indices = (m, k), for every x the least m < k with x^m == x^k
    (`_power_scan`); and cycle_start, x^m for every x, the first power of x
    on the cycle of its powers, whose zeros are the nilpotents.  Element
    lists are ``np.flatnonzero`` of a mask."""

    __slots__ = ("is_unit", "inverse", "is_idempotent", "is_nilpotent", "is_jacobson",
                 "power_indices", "cycle_start")

    def __init__(self, is_unit, inverse, is_idempotent, is_nilpotent, is_jacobson,
                 power_indices, cycle_start):
        for array in (is_unit, inverse, is_idempotent, is_nilpotent, is_jacobson,
                      *power_indices, cycle_start):
            array.flags.writeable = False
        self.is_unit, self.inverse = is_unit, inverse
        self.is_idempotent, self.is_nilpotent, self.is_jacobson = (is_idempotent, is_nilpotent,
                                                                   is_jacobson)
        self.power_indices, self.cycle_start = tuple(power_indices), cycle_start


class Ring:
    """A fully materialized finite ring.

    `radices` lists the sizes r_i >= 1 of the cyclic factors of the
    additive group, little-endian: index sum(d_i * w_i),
    w_i = r_0 * ... * r_{i-1}, is sum(d_i * g_i) with generator g_i at
    index w_i (`_additive_generators`, the w_i with r_i > 1).  They define
    addition, digit by digit modulo r_i.  `products` is the |g| x |g| table
    of the indices g_i*g_j, in that generator order, and it defines
    multiplication: the product is its bilinear extension,
    a*b = sum over i, j of a_i * b_j * (g_i*g_j), read through the structure
    constants.  verify_ring_axioms checks that this extension is well
    defined, unital and associative.

    A Ring is its structure alone: it has no scalar ops.  Sums, differences
    and products of elements, one or many, are ``_add_many``, ``_sub_many``
    and ``_mul_many``.  After freeze() the caches are populated, read-only
    op tables of dtype TABLE_DTYPE are installed for orders up to
    TABLE_LIMIT (the mul table alone where every radix is a power of 2; see
    `_build_tables`), and the ring must be treated as immutable.
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

        self.order = order
        self.zero = 0
        self.one = one
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
        self._fields = _bit_fields(places, order)    # see _field_sum
        self._structure: Optional[tuple] = None     # see _structure_constants
        self._digits: Optional[tuple] = None        # see _digits
        self._blocks: Optional[tuple] = None        # see blocks._primary_blocks

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


def _doubling_table(R: Ring, rows: np.ndarray, combine) -> np.ndarray:
    """Table of an additive map of R, one row T[x] per element x, from
    T[0] = 0 and `rows`, the rows of the additive generators
    (`_additive_generators`), in their order: x -> x*z gives the mul table,
    and x -> (g_i*x for each i) its generator rows.

    In the factor of weight w and radix r, rows (p*w, q*w), q = min(2p, r),
    are T[x] = T[x - p*w] + T[p*w]: combine(T[1:(q-p)*w], T[p*w]), the sum
    of a block of rows and one row, written by combine into its third
    argument T[p*w+1:q*w].  Row p*w is the generator's row for p = 1 and
    (p/2)*w + (p/2)*w after it; rows below w are done before the factor
    starts.  The rows read and the rows written never overlap, so combine
    writes in place (numpy copies an operand that overlaps its output).
    """
    T = np.empty((R.order, rows.shape[1]), dtype=TABLE_DTYPE)
    T[0] = 0
    T[_additive_generators(R)] = rows
    w = 1
    for r in R.radices:
        p = 1
        while p < r:
            if p > 1:
                h = (p // 2) * w
                combine(T[h:h + 1], T[h], T[p * w:p * w + 1])
            q = min(2 * p, r)
            combine(T[1:(q - p) * w], T[p * w], T[p * w + 1:q * w])
            p = q
        w *= r
    return T


def _kronecker_sum(R: Ring) -> np.ndarray:
    """The add table, folded factor by factor.

    In the factor of radix q > 1 and weight w, digit sums are the q x q
    circulant ((a + b) mod q)*w, a sliding window over the doubled arange
    (0, w, ..., (q-1)*w, 0, w, ...).  An index is the sum of its factors'
    digit terms, so with the factors below w folded into S (order w), the
    table up to order w*q is S_q[:, None, :, None] + S[None, :, None, :]
    read as (w*q) x (w*q): one int16 add per entry, no lookup.
    """
    S = np.zeros((1, 1), dtype=TABLE_DTYPE)
    w = 1
    for q in R.radices:
        if q > 1:
            cycle = np.arange(0, 2 * q * w, w, dtype=TABLE_DTYPE)
            cycle[q:] -= q * w
            window = np.ndarray((q, q), TABLE_DTYPE, cycle, strides=cycle.strides * 2)
            m = S.shape[0]
            S = np.add(window[:, None, :, None], S[None, :, None, :]).reshape(q * m, q * m)
        w *= q
    return S


def _build_tables(R: Ring) -> None:
    """Install read-only numpy op tables (order <= TABLE_LIMIT) of dtype
    TABLE_DTYPE (2 MiB per n x n table at order 1024), read only through
    ``_mul_many``, ``_add_many`` and ``_sub_many``.

    The mul table is a `_doubling_table` fill from the generator rows
    g_i*z, and its one operation, a sum of rows, is chosen from R.radices.
    When every radix is a power of 2, an index's bits are its digits and a
    sum is carry-free bit arithmetic (`_field_sum`); the generator rows are
    then such a fill too, from R.products, and the ring gets no add or neg
    table: `_add_many` and `_sub_many` sum by the same bit arithmetic.  Otherwise
    the add table is the Kronecker sum of the cyclic factors
    (`_kronecker_sum`), the negatives are one of its columns read upwards,
    the generator rows come from the structure constants as one stack
    D @ C[i] % r, and a sum of rows is a flat ``take`` gather from the add
    table at x*n + z.  Both sums work max(n // 8, 2^14 // n) rows at a time
    in one temporary per sum: the intp flat index, at most 8 bytes per
    entry of n^2 / 8 entries, or of 2^14 on small tables, or the int16 top
    bits (none for XOR).  Every index is below n^2, so the gathers clip
    nothing.  So the build reads R.products alone, and the tables are the
    bilinear extension of R.products, the same product `_mul_many` gives
    above TABLE_LIMIT.
    """
    if R._mul_np is not None or R.order > TABLE_LIMIT:
        return
    n = R.order
    step = max(n // 8, 2**14 // n)
    if R._fields is not None:
        add_np = neg_np = None
        low, high, _ = R._fields

        def combine(block, row, out):
            shape = (min(step, len(block)), block.shape[1])
            top = np.empty(shape, dtype=TABLE_DTYPE) if low else None    # none for XOR
            for i in range(0, len(block), step):
                a, o = block[i:i + step], out[i:i + step]
                _field_sum(a, row, low, high, o, None if top is None else top[:len(a)])

        rows = _doubling_table(R, R.products.T, combine).T    # [i, z] -> g_i*z
    else:
        add_np = _kronecker_sum(R)
        flat = add_np.ravel()                     # x + z at x*n + z
        # -x is the digit complement n - 1 - x plus 1 in every digit.
        neg_np = add_np[::-1, sum(_additive_generators(R))].copy()

        def combine(block, row, out):
            index = np.empty((min(step, len(block)), block.shape[1]), dtype=np.intp)
            for i in range(0, len(block), step):
                a, o = block[i:i + step], out[i:i + step]
                x = index[:len(a)]
                np.multiply(a, n, out=x, dtype=np.intp)
                x += row
                flat.take(x, out=o, mode="clip")

        C, r, w = _constants(R)
        rows = np.arange(n)[:, None] // w % r @ C % r @ w      # [i, z] -> g_i*z
        for T in (add_np, neg_np):
            T.flags.writeable = False
    mul_np = _doubling_table(R, rows, combine)                # [x, z] -> x*z
    mul_np.flags.writeable = False
    R._mul_np, R._add_np, R._neg_np = mul_np, add_np, neg_np


def _bit_fields(places, n: int) -> Optional[tuple]:
    """(L, H, ones) for the places (w, r) of a ring of order n whose radices
    are all powers of 2, else None: H the top bit of each digit field,
    L = (n - 1) ^ H the bits below them, and ones the index whose every
    digit is 1."""
    if any(r & (r - 1) for _, r in places):
        return None
    high = sum(w * r // 2 for w, r in places)
    return (n - 1) ^ high, high, sum(w for w, _ in places)


def _field_sum(a, b, low: int, high: int, out=None, top=None):
    """a + b for index arrays a, b (which broadcast) of a ring whose radices
    are all powers of 2, with (low, high) = (L, H) of `_bit_fields`.  An
    index's bits are then its digits, and with H the top bit of each digit
    field a sum is carry-free: a + b = ((a & L) + (b & L)) ^ ((a ^ b) & H)
    (H. S. Warren, *Hacker's Delight*, 2-18), plain XOR when every radix
    is 2 (L = 0).  Each field's low bits sum below its radix, so no carry
    leaves a field, and the result is below n in the dtype of the array a
    (b may be a Python int).  `out` and `top` are written in place when
    given: the result, and the top bits (a ^ b) & H."""
    if not low:
        return np.bitwise_xor(a, b, out=out)
    top = np.bitwise_xor(a, b, out=top)
    top &= high
    total = np.add(np.bitwise_and(a, low, out=out), b & low, out=out)
    total ^= top
    return total


def _constants(R: Ring) -> tuple:
    """(C, r, w): the additive generators w (`_additive_generators`), their
    radices r, and C[i, j, l], digit l of g_i*g_j, read off R.products.
    Nothing of size n."""
    w = np.array(_additive_generators(R), dtype=np.int64)
    r = np.array([q for q in R.radices if q > 1], dtype=np.int64)
    return R.products[..., None] // w % r, r, w


def _structure_constants(R: Ring) -> tuple:
    """(r, w, terms) of R, built by its first product without op tables
    and cached: the radices r and weights w of `_constants`, and terms[l],
    the triples (i, j, c) with C[i, j, l] = c != 0, that is, c != 0 mod r_l,
    for the structure constants C of `_constants`, which are not kept.
    Nothing of size n.

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
        R._structure = (r, w, terms)
    return R._structure


def _digits(R: Ring) -> tuple:
    """(DT, r, w): the radices r and weights w of `_constants`, and
    DT[l, x] = x // w_l % r_l, digit l of x, a digit-major |g| x n matrix
    (each digit's row contiguous for the term sum of `_mul_many` and the
    sums of `_digit_sum`); built on first use and cached, the one copy of
    the digits.  An index is the reduced digits times w."""
    if R._digits is None:
        _, r, w = _constants(R)
        R._digits = (np.arange(R.order) // w[:, None] % r[:, None], r, w)
    return R._digits


def _mul_many(R: Ring, a, b) -> np.ndarray:
    """The elementwise products a*b of two index arrays, which broadcast.

    With op tables this is a lookup, of whole rows or columns when one side
    is a column block (k, 1) and the other every element in order, in the
    tables' dtype TABLE_DTYPE (widen it before any arithmetic).  Without
    tables (above TABLE_LIMIT, on a ring split into its blocks, or before
    `_build_tables`), it multiplies digit vectors: the product is the
    bilinear extension of R.products, so
    a*b = sum over i, j of a_i * b_j * (g_i*g_j): digit l of a*b is the sum
    of c * a_i * b_j over the nonzero structure constants c = C[i, j, l]
    (`_structure_constants`, which bounds the sum below 2^63), reduced mod
    r_l and added times w_l straight into the index: nnz(C) multiply-adds
    per product, with O(size) temporaries besides the digits of a and b.
    The digits of a single element are Python ints x // w % r, so one
    product builds nothing of size n, and each joins the coefficient c of
    its terms: a row a*R or a column R*b sums, over the columns of DT
    (`_digits`), only the terms of a's or b's nonzero digits, and
    multiplies none whose c times that digit is 1.

    The operands are element indices, 0 <= x < n: every caller passes
    table entries, aranges or the caches' elements, and the public entry
    points check theirs (``constructions._require_element``).  A general
    lookup is one flat ``take`` at a*n + b (`_take`), which would read a
    wrong entry, not raise, for an index out of range.
    """
    a, b = np.asarray(a), np.asarray(b)
    if R._mul_np is not None:
        if a.shape[1:] == (1,) and _every(R, b):
            return R._mul_np[a[:, 0]]                  # the rows a*R
        if b.shape[1:] == (1,) and _every(R, a):
            return R._mul_np[:, b[:, 0]].T             # the columns R*b
        return _take(R._mul_np, a, b)
    r, w, terms = _structure_constants(R)
    radix, weight = r.tolist(), w.tolist()
    da, db = (_digit_columns(R, x, radix, weight) for x in (a, b))
    one_a, one_b = a.size == 1, b.size == 1
    index = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
    for triples, q, v in zip(terms, radix, weight):
        digit = 0
        for i, j, c in triples:
            if one_a or one_b:      # a single element's digit joins c
                c, term = (c * da[i], db[j]) if one_a else (c * db[j], da[i])
            else:
                term = da[i] * db[j]
            if c:
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
    return _digits(R)[0].take(x, 1)


def _every(R: Ring, x: np.ndarray) -> bool:
    """Whether the index array x is every element in order."""
    return x.shape == (R.order,) and bool((x == np.arange(R.order)).all())


def _take(T: np.ndarray, a, b) -> np.ndarray:
    """T[a, b] for an n x n op table T and index arrays a, b, which
    broadcast: one flat ``take`` at a*n + b, the product formed in intp."""
    return T.ravel().take(np.multiply(a, T.shape[1], dtype=np.intp) + b)


def _add_many(R: Ring, a, b) -> np.ndarray:
    """The elementwise sums a + b of two index arrays, which broadcast: with
    an add table a lookup, the row z + b itself when a is every element
    and b one element; on a ring whose radices are all powers of 2 carry-free
    bit arithmetic (`_field_sum`); else digit by digit (`_digit_sum`)."""
    if R._add_np is not None:
        a, b = np.asarray(a), np.asarray(b)
        if b.ndim == 0 and _every(R, a):
            return R._add_np[b]
        return _take(R._add_np, a, b)
    if R._fields is not None:
        return _field_sum(*_bit_operands(R, a, b), *R._fields[:2])
    return _digit_sum(R, a, b, operator.add)


def _sub_many(R: Ring, a, b) -> np.ndarray:
    """The elementwise differences a - b, as `_add_many`: with an add table
    a + (-b), the rows z - b_i themselves when a is every element and b a
    column block (k, 1) or one element; on a ring whose radices are all
    powers of 2, -b is the bit complement b ^ (n - 1) plus 1 in every digit
    field, by `_field_sum`."""
    if R._add_np is not None:
        a, b = np.asarray(a), R._neg_np[b]
        if (b.ndim == 0 or b.shape[1:] == (1,)) and _every(R, a):
            return R._add_np[b[:, 0] if b.ndim else b]
        return _take(R._add_np, a, b)
    if R._fields is not None:
        (a, b), (low, high, ones) = _bit_operands(R, a, b), R._fields
        b ^= R.order - 1
        return _field_sum(a, _field_sum(b, ones, low, high), low, high)
    return _digit_sum(R, a, b, operator.sub)


def _bit_operands(R: Ring, a, b) -> tuple:
    """a and b as arrays for `_field_sum`, b a copy: of TABLE_DTYPE up to
    TABLE_LIMIT, the dtype of a lookup, so that a sum is no wider than a
    product, else int64."""
    dtype = TABLE_DTYPE if R.order <= TABLE_LIMIT else np.int64
    return np.asarray(a, dtype=dtype), np.array(b, dtype=dtype)


def _digit_sum(R: Ring, a, b, op) -> np.ndarray:
    """op(a, b), op the sum or the difference, of two index arrays, which
    broadcast, digit by digit modulo the radices.  When one side is a single
    element, its digits are Python ints (`_digit_columns`) added to or
    subtracted from the digit-major rows of the other's digits: |g| vector
    ops of its size, and one gather of its digits.  Otherwise both sides'
    digits are gathered from DT (`_digits`) and summed row by row."""
    a, b = np.asarray(a), np.asarray(b)
    _, r, w = _digits(R)
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
    bits of the exponent first, x^0 = one.  One product per bit of the
    largest exponent and one squaring between two bits, none after the
    last."""
    result = np.full_like(base, R.one)
    bits = int(exponent.max()).bit_length() if exponent.size else 0
    for bit in range(bits):
        result = np.where((exponent >> bit) & 1 == 1, _mul_many(R, result, base), result)
        if bit + 1 < bits:
            base = _mul_many(R, base, base)
    return result


class _Scan(tuple):
    """The power indices (m, k) of `_power_scan`, which unpack as a pair,
    `powers`, the power table P they were read from (P[j-1] = x^j for
    every element x and every j <= len(P)), and `back`, x^(t-1) for every
    x, t = k - m its period (the inverse of x where x is a unit); both are
    None where the ring has no op tables."""
    powers = back = None


def _power_table(R: Ring, hold: int, last: int, period: np.ndarray) -> np.ndarray:
    """The power table P of `_power_scan`: P[j-1] = x^j for every element
    x, exponent-major, filled by doubling.  With rows up to x^w, rows
    x^(w+1), ..., x^(2w) are x^w * x^i, i = 1, ..., w: one `_mul_many`
    lookup of w x n entries, the last one cut at x^last.  It stops at the
    first doubling after which every x^hold has come back, or at x^last.
    Each x whose x^hold has come back, first at x^(hold+t), gets period t;
    the others keep period 0."""
    n = R.order
    P = np.empty((last, n), dtype=TABLE_DTYPE)
    P[0] = np.arange(n)
    w = 1
    while w < last:
        c = min(w, last - w)
        P[w:w + c] = _mul_many(R, P[w - 1], P[:c])
        lo, w = max(w, hold), w + c
        if w > hold:                                # rows lo, ..., w-1 are x^(lo+1), ..., x^w
            back = P[lo:w] == P[hold - 1]
            new = (period == 0) & back.any(0)
            period[new] = back.argmax(0)[new] + lo + 1 - hold
            if period.all():
                break
    return P[:w]


def _read_powers(R: Ring, P, base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """base[i]^exponent[i] for elements base[i], as int64: read off the
    power table P of `_power_scan` where 1 <= exponent <= len(P), one
    where the exponent is 0, and as (x^L)^q * x^r past P, L = len(P) and
    exponent = q*L + r, by `_powers` of the row x^L (everywhere by
    `_powers` when P is None)."""
    if P is None:
        return _powers(R, base, exponent)
    result = np.full(base.shape, R.one, dtype=np.int64)
    inside = (1 <= exponent) & (exponent <= len(P))
    result[inside] = P[exponent[inside] - 1, base[inside]]
    far = exponent > len(P)
    if far.any():
        y, (q, r) = base[far], np.divmod(exponent[far], len(P))
        high = _powers(R, P[-1, y], q)
        result[far] = np.where(r > 0, _mul_many(R, high, P[r - 1, y]), high)
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
    (R, *), its powers return to it, and m <= j.  So x^h, h the least power
    of 2 >= top, is on the cycle, and t is the least t with x^(h+t) == x^h.
    On orders with s = ceil(sqrt(n)) + 1 >= 2 * n.bit_length() (about 200
    and up) the powers are taken up to last = h + 2s, below them up to
    last = h + n.

    With op tables the scan reads the power table P of `_power_table`,
    P[j-1] = x^j, filled by doubling in ceil(log2(last)) lookups at most,
    and returns it in `_Scan.powers`, so that freeze reads the units'
    inverses and the cycle starts off it too.  Each x whose x^h has come
    back by the end of P has its period.  Without op tables Brent's cycle
    detection steps x^j -> x^(j+1), one product per step, for the open x
    and compares x^j with x (a hit gives m = 1, k = j) and with the saved
    x^e (a hit gives t = j - e once e >= m).  e doubles, 1, 2, 4, ...,
    until it reaches top, and is then held at h, so every x closes by
    j = h + t.

    Above the gate every x still open at x^last, with t > 2s, takes baby
    and giant steps (Shanks).  The baby steps are B_i = x^(h+s+1+i),
    i < s: the last s rows of P, or the last s steps of Brent's scan.  The
    giant steps are G_J = x^(h+s+1+J*s), the first x^last * x and each
    next one G_J * x^s, x^s the row of P, or Brent's step, at j = s.  All
    of them lie on the cycle, where x^a == x^b iff t divides a - b, so
    G_J == B_i iff t divides J*s - i.  Since t > s the baby steps are
    distinct and each range (J-1)*s < J*s - i <= J*s holds at most one
    multiple of t: the first hit is J = ceil(t/s) <= ceil(n/s), at
    i = J*s - t, so t = J*s - i.  Below the gate Brent's tail, the binary
    powers of the m-search for x that it closes at x^j == x, outweighs
    the steps it saves.  Finally m is the least j with x^j == x^(j+t).
    With op tables x^(j+t), j <= top, is read off P where it is in it, and
    is x^(j+1) * x^(t-1) past it, all j in one lookup, with x^(t-1) from
    `_read_powers`; x^(t-1) of every x is returned in `_Scan.back`.  Without them
    it comes from the binary power x^(1+t), one product per step.

    A table that is not a ring's can break these bounds; the scan then
    raises RingAxiomError, also under ``python -O``: an x still open at
    x^last below the gate, a giant hit with t <= 2s, no giant hit by
    J = ceil(n/s) + 1, or m above top.  A giant step is looked up in the
    baby steps of the open x only.  With op tables they are P's last s
    rows at the open x, gathered once and cut down as x close, and each
    giant step is one s x (open) compare, at most 3 * n * s bytes with
    the gathered rows, about 100 KiB up to TABLE_LIMIT.  Without them the
    baby table is one n x s array of the narrowest dtype that holds n - 1,
    and the lookups take blocks of at most ROW_BLOCK // s and at most
    n // (itemsize + 1) rows, so that a block's gathered rows and its
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
    P = None
    if R._mul_np is not None:
        P = _power_table(R, hold, last, period)
        live = np.flatnonzero(period == 0)
        if live.size and tail:
            power, stride, baby = _mul_many(R, P[-1, live], live), P[s - 1], P[hold + s:, live]
    else:
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
            giant = power.astype(baby.dtype)
            if P is not None:                        # baby[i, c] = B_i of live[c]
                meet = baby == giant
                found = meet.any(0)
                i = meet[:, found].argmax(0)         # the baby steps the found G_J meet
            else:
                i = np.full(live.size, s)
                for lo in range(0, live.size, rows):     # i = the baby step G_J meets, or s
                    meet = baby.take(live[lo:lo + rows], 0) == giant[lo:lo + rows, None]
                    hit = meet.any(1)
                    if hit.any():
                        i[lo:lo + rows][hit] = meet[hit].argmax(1)
                found = i < s
                i = i[found]
            if i.size:
                t = J * s - i
                if t.min() <= 2 * s:
                    y = int(live[found][t.argmin()])
                    raise RingAxiomError(f"{R.label}: the powers of {y} repeat within "
                                         f"{2 * s} steps of x^{hold + s + 1}")
                period[live[found]] = t
                live, power, step = live[~found], power[~found], step[~found]
                if P is not None:
                    baby = baby[:, ~found]
                if not live.size:
                    break
            power = _mul_many(R, power, step)
        else:
            raise RingAxiomError(f"{R.label}: the giant steps of {int(live[0])} never meet "
                                 f"its baby steps")
        del baby
    back_power = None
    if P is not None:               # x^(j+t), j <= top: a row of P, or x^(j+1) * x^(t-1)
        back_power = _read_powers(R, P, x, period - 1)
        near = period + top <= len(P)
        high = P[np.arange(top)[:, None] + period * near, x]
        far = np.flatnonzero(~near)
        if far.size:
            high[:, far] = _mul_many(R, P[1:top + 1, far], back_power[far])
        hit = P[:top] == high                               # [j-1, x]: x^j == x^(j+t)
        m, wrong = hit.argmax(0) + 1, np.flatnonzero(~hit.any(0))
    else:
        live = np.flatnonzero(m == 0)
        if live.size:
            low, high = live, _powers(R, live, period[live] + 1)    # x^j and x^(j+t), j = 1
        for j in range(1, top + 1):
            if not live.size:
                break
            hit = low == high
            m[live[hit]] = j
            live, low, high = live[~hit], low[~hit], high[~hit]
            if live.size and j < top:                   # no step past the last test
                low, high = _mul_many(R, np.stack((low, high)), live)
        wrong = live
    if wrong.size:
        raise RingAxiomError(f"{R.label}: the power index of {int(wrong.min())} exceeds "
                             f"log2({n})")
    scan = _Scan((m, m + period))
    scan.powers, scan.back = P, back_power
    return scan


def _compute_units(R: Ring) -> tuple:
    """(the units mask, the inverse array, power indices (m, k), power
    table) of `_power_scan`.  x is a unit iff m = 1 and x^t = 1, t = k - 1
    its period, and then x^(t-1) is its inverse: the scan's `back` with op
    tables, else one `_powers` call; every pair is checked two-sided,
    u*v == v*u == 1.  The inverse array is -1 off the units; the power
    table and `back` are None without op tables."""
    scan = _power_scan(R)
    m, k = scan
    u = np.flatnonzero(m == 1)
    v = _powers(R, u, k[u] - 2) if scan.back is None else scan.back[u]
    ok = (_mul_many(R, u, v) == R.one) & (_mul_many(R, v, u) == R.one)
    inverse = np.full(R.order, -1, dtype=np.int64)
    inverse[u[ok]] = v[ok]
    return inverse >= 0, inverse, (m, k), scan.powers


def _compute_nilpotents(R: Ring, m: np.ndarray, powers=None) -> tuple:
    """(the nilpotents mask, x^m for every x), m the power index of
    `_power_scan`: read off its power table `powers` (m <= top lies in it),
    or one `_powers` call without it.  x is nilpotent iff x^m == 0: if t is
    the least exponent with x^t = 0, the powers x, ..., x^t are distinct
    (x^i = x^j, i < j <= t, would make x^i recur beyond t, where every power
    is 0, while x^i != 0 for i < t), and x^(t+1) = 0 = x^t is the first
    repeat, so m = t.  Conversely x^m == 0 says x is nilpotent."""
    start = _read_powers(R, powers, np.arange(R.order), m)
    return start == 0, start


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


def _compute_jacobson(R: Ring, is_unit: np.ndarray, is_nilpotent: np.ndarray) -> np.ndarray:
    """The mask of J(R) = { x : 1 - x*y is a unit for all y }.  One-sided
    quasi-regularity suffices in a finite ring, and either side gives the
    same J: by Jacobson's lemma 1 - y*x is a unit iff 1 - x*y is (if u is
    the inverse of 1 - x*y, then 1 + y*u*x is that of 1 - y*x).  J is an
    additive subgroup inside the nilpotents, so they are sieved in index
    order, one row x*R per x tested (one row of the mul table where there
    is one), keeping a subgroup S of J: if x passes, S becomes <S, x>;
    otherwise x + S misses J, and the whole coset is struck."""
    every = np.arange(R.order)
    quasi = is_unit[_sub_many(R, R.one, every)]        # 1 - z is a unit
    todo, S = is_nilpotent.copy(), every == 0
    while True:
        todo &= ~S
        if not todo.any():
            return S
        x = int(todo.argmax())
        if quasi[_mul_many(R, x, every)].all():
            S = _join(S, _add_many(R, every, x))
        else:
            todo[_add_many(R, x, np.flatnonzero(S))] = False


def _left_orbit_keys(R: Ring, is_unit: np.ndarray) -> Optional[np.ndarray]:
    """key(x) = min over the units u of u*x, for every x, where R has op
    tables; None where it has none, and there the unit-multiple masks of
    ``deciders`` close under generators of the unit group instead.

    The minimum of an orbit U*x names it, so x lies in U*S exactly when
    key(x) is in key(S).  The key is a running minimum over the rows u*R
    of the units, read in the blocks of `_row_blocks`, at most ROW_BLOCK
    products at a time."""
    if R._mul_np is None:
        return None
    every = np.arange(R.order)
    key = every.astype(TABLE_DTYPE)                     # 1*x, 1 a unit
    for block in _row_blocks(R, np.flatnonzero(is_unit)):
        np.minimum(key, _mul_many(R, block, every).min(0), out=key)
    return key


def _freeze_undivided(R: Ring) -> Ring:
    """Populate R's caches on R itself, with op tables up to TABLE_LIMIT:
    every mask is read through `_mul_many`, in O(n * |g|) memory per read
    above the limit.  One power scan gives the power indices (m, k) of
    every element and from them the units and their inverses
    (`_compute_units`) and x^m, the cycle start, whose zeros are the
    nilpotents (`_compute_nilpotents`), both read off the scan's power
    table where there is one, which is dropped once both have read it; the
    idempotents are the x with x*x == x; the Jacobson radical is sieved
    from the nilpotents, one row x*R per nilpotent x tested
    (`_compute_jacobson`)."""
    _build_tables(R)
    is_unit, inverse, power_indices, powers = _compute_units(R)
    x = np.arange(R.order)
    is_idempotent = _mul_many(R, x, x) == x
    is_nilpotent, cycle_start = _compute_nilpotents(R, power_indices[0], powers)
    del powers
    is_jacobson = _compute_jacobson(R, is_unit, is_nilpotent)
    R.caches = RingCaches(is_unit, inverse, is_idempotent, is_nilpotent, is_jacobson,
                          power_indices, cycle_start)
    return R


def freeze(R: Ring, cap: int = CLASSIFY_CAP) -> Ring:
    """Populate the structural caches; idempotent; returns the same ring.

    A ring of order n > 512 whose order has two or more prime factors is
    frozen as its p-primary blocks (``blocks._primary_blocks`` and
    ``blocks._freeze_split``), each block with op tables when it is small
    enough, and R keeps the blocks in R._blocks for ``deciders``; any other
    ring is frozen on itself (`_freeze_undivided`).  The caches are the
    same either way.  The gate, order 512, is where the split measured
    faster (freeze and classify, best of 9, on a 2-CPU Xeon): split took 1.05 to 2.95 times as long as undivided on
    orders 210 to 288, 0.95 to 1.28 times on Triv(Z(21)) (order 441), and
    0.32 to 0.96 times on orders 576 to 1000 (U(2, Z(10)), 5.8 -> 1.9 ms),
    since an undivided ring of composite order fills its n^2 op-table
    entries by a gather from its add table.
    """
    if R.caches is not None:
        return R
    if R.order > cap:
        raise CapExceededError(
            f"freezing {R.label} (order {R.order}) exceeds cap {cap}"
        )
    if R.order > 512:
        from .blocks import _freeze_split, _primary_blocks   # blocks imports kernel
        if len(factorize(R.order).factors) > 1:
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
