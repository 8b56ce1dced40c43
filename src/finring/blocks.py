"""The p-primary blocks of a finite ring, and its caches read back from them.

A ring R of order n is the direct product of its p-primary ideals
R_p = e_p*R, one per prime p dividing n, with e_p the central idempotents
of the CRT (R_p*R_q = 0 for p != q).  ``kernel.freeze`` freezes a ring
of order n > 512 whose order has two or more prime factors as these
blocks, so each block small enough gets op tables, and every cache of R
is read back from theirs through x -> e_p*x.  R gets no op tables of its
own there, even at or below TABLE_LIMIT, so its checks read its own
product, not the blocks' tables; only ``deciders._left_ideal_masks``,
which reads n^2 products of R anyway, builds them, from R.products.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RingAxiomError
from .fastpath import factorize
from .kernel import (
    CLASSIFY_CAP,
    Ring,
    RingCaches,
    _constants,
    _digits,
    _mul_many,
    _powers,
    freeze,
)


def _place_weights(radices) -> np.ndarray:
    """The weight w_l = r_0 * ... * r_{l-1} of every place l of the radices."""
    return np.cumprod((1,) + tuple(radices))[:-1]


def _primary_blocks(R: Ring) -> tuple:
    """The p-primary blocks of R, one (p, R_p, phi_p) per prime p dividing
    its order, in increasing p.

    R is the direct product of its p-primary ideals R_p = e_p*R, e_p the
    central idempotents of the CRT: R_p*R_q = 0 for p != q.  As an additive
    group R_p has the radices p^v_p(r_l) at each place l of R (1 where p
    does not divide r_l), and it is a ring whose product is the bilinear
    extension of the reduced generator products: g_i*g_j has the digits
    C[i, j, l] mod p^v_p(r_l), and its one is R.one reduced the same way.
    phi_p, an int64 array of length n, is the block index of e_p*x for
    every x: wp @ (DT % rp), the digits DT of R (`kernel._digits`) reduced
    to R_p's radices rp and weighed by R_p's weights wp.  Nothing here
    multiplies."""
    DT, r, w = _digits(R)
    C = _constants(R)[0]
    place = [l for l, q in enumerate(R.radices) if q > 1]
    blocks = []
    for p, _ in factorize(R.order).factors:
        radices = tuple(math.gcd(q, p ** q.bit_length()) for q in R.radices)   # p^v_p(q)
        rp = np.array(radices, dtype=np.int64)[place]
        wp = _place_weights(radices)[place]
        own = rp > 1                                    # R's generators that are R_p's
        B = Ring(order=math.prod(radices), products=C[own][:, own] % rp @ wp,
                 one=int(R.one // w % r % rp @ wp), label=f"{p}-part of {R.label}",
                 radices=radices, kind="block", meta={"prime": p})
        blocks.append((p, B, wp @ (DT % rp[:, None])))
    return tuple(blocks)


def _freeze_split(R: Ring, blocks: tuple, cap: int = CLASSIFY_CAP) -> Ring:
    """Populate R's caches from its p-primary blocks (`_primary_blocks`),
    each frozen by `freeze`, so a block up to TABLE_LIMIT builds op tables.

    Every cache is read back exactly through phi_p: x is a unit,
    idempotent, nilpotent or in J iff each e_p*x is, and x^a == x^b iff
    e_p*x^a == e_p*x^b for every p, so m = max_p m_p and k - m = lcm_p (k_p -
    m_p).  A unit's inverse has the blocks' inverses as its p-parts, digit
    by digit by the CRT, and every pair is checked two-sided on R itself,
    u*v == v*u == 1; the cycle start x^m is one `_powers` call on R, and its
    zeros must be the nilpotents.  Each check raises RingAxiomError, also
    under ``python -O``, as does a block, whose label names R and p.
    """
    n = R.order
    _, r, w = _digits(R)
    place = [l for l, q in enumerate(R.radices) if q > 1]
    is_unit, is_idempotent, is_nilpotent, is_jacobson = (np.ones(n, dtype=bool) for _ in range(4))
    m, period = np.ones(n, dtype=np.int64), np.ones(n, dtype=np.int64)
    parts = []
    for p, B, phi in blocks:
        caches = freeze(B, cap).caches
        is_unit &= caches.is_unit[phi]
        is_idempotent &= caches.is_idempotent[phi]
        is_nilpotent &= caches.is_nilpotent[phi]
        is_jacobson &= caches.is_jacobson[phi]
        mp, kp = caches.power_indices
        m, period = np.maximum(m, mp[phi]), np.lcm(period, (kp - mp)[phi])
        rp = np.array(B.radices, dtype=np.int64)[place]
        rest = r // rp
        e = rest * [pow(a, -1, b) for a, b in zip(rest.tolist(), rp.tolist())]   # 1 mod rp, 0 mod rest
        parts.append((caches.inverse[phi], _place_weights(B.radices)[place], rp, e))
    u = np.flatnonzero(is_unit)
    v = sum(inv[u, None] // wp % rp * e for inv, wp, rp, e in parts) % r @ w
    bad = (_mul_many(R, u, v) != R.one) | (_mul_many(R, v, u) != R.one)
    if bad.any():
        raise RingAxiomError(f"{R.label}: the unit {int(u[bad.argmax()])} of its blocks has no "
                             f"two-sided inverse in it")
    cycle_start = _powers(R, np.arange(n), m)
    bad = (cycle_start == 0) != is_nilpotent
    if bad.any():
        raise RingAxiomError(f"{R.label}: the nilpotents of its blocks and the zeros of x^m "
                             f"disagree at {int(bad.argmax())}")
    inverse = np.full(n, -1, dtype=np.int64)
    inverse[u] = v
    R.caches = RingCaches(is_unit, inverse, is_idempotent, is_nilpotent, is_jacobson,
                          (m, m + period), cycle_start)
    R._blocks = blocks
    return R
