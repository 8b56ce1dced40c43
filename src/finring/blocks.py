"""The p-primary blocks of a finite ring, and its caches read back from them.

A ring R of order n is the direct product of its p-primary ideals
R_p = e_p*R, one per prime p dividing n, with e_p the central idempotents
of the CRT (R_p*R_q = 0 for p != q).  ``kernel.freeze`` freezes a ring
above TABLE_LIMIT whose order has two or more prime factors as these
blocks, so each block small enough gets op tables, and every cache of R is
read back from theirs through x -> e_p*x.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RingAxiomError
from .kernel import (
    CLASSIFY_CAP,
    Ring,
    RingCaches,
    _constants,
    _digits,
    _indicator,
    _mul_many,
    _powers,
    freeze,
)


def _prime_factors(n: int) -> list:
    """The distinct primes dividing n, in increasing order."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


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
    phi_p, an int64 array of length n read off the cached digits of R, is
    the block index of e_p*x for every x.  Nothing here multiplies."""
    D, _, r, w = _digits(R)
    C = _constants(R)[0]
    place = [l for l, q in enumerate(R.radices) if q > 1]
    blocks = []
    for p in _prime_factors(R.order):
        radices = tuple(math.gcd(q, p ** q.bit_length()) for q in R.radices)   # p^v_p(q)
        rp = np.array(radices, dtype=np.int64)[place]
        wp = _place_weights(radices)[place]
        own = rp > 1                                    # R's generators that are R_p's
        B = Ring(order=math.prod(radices), products=C[own][:, own] % rp @ wp,
                 one=int(R.one // w % r % rp @ wp), label=f"{p}-part of {R.label}",
                 radices=radices, kind="block", meta={"prime": p})
        blocks.append((p, B, D % rp @ wp))
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
    _, _, r, w = _digits(R)
    place = [l for l, q in enumerate(R.radices) if q > 1]
    masks = {name: np.ones(n, dtype=bool)
             for name in ("units", "idempotents", "nilpotents", "jacobson")}
    m, period = np.ones(n, dtype=np.int64), np.ones(n, dtype=np.int64)
    parts = []
    for p, B, phi in blocks:
        caches = freeze(B, cap).caches
        for name, mask in masks.items():
            mask &= _indicator(B.order, getattr(caches, name))[phi]
        mp, kp = caches.power_indices
        m, period = np.maximum(m, mp[phi]), np.lcm(period, (kp - mp)[phi])
        inverse = np.zeros(B.order, dtype=np.int64)
        inverse[list(caches.unit_inverse)] = list(caches.unit_inverse.values())
        rp = np.array(B.radices, dtype=np.int64)[place]
        rest = r // rp
        e = rest * [pow(a, -1, b) for a, b in zip(rest.tolist(), rp.tolist())]   # 1 mod rp, 0 mod rest
        parts.append((inverse[phi], _place_weights(B.radices)[place], rp, e))
    u = np.flatnonzero(masks["units"])
    v = sum(inv[u, None] // wp % rp * e for inv, wp, rp, e in parts) % r @ w
    bad = (_mul_many(R, u, v) != R.one) | (_mul_many(R, v, u) != R.one)
    if bad.any():
        raise RingAxiomError(f"{R.label}: the unit {int(u[bad.argmax()])} of its blocks has no "
                             f"two-sided inverse in it")
    cycle_start = _powers(R, np.arange(n), m)
    bad = (cycle_start == 0) != masks["nilpotents"]
    if bad.any():
        raise RingAxiomError(f"{R.label}: the nilpotents of its blocks and the zeros of x^m "
                             f"disagree at {int(bad.argmax())}")
    inverse = dict(zip(u.tolist(), v.tolist()))
    idempotents, nilpotents, jacobson = (np.flatnonzero(masks[name]).tolist()
                                         for name in ("idempotents", "nilpotents", "jacobson"))
    R.caches = RingCaches(frozenset(inverse), inverse, idempotents, nilpotents, jacobson,
                          (m, m + period), cycle_start)
    R._blocks = blocks
    return R
