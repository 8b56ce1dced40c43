"""Derived ring constructions over a base ring.

All constructions are positional: an element is a little-endian vector of
base-ring digits, and the index is sum(digit_t * |base|^t).  Addition is
always digitwise and multiplication is bilinear in the digits, so each
construction gives only its scalar ops and its radices (the base radices
once per digit); ``kernel._build_tables`` derives the op tables from them.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AssociativityError,
    CapExceededError,
    NotCentralError,
    NotNilpotentError,
    WrongConstructionError,
)
from .groups import FiniteGroup
from .kernel import ARITH_CAP, Ring, _additive_generators, _assoc_violation, is_nilpotent


def _to_digits(i, b, nd):
    out = [0] * nd
    for t in range(nd):
        i, out[t] = divmod(i, b)
    return out


def _from_digits(digits, b):
    i = 0
    for d in reversed(digits):
        i = i * b + d
    return i


def _digitwise_add(base: Ring, nd: int):
    b = base.order
    weights = [b**t for t in range(nd)]

    def add(x, y):
        i = 0
        for w in weights:
            i += base.add(x // w % b, y // w % b) * w
        return i

    def neg(x):
        i = 0
        for w in weights:
            i += base.neg(x // w % b) * w
        return i

    return add, neg


def _radices(base: Ring, nd: int):
    """Radices of nd base-ring digits; None over an opaque base."""
    return None if base.radices is None else base.radices * nd


def _check_cap(order, cap, label):
    if order > cap:
        raise CapExceededError(f"{label} has order {order} > cap {cap}")


# -- full matrix rings -----------------------------------------------------


def matrix_ring(base: Ring, k: int, cap: int = ARITH_CAP) -> Ring:
    """Full ring of k x k matrices over the base ring."""
    if k < 1:
        raise ValueError("matrix size must be >= 1")
    b = base.order
    n = b ** (k * k)
    label = f"M({k}, {base.label})"
    _check_cap(n, cap, label)
    nd = k * k
    add, neg = _digitwise_add(base, nd)

    def mul(x, y):
        dx = _to_digits(x, b, nd)
        dy = _to_digits(y, b, nd)
        out = [0] * nd
        for i in range(k):
            for j in range(k):
                acc = 0
                for t in range(k):
                    acc = base.add(acc, base.mul(dx[i * k + t], dy[t * k + j]))
                out[i * k + j] = acc
        return _from_digits(out, b)

    one = _from_digits(
        [base.one if i == j else 0 for i in range(k) for j in range(k)], b
    )

    def decode(x):
        d = _to_digits(x, b, nd)
        return tuple(
            tuple(base.decode(d[i * k + j]) for j in range(k)) for i in range(k)
        )

    def encode(rows):
        return _from_digits(
            [base.encode(rows[i][j]) for i in range(k) for j in range(k)], b
        )

    return Ring(
        order=n, add=add, mul=mul, neg=neg, one=one, label=label,
        kind="matrix", decode=decode, encode=encode,
        fmt=lambda x: str([list(r) for r in decode(x)]),
        radices=_radices(base, nd),
        meta={"base": base, "k": k},
    )


def upper_triangular(base: Ring, k: int, cap: int = ARITH_CAP) -> Ring:
    """Ring of upper-triangular k x k matrices over the base ring."""
    if k < 1:
        raise ValueError("matrix size must be >= 1")
    b = base.order
    positions = [(i, j) for i in range(k) for j in range(i, k)]
    slot = {p: t for t, p in enumerate(positions)}
    nd = len(positions)
    n = b**nd
    label = f"U({k}, {base.label})"
    _check_cap(n, cap, label)
    add, neg = _digitwise_add(base, nd)

    def mul(x, y):
        dx = _to_digits(x, b, nd)
        dy = _to_digits(y, b, nd)
        out = [0] * nd
        for (i, j), t in slot.items():
            acc = 0
            for m in range(i, j + 1):
                acc = base.add(acc, base.mul(dx[slot[(i, m)]], dy[slot[(m, j)]]))
            out[t] = acc
        return _from_digits(out, b)

    one = _from_digits([base.one if i == j else 0 for (i, j) in positions], b)

    def decode(x):
        d = _to_digits(x, b, nd)
        return tuple(
            tuple(base.decode(d[slot[(i, j)]]) if j >= i else base.decode(0)
                  for j in range(k))
            for i in range(k)
        )

    def encode(rows):
        return _from_digits([base.encode(rows[i][j]) for (i, j) in positions], b)

    return Ring(
        order=n, add=add, mul=mul, neg=neg, one=one, label=label,
        kind="upper_triangular", decode=decode, encode=encode,
        fmt=lambda x: str([list(r) for r in decode(x)]),
        radices=_radices(base, nd),
        meta={"base": base, "k": k},
    )


# -- group rings -----------------------------------------------------------


def group_ring(base: Ring, G: FiniteGroup, cap: int = ARITH_CAP) -> Ring:
    """Group ring: coefficient vectors over the base ring with convolution."""
    b = base.order
    nd = G.order
    n = b**nd
    label = f"GR({base.label}, {G.label})"
    _check_cap(n, cap, label)
    add, neg = _digitwise_add(base, nd)
    # digit t holds the coefficient of group element t; the group identity
    # may be any index, so "one" is placed accordingly.
    pairs_by_target = [[] for _ in range(nd)]
    for h in range(nd):
        for t in range(nd):
            pairs_by_target[G.op(h, t)].append((h, t))

    def mul(x, y):
        dx = _to_digits(x, b, nd)
        dy = _to_digits(y, b, nd)
        out = [0] * nd
        for g in range(nd):
            acc = 0
            for h, t in pairs_by_target[g]:
                acc = base.add(acc, base.mul(dx[h], dy[t]))
            out[g] = acc
        return _from_digits(out, b)

    one = base.one * b**G.identity

    def decode(x):
        d = _to_digits(x, b, nd)
        return tuple(base.decode(c) for c in d)

    def encode(coeffs):
        return _from_digits([base.encode(c) for c in coeffs], b)

    def fmt(x):
        d = _to_digits(x, b, nd)
        terms = [f"{base.format_element(c)}*g{g}" for g, c in enumerate(d) if c != 0]
        return " + ".join(terms) if terms else "0"

    return Ring(
        order=n, add=add, mul=mul, neg=neg, one=one, label=label,
        kind="group_ring", decode=decode, encode=encode, fmt=fmt,
        radices=_radices(base, nd),
        meta={"base": base, "group": G},
    )


def augmentation(RG: Ring, x: int) -> int:
    """Coefficient sum of a group-ring element, in the base ring."""
    if RG.kind != "group_ring":
        raise WrongConstructionError(f"{RG.label} was not built by group_ring")
    base = RG.meta["base"]
    b = base.order
    acc = 0
    for _ in range(RG.meta["group"].order):
        x, d = divmod(x, b)
        acc = base.add(acc, d)
    return acc


# -- trivial extension -----------------------------------------------------


def trivial_extension(base: Ring, cap: int = ARITH_CAP) -> Ring:
    """Pairs (a, m) with (a, m)(a', m') = (aa', am' + ma')."""
    b = base.order
    n = b * b
    label = f"Triv({base.label})"
    _check_cap(n, cap, label)
    add, neg = _digitwise_add(base, 2)

    def mul(x, y):
        a1, m1 = x % b, x // b
        a2, m2 = y % b, y // b
        return base.mul(a1, a2) + base.add(base.mul(a1, m2), base.mul(m1, a2)) * b

    return Ring(
        order=n, add=add, mul=mul, neg=neg, one=base.one, label=label,
        kind="trivial_extension",
        decode=lambda x: (base.decode(x % b), base.decode(x // b)),
        encode=lambda v: base.encode(v[0]) + base.encode(v[1]) * b,
        fmt=lambda x: f"({base.format_element(x % b)} | {base.format_element(x // b)})",
        radices=_radices(base, 2),
        meta={"base": base},
    )


# -- generalized and formal matrix rings -----------------------------------


def _require_central(base: Ring, s: int, label: str):
    for t in range(base.order):
        if base.mul(s, t) != base.mul(t, s):
            raise NotCentralError(
                f"{label}: s = {base.format_element(s)} is not central "
                f"(fails at {base.format_element(t)})"
            )


def generalized_matrix(base: Ring, s: int, cap: int = ARITH_CAP) -> Ring:
    """2x2 generalized matrix ring with both pairings scaled by central s.

    Elements are quadruples (a, x, y, b); the product's diagonal entries
    pick up a factor of s on the off-diagonal cross terms.
    """
    b = base.order
    n = b**4
    label = f"Ks({base.label}, {base.format_element(s)})"
    _check_cap(n, cap, label)
    _require_central(base, s, label)
    add, neg = _digitwise_add(base, 4)

    def mul(p, q):
        a1, x1, y1, b1 = _to_digits(p, b, 4)
        a2, x2, y2, b2 = _to_digits(q, b, 4)
        ra = base.add(base.mul(a1, a2), base.mul(s, base.mul(x1, y2)))
        rx = base.add(base.mul(a1, x2), base.mul(x1, b2))
        ry = base.add(base.mul(y1, a2), base.mul(b1, y2))
        rb = base.add(base.mul(s, base.mul(y1, x2)), base.mul(b1, b2))
        return _from_digits([ra, rx, ry, rb], b)

    one = base.one + base.one * b**3

    def decode(p):
        return tuple(base.decode(d) for d in _to_digits(p, b, 4))

    def encode(v):
        return _from_digits([base.encode(c) for c in v], b)

    return Ring(
        order=n, add=add, mul=mul, neg=neg, one=one, label=label,
        kind="generalized_matrix", decode=decode, encode=encode,
        fmt=lambda p: str(list(decode(p))),
        radices=_radices(base, 4),
        meta={"base": base, "s": s},
    )


def _verify_associativity(R: Ring, label: str, gens):
    """Raise AssociativityError on the least generator triple (g, h, k) with
    (g*h)*k != g*(h*k), through the scalar mul.

    `gens` must generate R's additive group and R.mul must be additive in
    each argument; then the check is exhaustive at every order in |gens|^3
    triples.
    """
    mul = np.frompyfunc(lambda x, y: R.mul(int(x), int(y)), 2, 1)
    bad = _assoc_violation(mul, gens)
    if bad is not None:
        raise AssociativityError(f"{label}: multiplication not associative at {bad}")


def formal_matrix(base: Ring, k: int, s: int, cap: int = ARITH_CAP) -> Ring:
    """k x k formal matrix ring weighted by powers of a central nilpotent s.

    The entry (i, j) of a product is sum over t of s^d(i,t,j) * x[i,t] * y[t,j]
    with d(i,t,j) = [i>t] + [t>j] - [i>j].  For k = 2 this is exactly the
    generalized 2x2 construction.  The exponent scheme is verified by an
    associativity gate at construction time, exhaustive at every order: the
    product is additive in each argument, so it is checked on all triples
    of additive generators (each digit slot times a generator of the base,
    or times every base element over an opaque base).
    """
    if k < 2:
        raise ValueError("formal matrix ring needs k >= 2")
    b = base.order
    n = b ** (k * k)
    label = f"FM({k}, {base.label}, {base.format_element(s)})"
    _check_cap(n, cap, label)
    _require_central(base, s, label)
    if not is_nilpotent(base, s):
        raise NotNilpotentError(
            f"{label}: s = {base.format_element(s)} is not nilpotent"
        )
    nd = k * k
    add, neg = _digitwise_add(base, nd)
    # d(i,t,j) is always 0 or 1, so only s^0 = 1 and s^1 = s occur.
    expo = {
        (i, t, j): (i > t) + (t > j) - (i > j)
        for i in range(k) for t in range(k) for j in range(k)
    }

    def mul(x, y):
        dx = _to_digits(x, b, nd)
        dy = _to_digits(y, b, nd)
        out = [0] * nd
        for i in range(k):
            for j in range(k):
                acc = 0
                for t in range(k):
                    term = base.mul(dx[i * k + t], dy[t * k + j])
                    if expo[(i, t, j)]:
                        term = base.mul(s, term)
                    acc = base.add(acc, term)
                out[i * k + j] = acc
        return _from_digits(out, b)

    one = _from_digits(
        [base.one if i == j else 0 for i in range(k) for j in range(k)], b
    )

    def decode(x):
        d = _to_digits(x, b, nd)
        return tuple(
            tuple(base.decode(d[i * k + j]) for j in range(k)) for i in range(k)
        )

    def encode(rows):
        return _from_digits(
            [base.encode(rows[i][j]) for i in range(k) for j in range(k)], b
        )

    R = Ring(
        order=n, add=add, mul=mul, neg=neg, one=one, label=label,
        kind="formal_matrix", decode=decode, encode=encode,
        fmt=lambda x: str([list(r) for r in decode(x)]),
        radices=_radices(base, nd),
        meta={"base": base, "k": k, "s": s},
    )
    gens = [e * b**t for t in range(nd) for e in _additive_generators(base)]
    _verify_associativity(R, label, gens)
    return R
