"""Derived ring constructions over a base ring.

All constructions are positional: an element is a little-endian vector of
nd base-ring digits, and the index is sum(digit_t * |base|^t).  Addition is
digitwise and multiplication is bilinear in the digits, so a construction
is one call of `_positional` with its terms (i, j, l, c), each meaning
"digit l of x*y gains c*(x_i*y_j)", c a central base element or None for
1.  The base radices, once per digit, are the radices of the construction,
so they define its addition.  The terms are the one definition of a
construction's product: `_positional` evaluates them once, on the products
of the base's additive generators, into the products of the construction's
generators, which ``kernel.Ring`` extends bilinearly.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import (
    AssociativityError,
    CapExceededError,
    NotCentralError,
    NotNilpotentError,
    WrongConstructionError,
)
from .groups import FiniteGroup
from .kernel import (
    ARITH_CAP, Ring, _assoc_violation, _constants, _mul_many, _places, _powers,
)


def _positional(base: Ring, nd: int, label: str, kind: str, cap: int, meta: dict,
                terms, one, fmt, decode=None, encode=None) -> Ring:
    """The ring of nd base-ring digits whose product is the sum of the terms.

    Over the cap it raises CapExceededError before it calls `terms`, which
    runs the construction's own checks and returns the (i, j, l, c) list,
    and before it reads `one`, the digits that hold base.one in the
    identity.  fmt, decode and encode see digit lists; decode gives a tuple
    of base values by default and encode takes one.

    The generators of the ring are e*b^t, base generator e in digit t, in
    that order (t outer).  The terms are evaluated once, on arrays: with
    P[a, c] = e_a*e_c from the base's `_mul_many`, term (i, j, l, c) adds
    c*P to digit l of every product (i, e_a)*(j, e_c).  The base digits of
    P and of each c*P are summed over all terms at once, by one
    ``np.add.at`` over (i, j, l), and reduced once, modulo the base
    radices: a base sum is digitwise.
    """
    b = base.order
    shown = f"{b}^{nd}"
    if nd * (b.bit_length() - 1) > max(cap.bit_length(), 2**16):
        # b**nd >= 2**(nd * (bit_length(b) - 1)): over the cap, not computed.
        raise CapExceededError(f"{label} has order {shown} > cap {cap}")
    n = b**nd
    if n > cap:
        with contextlib.suppress(ValueError):   # more digits than int -> str allows
            shown = str(n)
        raise CapExceededError(f"{label} has order {shown} > cap {cap}")
    # Over a base of order 1 every digit is 0, so no term is needed (and no
    # check in terms() can fail); k x k matrices would otherwise hold k^3.
    terms = terms() if b > 1 else []
    weights = [b**t for t in range(nd)]

    def digits(x):
        return [x // w % b for w in weights]

    def index(ds):
        i = 0
        for d in reversed(ds):
            i = i * b + d
        return i

    _, r, w = _constants(base)                                 # e_a = w[a]
    P = _mul_many(base, w[:, None], w)                         # [a, c] -> e_a*e_c
    scales = list(dict.fromkeys(c for *_, c in terms))         # None or a central c
    scaled = np.array([P if c is None else _mul_many(base, c, P) for c in scales],
                      dtype=np.int64).reshape(len(scales), *P.shape, 1) // w % r
    sums = np.zeros((nd, nd, nd) + scaled.shape[1:], dtype=np.int64)   # [i, j, l, a, c, d]
    i, j, l = np.array([t[:3] for t in terms], dtype=np.intp).reshape(-1, 3).T
    np.add.at(sums, (i, j, l), scaled[[scales.index(t[3]) for t in terms]])
    out = sums % r @ w                                         # [i, j, l, a, c]
    products = np.einsum("l,ijlac->iajc", np.array(weights, dtype=np.int64), out)

    decode = decode or (lambda ds: tuple(base.decode(d) for d in ds))
    encode = encode or (lambda v: [base.encode(c) for c in v])
    return Ring(
        order=n, products=products.reshape(nd * len(w), nd * len(w)),
        one=sum(base.one * weights[t] for t in one),
        label=label, kind=kind, decode=lambda x: decode(digits(x)),
        encode=lambda v: index(encode(v)), fmt=lambda x: fmt(digits(x)),
        radices=base.radices * nd, meta=meta,
    )


# -- matrix rings ----------------------------------------------------------


def _entries(k: int, upper: bool):
    """The entries (i, j) of a k x k matrix, the upper-triangular ones if
    `upper`, in row-major order, which is their digit order."""
    return ((i, j) for i in range(k) for j in range(i if upper else 0, k))


def _slot(k: int, upper: bool):
    """The digit of entry (i, j) in `_entries` order: row r < i holds k
    entries, or k - r if `upper`."""
    return lambda i, j: i * k + j - (i * (i + 1) // 2 if upper else 0)


def _matrix_terms(k: int, s=None, upper: bool = False) -> list:
    """Terms of the k x k matrix product on the `_entries` digits.

    Entry (i, j) gains s^d(i,t,j) * x[i,t] * y[t,j] for every t with both
    factors among the entries, where d(i,t,j) = [i>t] + [t>j] - [i>j] is
    the formal matrix weight, always 0 or 1; s None means no weight.
    """
    slot = _slot(k, upper)
    return [(slot(i, t), slot(t, j), slot(i, j), s if (i > t) + (t > j) - (i > j) else None)
            for i, j in _entries(k, upper) for t in (range(i, j + 1) if upper else range(k))]


def _matrix(base: Ring, k: int, label: str, kind: str, cap: int, meta: dict,
            terms=None, upper: bool = False) -> Ring:
    """k x k matrices (upper-triangular ones if `upper`) over the base ring,
    decoded as a tuple of rows; `terms` defaults to the unweighted product.
    Nothing of size k^2 is built before the cap check."""
    slot = _slot(k, upper)

    def decode(ds):
        return tuple(
            tuple(base.decode(ds[slot(i, j)]) if j >= i or not upper else base.decode(0)
                  for j in range(k))
            for i in range(k)
        )

    return _positional(
        base, k * (k + 1) // 2 if upper else k * k, label, kind, cap, meta,
        terms or (lambda: _matrix_terms(k, upper=upper)),
        one=(slot(i, i) for i in range(k)), decode=decode,
        encode=lambda rows: [base.encode(rows[i][j]) for i, j in _entries(k, upper)],
        fmt=lambda ds: str([list(r) for r in decode(ds)]),
    )


def matrix_ring(base: Ring, k: int, cap: int = ARITH_CAP) -> Ring:
    """Full ring of k x k matrices over the base ring."""
    if k < 1:
        raise ValueError("matrix size must be >= 1")
    return _matrix(base, k, f"M({k}, {base.label})", "matrix", cap, {"base": base, "k": k})


def upper_triangular(base: Ring, k: int, cap: int = ARITH_CAP) -> Ring:
    """Ring of upper-triangular k x k matrices over the base ring."""
    if k < 1:
        raise ValueError("matrix size must be >= 1")
    return _matrix(base, k, f"U({k}, {base.label})", "upper_triangular", cap,
                   {"base": base, "k": k}, upper=True)


# -- group rings -----------------------------------------------------------


def group_ring(base: Ring, G: FiniteGroup, cap: int = ARITH_CAP) -> Ring:
    """Group ring: coefficient vectors over the base ring with convolution."""
    # digit t holds the coefficient of group element t; the group identity
    # may be any index, so "one" is placed accordingly.
    def fmt(ds):
        terms = [f"{base.format_element(c)}*g{g}" for g, c in enumerate(ds) if c != 0]
        return " + ".join(terms) if terms else "0"

    return _positional(
        base, G.order, f"GR({base.label}, {G.label})", "group_ring", cap,
        {"base": base, "group": G},
        lambda: [(h, t, G.op(h, t), None) for h in range(G.order) for t in range(G.order)],
        one=[G.identity], fmt=fmt,
    )


def augmentation(RG: Ring, x: int) -> int:
    """Coefficient sum of a group-ring element, in the base ring."""
    if RG.kind != "group_ring":
        raise WrongConstructionError(f"{RG.label} was not built by group_ring")
    _require_element(RG, x, "x")
    base = RG.meta["base"]
    b = base.order
    coefficients = [x // b**t % b for t in range(RG.meta["group"].order)]
    return sum(sum(c // w % r for c in coefficients) % r * w for w, r in _places(base.radices))


# -- trivial extension -----------------------------------------------------


def trivial_extension(base: Ring, cap: int = ARITH_CAP) -> Ring:
    """Pairs (a, m) with (a, m)(a', m') = (aa', am' + ma')."""
    return _positional(
        base, 2, f"Triv({base.label})", "trivial_extension", cap, {"base": base},
        lambda: [(0, 0, 0, None), (0, 1, 1, None), (1, 0, 1, None)], one=[0],
        fmt=lambda ds: f"({base.format_element(ds[0])} | {base.format_element(ds[1])})",
    )


# -- generalized and formal matrix rings -----------------------------------


def _require_element(R: Ring, x, name: str) -> None:
    """Raise ValueError unless x is an integer in 0..order-1, an element index
    of R; numpy would read a negative index from the end."""
    if not isinstance(x, (int, np.integer)) or not 0 <= x < R.order:
        raise ValueError(f"{name} = {x!r} is not an element index of {R.label} "
                         f"(0..{R.order - 1})")


def _require_central(base: Ring, s: int, label: str):
    every = np.arange(base.order)
    bad = np.flatnonzero(_mul_many(base, s, every) != _mul_many(base, every, s))
    if bad.size:
        raise NotCentralError(
            f"{label}: s = {base.format_element(s)} is not central "
            f"(fails at {base.format_element(int(bad[0]))})"
        )


def generalized_matrix(base: Ring, s: int, cap: int = ARITH_CAP) -> Ring:
    """2x2 generalized matrix ring with both pairings scaled by central s.

    Elements are quadruples (a, x, y, b); the product's diagonal entries
    pick up a factor of s on the off-diagonal cross terms.  Its product is
    that of the formal matrix ring FM(2, R, s), for any central s.
    """
    _require_element(base, s, "s")
    label = f"Ks({base.label}, {base.format_element(s)})"

    def terms():
        _require_central(base, s, label)
        return _matrix_terms(2, s)

    return _positional(base, 4, label, "generalized_matrix", cap, {"base": base, "s": s},
                       terms, one=[0, 3], fmt=lambda ds: str([base.decode(d) for d in ds]))


def _verify_associativity(R: Ring):
    """Raise AssociativityError on the least triple (g, h, k) of additive
    generators with (g*h)*k != g*(h*k), from R's structure constants alone
    (`kernel._assoc_violation`, the associativity check of
    verify_ring_axioms): exhaustive at every order in |g|^3 triples, with
    nothing of size |R|.
    """
    bad = _assoc_violation(R)
    if bad is not None:
        raise AssociativityError(f"{R.label}: multiplication not associative at {bad}")


def formal_matrix(base: Ring, k: int, s: int, cap: int = ARITH_CAP) -> Ring:
    """k x k formal matrix ring weighted by powers of a central nilpotent s.

    The entry (i, j) of a product is sum over t of s^d(i,t,j) * x[i,t] * y[t,j]
    with d(i,t,j) = [i>t] + [t>j] - [i>j].  For k = 2 this is exactly the
    generalized 2x2 construction.  The exponent scheme is verified by an
    associativity gate at construction time, exhaustive at every order: the
    product is bilinear, so it is checked on all triples of additive
    generators (each digit slot times a generator of the base).
    """
    if k < 2:
        raise ValueError("formal matrix ring needs k >= 2")
    _require_element(base, s, "s")
    label = f"FM({k}, {base.label}, {base.format_element(s)})"

    def terms():
        _require_central(base, s, label)
        # A nilpotent's powers are distinct until the first zero, so its
        # index is at most |base|.
        if _powers(base, np.array([s]), np.array([base.order]))[0] != 0:
            raise NotNilpotentError(
                f"{label}: s = {base.format_element(s)} is not nilpotent"
            )
        return _matrix_terms(k, s)

    R = _matrix(base, k, label, "formal_matrix", cap, {"base": base, "k": k, "s": s}, terms)
    _verify_associativity(R)
    return R
