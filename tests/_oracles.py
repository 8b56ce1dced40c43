"""Brute-force references shared by the kernel and construction tests."""

import functools

import numpy as np

from finring import Ring, make_zmod, matrix_ring
from finring.kernel import _add_many, _indicator, _mul_many, _row_blocks, _sub_many


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
    for us in _row_blocks(R, R.caches.unit_array):
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
