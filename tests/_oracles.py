"""Brute-force references shared by the kernel and construction tests."""

import numpy as np

from finring import Ring, make_zmod, matrix_ring
from finring.kernel import _mul_many


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
    """X o Y = (XY)^T on 2 x 2 matrices over Z(2): additive in X and in Y, not associative."""
    M2 = matrix_ring(make_zmod(2), 2)

    def mul(x, y):
        return M2.encode(tuple(zip(*M2.decode(M2.mul(x, y)))))

    return Ring(16, add=M2.add, mul=mul, neg=M2.neg, one=M2.one, label="(XY)^T",
                radices=M2.radices)


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
