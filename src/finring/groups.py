"""Finite groups as Cayley tables, with per-element orders."""

from __future__ import annotations

from itertools import permutations

from .errors import CapExceededError

GROUP_CAP = 64


class FiniteGroup:
    """A group on indices 0..order-1 given by its Cayley table."""

    __slots__ = ("order", "cayley", "identity", "inverse", "element_orders", "label")

    def __init__(self, cayley, label, identity=0):
        self.order = len(cayley)
        self.cayley = [list(row) for row in cayley]
        self.label = label
        self.identity = identity
        for g in range(self.order):
            if self.cayley[identity][g] != g or self.cayley[g][identity] != g:
                raise ValueError(f"{label}: {identity} is not an identity")
        self.inverse = [-1] * self.order
        for g in range(self.order):
            for h in range(self.order):
                if self.cayley[g][h] == identity and self.cayley[h][g] == identity:
                    self.inverse[g] = h
                    break
            if self.inverse[g] < 0:
                raise ValueError(f"{label}: element {g} has no inverse")
        self.element_orders = [self._order_of(g) for g in range(self.order)]

    def op(self, g: int, h: int) -> int:
        return self.cayley[g][h]

    def _order_of(self, g: int) -> int:
        k, acc = 1, g
        while acc != self.identity:
            acc = self.cayley[acc][g]
            k += 1
        return k

    def is_associative(self) -> bool:
        c = self.cayley
        r = range(self.order)
        return all(c[c[a][b]][x] == c[a][c[b][x]] for a in r for b in r for x in r)

    def __repr__(self):
        return f"<Group {self.label} order={self.order}>"


def element_order(G: FiniteGroup, g: int) -> int:
    """Least k >= 1 with g^k = identity."""
    if not 0 <= g < G.order:
        raise ValueError(f"element {g} out of range for {G.label}")
    return G.element_orders[g]


def _check_cap(order, label):
    if order > GROUP_CAP:
        raise CapExceededError(f"{label} has order {order} > group cap {GROUP_CAP}")


def cyclic(m: int) -> FiniteGroup:
    if m < 1:
        raise ValueError("cyclic group needs m >= 1")
    _check_cap(m, f"C({m})")
    table = [[(a + b) % m for b in range(m)] for a in range(m)]
    return FiniteGroup(table, f"C({m})")


def dihedral(m: int) -> FiniteGroup:
    """Symmetries of the m-gon, order 2m; element r^a s^e encoded as a + m*e."""
    if m < 1:
        raise ValueError("dihedral group needs m >= 1")
    _check_cap(2 * m, f"D({m})")

    def mul(x, y):
        a, e = x % m, x // m
        b, f = y % m, y // m
        # (r^a s^e)(r^b s^f) = r^(a + b or a - b) s^(e xor f)
        c = (a + b) % m if e == 0 else (a - b) % m
        return c + m * (e ^ f)

    table = [[mul(x, y) for y in range(2 * m)] for x in range(2 * m)]
    return FiniteGroup(table, f"D({m})")


def symmetric(k: int) -> FiniteGroup:
    """S_k on all permutations of k letters, k <= 4."""
    if k < 1 or k > 4:
        raise ValueError("symmetric(k) supports 1 <= k <= 4")
    perms = sorted(permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        # (p ∘ q)(i) = p(q(i))
        return tuple(p[q[i]] for i in range(k))

    table = [[index[compose(p, q)] for q in perms] for p in perms]
    return FiniteGroup(table, f"S({k})")


_Q8_MUL = {
    # (symbol indices: 0=1, 1=i, 2=j, 3=k) -> (sign, symbol)
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def quaternion8() -> FiniteGroup:
    """Q8 = {±1, ±i, ±j, ±k}; index = symbol + 4*(sign bit)."""

    def mul(x, y):
        sx, ax = x // 4, x % 4
        sy, ay = y // 4, y % 4
        sign, sym = _Q8_MUL[(ax, ay)]
        neg = (sx + sy + (1 if sign < 0 else 0)) % 2
        return sym + 4 * neg

    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    return FiniteGroup(table, "Q8")


def group_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    label = f"{G.label} x {H.label}"
    _check_cap(G.order * H.order, label)
    h = H.order
    table = [
        [G.cayley[x // h][y // h] * h + H.cayley[x % h][y % h]
         for y in range(G.order * h)]
        for x in range(G.order * h)
    ]
    return FiniteGroup(table, label, identity=G.identity * h + H.identity)


def p_group_prime(G: FiniteGroup):
    """The prime p if G is a p-group (all element orders are powers of p), else None."""
    if G.order == 1:
        return None
    p = None
    for k in G.element_orders:
        while k > 1:
            for q in range(2, k + 1):
                if k % q == 0:
                    break
            if p is None:
                p = q
            elif q != p:
                return None
            while k % q == 0:
                k //= q
    return p
