"""Base rings, caches, and ring-axiom checks."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from finring import (
    CapExceededError,
    Ring,
    RingAxiomError,
    direct_product,
    freeze,
    is_nilpotent,
    kernel,
    make_zmod,
    matrix_ring,
    ring_pow,
    verify_ring_axioms,
)
from finring.cli import elaborate, parse

from _oracles import _check_assoc_np, _closure, transposed_product


def frozen_zmod(n):
    return freeze(make_zmod(n))


class TestZmod:
    def test_zero_ring(self):
        R = frozen_zmod(1)
        assert R.order == 1
        assert R.zero == R.one == 0
        assert R.caches.units == R.caches.idempotents == R.caches.nilpotents == {0}

    def test_z6_idempotents(self):
        assert sorted(frozen_zmod(6).caches.idempotents) == [0, 1, 3, 4]

    def test_z8_nilpotents(self):
        assert sorted(frozen_zmod(8).caches.nilpotents) == [0, 2, 4, 6]

    def test_labels(self):
        assert make_zmod(6).label == "Z(6)"

    def test_invalid_zero(self):
        with pytest.raises(ValueError):
            make_zmod(0)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            make_zmod(100, cap=50)


class TestJacobson:
    def test_z4(self):
        assert sorted(frozen_zmod(4).caches.jacobson) == [0, 2]

    def test_z6(self):
        assert sorted(frozen_zmod(6).caches.jacobson) == [0]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 9, 12, 16, 27, 30])
    def test_jacobson_inside_nilpotents(self, n):
        R = frozen_zmod(n)
        assert R.caches.jacobson <= R.caches.nilpotents

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_jacobson_is_ideal(self, n):
        R = frozen_zmod(n)
        jac = R.caches.jacobson
        for a in jac:
            for b in jac:
                assert R.add(a, b) in jac
            for r in R.elements():
                assert R.mul(r, a) in jac and R.mul(a, r) in jac

    @pytest.mark.parametrize("n", [4, 8, 9, 16, 27])
    def test_jacobson_nilpotent(self, n):
        R = frozen_zmod(n)
        layer = set(R.caches.jacobson)
        for _ in range(R.order):
            if layer == {0}:
                break
            layer = {R.mul(a, b) for a in layer for b in R.caches.jacobson}
        assert layer == {0}


class TestUnits:
    @pytest.mark.parametrize("n", [2, 4, 6, 9, 12])
    def test_inverse_involution(self, n):
        R = frozen_zmod(n)
        inv = R.caches.unit_inverse
        for u, v in inv.items():
            assert inv[v] == u
            assert R.mul(u, v) == R.one and R.mul(v, u) == R.one

    @pytest.mark.parametrize("n", [2, 4, 6, 9, 12])
    def test_units_closed_under_product(self, n):
        R = frozen_zmod(n)
        units = R.caches.units
        assert all(R.mul(u, v) in units for u in units for v in units)


class TestDirectProduct:
    def test_census_matches_z6(self):
        P = freeze(direct_product(make_zmod(2), make_zmod(3)))
        Z6 = frozen_zmod(6)
        assert P.order == 6
        assert len(P.caches.units) == len(Z6.caches.units) == 2
        assert len(P.caches.idempotents) == len(Z6.caches.idempotents) == 4
        assert len(P.caches.nilpotents) == len(Z6.caches.nilpotents) == 1

    def test_zero_factor(self):
        R = make_zmod(5)
        P = direct_product(make_zmod(1), R)
        assert P.order == R.order

    def test_z2_z2_units(self):
        P = freeze(direct_product(make_zmod(2), make_zmod(2)))
        assert P.caches.units == {P.encode((1, 1))}

    def test_cap(self):
        with pytest.raises(CapExceededError):
            direct_product(make_zmod(300), make_zmod(300), cap=1000)


class TestFreeze:
    def test_idempotent_operation(self):
        R = make_zmod(6)
        assert freeze(R) is freeze(R)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            freeze(make_zmod(5000), cap=4096)


class TestPow:
    def test_square_to_zero(self):
        assert ring_pow(make_zmod(4), 2, 2) == 0

    def test_z6(self):
        assert ring_pow(make_zmod(6), 5, 2) == 1

    @pytest.mark.parametrize("x", range(6))
    def test_zeroth_power(self, x):
        R = make_zmod(6)
        assert ring_pow(R, x, 0) == R.one


class TestIsNilpotent:
    def test_z8(self):
        assert is_nilpotent(make_zmod(8), 2)

    def test_z6(self):
        assert not is_nilpotent(make_zmod(6), 2)

    @pytest.mark.parametrize("n", [1, 4, 6, 8, 9, 12, 16])
    def test_agrees_with_cache(self, n):
        R = frozen_zmod(n)
        for x in R.elements():
            assert is_nilpotent(R, x) == (x in R.caches.nilpotents)


@pytest.mark.parametrize("n", list(range(1, 31)))
def test_zmod_axioms(n):
    verify_ring_axioms(make_zmod(n))


def test_product_axioms():
    verify_ring_axioms(direct_product(make_zmod(4), make_zmod(9)))


# Each ring is rejected by verify_ring_axioms.
_NON_RINGS = """
from finring import Ring, verify_ring_axioms
non_rings = [
    # (a - b) mod 3 as "addition": has an identity and inverses, not commutative.
    Ring(3, add=lambda a, b: (a - b) % 3, mul=lambda a, b: a * b % 3,
         neg=lambda a: a, one=1, label="(a - b) mod 3"),
    # Z/3 with 2*2 = 0: not left-additive, which its radices claim.
    Ring(3, add=lambda a, b: (a + b) % 3, mul=lambda a, b: [[0, 0, 0], [0, 1, 2], [0, 2, 0]][a][b],
         neg=lambda a: (-a) % 3, one=1, label="2*2 = 0 mod 3", radices=(3,)),
    # Z/3 with 2*1 = 0: its generator row 1*y is right, so its table is Z/3's.
    Ring(3, add=lambda a, b: (a + b) % 3, mul=lambda a, b: [[0, 0, 0], [0, 1, 2], [0, 0, 1]][a][b],
         neg=lambda a: (-a) % 3, one=1, label="2*1 = 0 mod 3", radices=(3,)),
]
for R in non_rings:
    try:
        verify_ring_axioms(R)
    except AssertionError as exc:
        print(__debug__, type(exc).__name__)
"""


def test_axioms_reject_non_ring_under_optimize():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _NON_RINGS], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "RingAxiomError"] * 3


def test_axioms_reject_non_additive_scalar_mul():
    # The table built from the generator row 1*y has 2*2 = 1*2 + 1*2 = 1;
    # the scalar mul says 0.  Without radices the table is the scalar mul
    # and left distributivity fails.
    def ring(table, radices):
        return Ring(3, add=lambda a, b: (a + b) % 3, mul=lambda a, b: table[a][b],
                    neg=lambda a: (-a) % 3, one=1, label="non-additive mod 3", radices=radices)

    two_squared_zero = [[0, 0, 0], [0, 1, 2], [0, 2, 0]]
    with pytest.raises(RingAxiomError, match=r"scalar mul gives 2\*2 = 0, its table 1"):
        verify_ring_axioms(ring(two_squared_zero, (3,)))
    with pytest.raises(RingAxiomError, match=r"left distributivity fails at \(2, 1, 1\)"):
        verify_ring_axioms(ring(two_squared_zero, None))
    # With 2*1 = 0 the generator row 1*y is right, so the table is Z/3's;
    # the identity checks through the scalar mul catch it.
    with pytest.raises(RingAxiomError, match="multiplicative identity fails at 2"):
        verify_ring_axioms(ring([[0, 0, 0], [0, 1, 2], [0, 0, 1]], (3,)))


def test_axioms_reject_wrong_scalar_add_beyond_generator_rows():
    # 2 + 0 = 1, but the generator row 1 + y is right, so the table is Z/3's.
    table = [[0, 1, 2], [1, 2, 0], [1, 0, 1]]
    R = Ring(3, add=lambda a, b: table[a][b], mul=lambda a, b: a * b % 3,
             neg=lambda a: (-a) % 3, one=1, label="2 + 0 = 1 mod 3", radices=(3,))
    with pytest.raises(RingAxiomError, match="additive identity fails at 2"):
        verify_ring_axioms(R)


@pytest.mark.parametrize("table,entry,message", [
    ("_add_np", (3, 0), "additive identity fails at 3"),
    ("_add_np", (2, 3), "inverse fails at 2"),
    ("_mul_np", (4, 1), "multiplicative identity fails at 4"),
    ("_mul_np", (1, 4), "multiplicative identity fails at 4"),
])
def test_axioms_check_identities_on_tables(table, entry, message):
    # Tampering with a built table leaves the table-backed scalar ops intact,
    # so only the checks on the tables see it.
    R = make_zmod(5)
    kernel._build_tables(R)
    T = getattr(R, table).copy()
    T[entry] = (T[entry] + 1) % 5
    setattr(R, table, T)
    with pytest.raises(RingAxiomError, match=message):
        verify_ring_axioms(R)


# -- the generator-based law check against the O(n^3) reference --------------


def _laws_hold(A, M):
    """Whether A and M satisfy every ring law, checked on all n^3 triples."""
    if not np.array_equal(A, A.T) or _check_assoc_np(A) or _check_assoc_np(M):
        return False
    for a in range(A.shape[0]):
        row, col = M[a], M[:, a]
        if not np.array_equal(row[A], A[row[:, None], row[None, :]]):    # a*(b+c)
            return False
        if not np.array_equal(col[A], A[col[:, None], col[None, :]]):    # (b+c)*a
            return False
    return True


_LAWS = {
    "addition not commutative": lambda A, M, a, b: A[a, b] != A[b, a],
    "addition not associative": lambda A, M, a, b, c: A[A[a, b], c] != A[a, A[b, c]],
    "left distributivity fails": lambda A, M, a, b, c: M[a, A[b, c]] != A[M[a, b], M[a, c]],
    "right distributivity fails": lambda A, M, a, b, c: M[A[b, c], a] != A[M[b, a], M[c, a]],
    "multiplication not associative": lambda A, M, a, b, c: M[M[a, b], c] != M[a, M[b, c]],
}


def test_law_check_names_the_broken_law():
    R = freeze(matrix_ring(make_zmod(2), 2))
    A, M, gens = R._add_np, R._mul_np, kernel._additive_generators(R)
    T = transposed_product()
    kernel._build_tables(T)
    for M2, law in [(T._mul_np, "multiplication not associative"),
                    (M[np.diagonal(M)], "right distributivity fails"),    # x^2 y
                    (M[:, np.diagonal(M)], "left distributivity fails")]:  # x y^2
        got = kernel._law_violation(A, M2, gens)
        assert got[0] == law and _LAWS[law](A, M2, *got[1])
        assert not _laws_hold(A, M2)
    # Z(2) x Z(4) is a ring, but its generator 1 alone reaches only Z(4).
    P = freeze(direct_product(make_zmod(2), make_zmod(4)))
    law, at = kernel._law_violation(P._add_np, P._mul_np, [1])
    assert law == "additive generators do not generate" and at == (4,)
    assert at[0] not in _closure(P._add_np, [1])


def _opaque(R):
    return Ring(R.order, add=R.add, mul=R.mul, neg=R.neg, one=R.one, label=f"{R.label} opaque")


@pytest.mark.parametrize("expr,opaque", [
    ("Z(6)", True), ("Z(2) x Z(4)", True),
    ("Z(2) x Z(4)", False), ("M(2, Z(2))", False), ("GR(Z(2), C(2) x C(2))", False),
])
def test_law_check_matches_reference_on_mutants(expr, opaque):
    R = elaborate(parse(expr))
    if opaque:
        R = _opaque(R)
    kernel._build_tables(R)
    gens = kernel._additive_generators(R)
    assert len(gens) == (R.order if opaque else len(R.radices))
    A, M, n = R._add_np, R._mul_np, R.order
    assert kernel._law_violation(A, M, gens) is None and _laws_hold(A, M)
    rng = random.Random(0)
    for k in range(120):
        # Half of the add mutants sit on the diagonal, where A stays symmetric.
        A2, M2 = A.copy(), M.copy()
        T = A2 if k % 2 else M2
        i, j = rng.randrange(n), rng.randrange(n)
        if T is A2 and k % 4 == 1:
            j = i
        v = rng.randrange(n - 1)
        T[i, j] = v + (v >= T[i, j])
        got = kernel._law_violation(A2, M2, gens)
        assert (got is None) == _laws_hold(A2, M2), (k, got)
        if got is not None:
            law, at = got
            if law == "additive generators do not generate":
                assert at[0] not in _closure(A2, gens)
            else:
                assert _LAWS[law](A2, M2, *at), (k, got)


# -- op tables against the scalar ops ----------------------------------------


def _table_mismatch(R, pairs=None):
    """First (op, a, b) where R's op tables differ from its scalar ops, or None.

    The scalar ops are taken before the tables are built, because building
    them rebinds R.add, R.mul and R.neg to table lookups.  All pairs unless
    `pairs` is given; neg on every element.
    """
    add, mul, neg = R.add, R.mul, R.neg
    kernel._build_tables(R)
    n = R.order
    for a in range(n):
        if R._neg_np[a] != neg(a):
            return ("neg", a, None)
    for a, b in itertools.product(range(n), repeat=2) if pairs is None else pairs:
        if R._add_np[a, b] != add(a, b):
            return ("add", a, b)
        if R._mul_np[a, b] != mul(a, b):
            return ("mul", a, b)
    return None


# One ring per construction family, and the zero ring.
_EXHAUSTIVE = [
    "Z(12)", "Z(4) x Z(6)", "M(2, Z(3))", "U(2, Z(4))", "GR(Z(2), S(3))",
    "Triv(Z(12))", "Ks(Z(4), 2)", "FM(2, Z(4), 2)", "M(2, Z(1))",
]
_SAMPLED = ["GR(Z(2), C(10))", "Triv(Z(32))", "U(2, Z(10))", "FM(3, Z(2), 0)"]


@pytest.mark.parametrize("expr", _EXHAUSTIVE)
def test_tables_match_scalar_ops(expr):
    R = elaborate(parse(expr))
    assert R.radices is not None
    assert _table_mismatch(R) is None


@pytest.mark.parametrize("expr", ["M(2, Z(2) x Z(2))", "M(2, GR(Z(2), C(2)))"])
def test_tables_match_scalar_ops_nested_base(expr):
    # The base is checked first; its table lookups then keep the n^2 scalar
    # products of the matrix ring cheap.
    R = elaborate(parse(expr))
    assert _table_mismatch(R.meta["base"]) is None
    assert _table_mismatch(R) is None


@pytest.mark.parametrize("expr", _SAMPLED)
def test_tables_match_scalar_ops_sampled(expr):
    R = elaborate(parse(expr))
    rng = random.Random(0)
    pairs = [(rng.randrange(R.order), rng.randrange(R.order)) for _ in range(10_000)]
    assert _table_mismatch(R, pairs) is None


def test_table_mismatch_is_reported():
    # x*y = x^2 y is not additive in x: the doubled row 2 is 2y, the scalar 4y = y.
    R = Ring(3, add=lambda a, b: (a + b) % 3, mul=lambda a, b: a * a * b % 3,
             neg=lambda a: (-a) % 3, one=1, label="x^2 y mod 3", radices=(3,))
    assert _table_mismatch(R) == ("mul", 2, 1)


def test_opaque_ring_tables_match_scalar_ops():
    R = Ring(6, add=lambda a, b: (a + b) % 6, mul=lambda a, b: a * b % 6,
             neg=lambda a: (-a) % 6, one=1, label="Z(6) opaque")
    assert R.radices is None
    assert _table_mismatch(R) is None


def test_product_radices():
    assert direct_product(make_zmod(4), make_zmod(6)).radices == (6, 4)
    opaque = Ring(2, add=lambda a, b: (a + b) % 2, mul=lambda a, b: a * b,
                  neg=lambda a: a, one=1, label="opaque")
    assert direct_product(make_zmod(3), opaque).radices is None


def test_radices_must_multiply_to_order():
    with pytest.raises(ValueError):
        Ring(6, add=lambda a, b: (a + b) % 6, mul=lambda a, b: a * b % 6,
             neg=lambda a: (-a) % 6, one=1, label="Z(6)", radices=(2, 2))
