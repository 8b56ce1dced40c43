"""Base rings, caches, and ring-axiom checks."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from finring import (
    CapExceededError,
    Ring,
    direct_product,
    freeze,
    is_nilpotent,
    kernel,
    make_zmod,
    ring_pow,
    verify_ring_axioms,
)
from finring.cli import elaborate, parse


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


# (a - b) mod 3 as "addition": has an identity and inverses, not commutative.
_NON_RING = """
from finring import Ring, verify_ring_axioms
R = Ring(3, add=lambda a, b: (a - b) % 3, mul=lambda a, b: a * b % 3,
         neg=lambda a: a, one=1, label="(a - b) mod 3")
try:
    verify_ring_axioms(R)
except AssertionError as exc:
    print(__debug__, type(exc).__name__)
"""


def test_axioms_reject_non_ring_under_optimize():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _NON_RING], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "RingAxiomError"]


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
