"""Base rings, caches, and ring-axiom checks."""

import functools
import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finring import (
    CapExceededError,
    Ring,
    RingAxiomError,
    classify,
    deciders,
    direct_product,
    formal_matrix,
    freeze,
    kernel,
    make_zmod,
    trivial_extension,
    verify_ring_axioms,
)
from finring.cli import elaborate, parse

from _oracles import (
    _check_assoc_np,
    bilinear_product,
    digit_sum,
    is_nilpotent,
    periodic_indices,
    ring_pow,
)


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


# Each ring is rejected by verify_ring_axioms, one for each of its checks,
# then tampered tables by freeze and a tampered power scan by classify.
_NON_RINGS = """
from finring import Ring, classify, freeze, kernel, make_zmod, verify_ring_axioms
non_rings = [
    # Z(6)'s products on Z(2) x Z(3): 1 has additive order 2, 1*2 = 2 has 3,
    # so no bilinear product has them.
    Ring(6, [[1, 2], [2, 4]], one=1, label="Z(6) on (2, 3)", radices=(2, 3)),
    # The cross product on Z(3)^3: bilinear, with no identity.
    Ring(27, [[0, 9, 6], [18, 0, 1], [3, 2, 0]], one=1, label="cross product",
         radices=(3, 3, 3)),
    # Basis 1, e, f over Z(2) with e*f = e and every other product of e and
    # f zero: bilinear and unital, but (e*f)*f = e, e*(f*f) = 0.
    Ring(8, [[1, 2, 4], [2, 0, 2], [4, 0, 0]], one=1, label="ef = e mod 2",
         radices=(2, 2, 2)),
]
for R in non_rings:
    try:
        verify_ring_axioms(R)
    except AssertionError as exc:
        print(__debug__, type(exc).__name__)
# Tampered Z(n) tables, each rejected by one bound of the power scan.
for n, entries in [
    # 5*2 = 0 and 5*5 = 2: the powers of 5 by repeated products and by
    # squaring never meet, so no power index m <= log2(6) is found.
    (6, {(5, 2): 0, (5, 5): 2}),
    # Right products by 3 give 3 -> 5 -> 7 -> 9 -> 11 -> 13 -> 13: a power
    # index 6 > log2(16), so the held saved power 3^4 = 9 never recurs.
    (16, {(3, 3): 5, (5, 3): 7, (7, 3): 9, (9, 3): 11, (11, 3): 13, (13, 3): 13}),
    # The first giant step of the primitive root 6, 6^43 * 6^17, sent to 0:
    # its giant steps never meet its baby steps 6^26, ..., 6^42.
    (251, {(pow(6, 43, 251), pow(6, 17, 251)): 0}),
]:
    R = make_zmod(n)
    kernel._build_tables(R)
    M = R._mul_np.copy()
    for at, product in entries.items():
        M[at] = product
    R._mul_np = M
    try:
        freeze(R)
    except AssertionError as exc:
        print(__debug__, type(exc).__name__)
# A power scan that denies 0 = 0^2 its group inverse: classify's check of
# strong regularity against m = 1 rejects it.
R = freeze(make_zmod(4))
R.caches.power_indices[0][0] = 2
try:
    classify(R)
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
    assert done.stdout.split() == ["False", "RingAxiomError"] * 7


# Z(n) frozen as its p-primary blocks (which freeze would do only above
# TABLE_LIMIT), one block's op table tampered with: each is rejected, also
# under python -O, by the block itself, by the check of the blocks' units on
# Z(n), or by Diesl's check on Z(n) in classify.
_TAMPERED_BLOCKS = """
from finring import classify, kernel, make_zmod
from finring.blocks import _freeze_split, _primary_blocks

for n, p, entries in [
    # The 2-part of Z(48) is Z(16), with the held-power table of _NON_RINGS:
    # its power scan raises inside the block, naming Z(48) and 2.
    (48, 2, {(3, 3): 5, (5, 3): 7, (7, 3): 9, (9, 3): 11, (11, 3): 13, (13, 3): 13}),
    # 2*2 = 1 in the 5-part of Z(10): the block takes 2 for its own inverse,
    # so Z(10) takes 7, with parts 1 and 2, for the inverse of 7.
    (10, 5, {(2, 2): 1}),
    # 2*2 = 2 in the 3-part of Z(6): the block takes 2 for an idempotent, so
    # 2, with parts 0 and 2, is strongly nil-clean by the blocks, while
    # 2 - 2^2 = 4 is not nilpotent in Z(6).
    (6, 3, {(2, 2): 2}),
]:
    R = make_zmod(n)
    blocks = _primary_blocks(R)
    B = next(B for q, B, _ in blocks if q == p)
    kernel._build_tables(B)
    M = B._mul_np.copy()
    for at, product in entries.items():
        M[at] = product
    B._mul_np = M
    try:
        classify(_freeze_split(R, blocks))
        print("accepted", R.label)
    except AssertionError as exc:
        print(__debug__, type(exc).__name__, exc, sep="|")
"""


def test_tampered_blocks_are_rejected_under_optimize():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _TAMPERED_BLOCKS], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert [line.split("|") for line in done.stdout.splitlines()] == [
        ["False", "RingAxiomError", "2-part of Z(48): the powers of 3 do not return to x^4, so "
                                    "its power index exceeds log2(16)"],
        ["False", "RingAxiomError", "Z(10): the unit 7 of its blocks has no two-sided inverse "
                                    "in it"],
        ["False", "RingAxiomError", "Z(6): Diesl's criterion and the idempotent search disagree "
                                    "at 2"],
    ]


def _tampered_zmod(n, entries):
    """Z(n) with op tables whose products (a, b) -> a*b are replaced by `entries`."""
    R = make_zmod(n)
    kernel._build_tables(R)
    M = R._mul_np.copy()
    for at, product in entries.items():
        M[at] = product
    R._mul_np = M
    return R


@pytest.mark.parametrize("n, entries, message", [
    (6, {(5, 2): 0, (5, 5): 2}, "the power index of 5 exceeds log2(6)"),
    (16, {(3, 3): 5, (5, 3): 7, (7, 3): 9, (9, 3): 11, (11, 3): 13, (13, 3): 13},
     "the powers of 3 do not return to x^4, so its power index exceeds log2(16)"),
    (251, {(pow(6, 43, 251), pow(6, 17, 251)): 0},
     "the giant steps of 6 never meet its baby steps"),
    # The second giant step of 6 sent to its first baby step 6^26: a
    # period of 2s = 34, which the scan before the giant steps finds.
    (251, {(pow(6, 43, 251), pow(6, 17, 251)): pow(6, 26, 251)},
     "the powers of 6 repeat within 34 steps of x^26"),
], ids=["m-search", "held power", "no giant hit", "short giant hit"])
def test_power_scan_names_the_broken_bound(n, entries, message):
    # The tables of _NON_RINGS, and one more, each stopped by its own bound.
    with pytest.raises(RingAxiomError, match=f"^{re.escape(f'Z({n}): {message}')}$"):
        kernel._power_scan(_tampered_zmod(n, entries))


# Rings above TABLE_LIMIT, each rejected by verify_ring_axioms with the
# message after it.
_NON_RINGS_ABOVE_LIMIT = """
from finring import Ring, verify_ring_axioms

non_rings = [
    # The products of Z(1296) on Z(6) x Z(216), generators 1 and 6: 1 has
    # additive order 6, but 1*6 = 6 has order 216.
    Ring(1296, [[1, 6], [6, 36]], one=1, label="Z(1296) as (6, 216)", radices=(6, 216)),
    # Basis 1, e, f over Z(11), with e*f = e and every other product of e and
    # f zero: bilinear and unital, but (e*f)*f = e, e*(f*f) = 0.
    Ring(1331, [[1, 11, 121], [11, 0, 11], [121, 0, 0]], one=1, label="ef = e",
         radices=(11, 11, 11)),
]
for R in non_rings:
    try:
        verify_ring_axioms(R)
        print("accepted", R.label)
    except AssertionError as exc:
        print(__debug__, type(exc).__name__, exc, sep="|")
"""


def test_axioms_above_table_limit_reject_non_rings_under_optimize():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _NON_RINGS_ABOVE_LIMIT],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert [line.split("|") for line in done.stdout.splitlines()] == [
        ["False", "RingAxiomError", "Z(1296) as (6, 216): torsion fails at (1, 6): 6*(1*6) != 0"],
        ["False", "RingAxiomError", "ef = e: multiplication not associative at (11, 121, 121)"],
    ]


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


def _full_tables(R):
    """R's add and mul tables on all n^2 pairs, read through _add_many and
    _mul_many, without building R's op tables."""
    every = np.arange(R.order)
    return kernel._add_many(R, every[:, None], every), kernel._mul_many(R, every[:, None], every)


def _assert_witness_breaks_law(R, message):
    """The law that the verify_ring_axioms message names fails on R's full
    tables at the witness the message gives."""
    A, M = _full_tables(R)
    law, at = message.split(": ", 1)[1].split(" at ")
    witness = tuple(int(v) for v in re.findall(r"\d+", at.split(":")[0]))
    if law == "torsion fails":
        q, g, h = map(int, re.fullmatch(r".*: (\d+)\*\((\d+)\*(\d+)\) != 0", message).groups())
        assert witness == (g, h)

        def times(x):                       # q*x by repeated addition
            total = 0
            for _ in range(q):
                total = A[total, x]
            return total

        # q kills g or h but not g*h, so a distributive law fails.
        assert 0 in (times(g), times(h)) and times(M[g, h]) != 0
        assert not _laws_hold(A, M)
    elif law == "multiplicative identity fails":
        (g,) = witness
        assert M[R.one, g] != g or M[g, R.one] != g
    else:
        assert law == "multiplication not associative"
        g, h, k = witness
        assert M[M[g, h], k] != M[g, M[h, k]]


def test_law_check_names_the_broken_law():
    # One non-ring per check, and per side of the torsion and identity
    # checks: the message names the check, and its witness breaks that law
    # on the full tables.
    for R, law in [
        (Ring(8, [[1, 2], [2, 4]], one=1, label="Z(8) on (2, 4)", radices=(2, 4)),
         "torsion fails at (1, 2): 2*(1*2) != 0"),
        # 1 has additive order 4 and 4 has 2, but 1*4 = 1.
        (Ring(8, [[0, 1], [0, 0]], one=1, label="1*4 = 1 on (4, 2)", radices=(4, 2)),
         "torsion fails at (1, 4): 2*(1*4) != 0"),
        (Ring(27, [[0, 9, 6], [18, 0, 1], [3, 2, 0]], one=1, label="cross product",
              radices=(3, 3, 3)), "multiplicative identity fails at 1"),
        # one = 2 is a left identity on (2, 4), not a right one, and conversely.
        (Ring(8, [[0, 0], [1, 2]], one=2, label="left one", radices=(2, 4)),
         "multiplicative identity fails at 1"),
        (Ring(8, [[0, 1], [0, 2]], one=2, label="right one", radices=(2, 4)),
         "multiplicative identity fails at 1"),
        (Ring(8, [[1, 2, 4], [2, 0, 2], [4, 0, 0]], one=1, label="ef = e mod 2",
              radices=(2, 2, 2)), "multiplication not associative at (2, 4, 4)"),
    ]:
        with pytest.raises(RingAxiomError, match=re.escape(f"{R.label}: {law}")) as err:
            verify_ring_axioms(R)
        _assert_witness_breaks_law(R, str(err.value))


# The Z(2) x Z(4) pair lays out the same ring with its generators of
# order 4 and 2 in both orders.
@pytest.mark.parametrize("expr", [
    "Z(6)", "Z(2) x Z(4)", "Z(4) x Z(2)", "M(2, Z(2))", "GR(Z(2), C(2) x C(2))",
])
def test_law_check_matches_reference_on_mutants(expr):
    # 120 seeded single-entry mutants of the generator products: the check
    # accepts exactly the mutants whose full tables, read through _mul_many,
    # satisfy every ring law (the O(n^3) reference) and the identity.
    R = elaborate(parse(expr))
    n, one, every = R.order, R.one, np.arange(R.order)
    verify_ring_axioms(R)
    assert _laws_hold(*_full_tables(R))
    rng = random.Random(0)
    verdicts = set()
    for k in range(120):
        products = R.products.copy()
        i, j = rng.randrange(len(products)), rng.randrange(len(products))
        v = rng.randrange(n - 1)
        products[i, j] = v + (v >= products[i, j])
        S = Ring(n, products, one=one, label="mutant", radices=R.radices)
        A, M = _full_tables(S)
        ring = _laws_hold(A, M) and (M[one] == every).all() and (M[:, one] == every).all()
        try:
            verify_ring_axioms(S)
        except RingAxiomError as exc:
            assert not ring, (k, str(exc))
            _assert_witness_breaks_law(S, str(exc))
            verdicts.add(str(exc).split(": ")[1].split(" at ")[0])
        else:
            assert ring, k
            verdicts.add("ring")
    assert len(verdicts) > 1 or expr == "Z(6)", verdicts


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


def _count_scalar_calls(R):
    """Wrap R's scalar ops to count their calls; returns the live counts."""
    calls = {"add": 0, "mul": 0, "neg": 0}

    def counted(name, op):
        def call(*args):
            calls[name] += 1
            return op(*args)
        return call

    R.add, R.mul, R.neg = counted("add", R.add), counted("mul", R.mul), counted("neg", R.neg)
    return calls


@pytest.mark.parametrize("ring, nilpotents, jacobson, classified", [
    (trivial_extension(make_zmod(33)), 4, 1, 36),
    (direct_product(make_zmod(5), trivial_extension(make_zmod(15))), 4, 1, 39),
], ids=["Triv(Z(33))", "Z(5) x Triv(Z(15))"])
def test_ring_level_sets_read_few_products_above_limit(ring, nilpotents, jacobson, classified,
                                                       monkeypatch):
    # Above TABLE_LIMIT every product read is one _mul_many call.  The
    # nilpotents are the zeros of x^m, one _powers call over the ring: two
    # calls per bit of the largest m, which is 2 here, where squaring every
    # element up to an exponent >= n would take 11.  The Jacobson sieve reads one
    # column per nilpotent it tests and the unit masks one row per generator
    # of the unit group, where one row per element would take n = 1089 or
    # 1125 calls in _compute_jacobson alone.  classify reads no row search:
    # regular and strongly regular are the unit-regular mask and m = 1, each
    # re-verified at its least False, and strongly pi-regular is m = 1 at
    # the cached x^m.  The ring is frozen undivided, as freeze would do if
    # its order were a prime power; test_split_rings_read_few_products
    # counts the products of the p-primary split freeze makes by default.
    R = kernel._freeze_undivided(ring)
    assert R._mul_np is None and R._blocks is None
    calls = []
    mul_many = kernel._mul_many

    def counted(*args):
        calls.append(1)
        return mul_many(*args)

    monkeypatch.setattr(kernel, "_mul_many", counted)
    monkeypatch.setattr(deciders, "_mul_many", counted)
    nil, start = kernel._compute_nilpotents(R, R.caches.power_indices[0])
    assert nil == R.caches.nilpotents and (start == R.caches.cycle_start).all()
    assert len(calls) == nilpotents
    calls.clear()
    assert kernel._compute_jacobson(R, R.caches.units, R.caches.nilpotents) == R.caches.jacobson
    assert len(calls) == jacobson
    calls.clear()
    classify(R)
    assert len(calls) == classified


@pytest.mark.parametrize("ring, calls", [
    (trivial_extension(make_zmod(33)), 113),
    (trivial_extension(make_zmod(34)), 113),
    (make_zmod(17), 17),
], ids=["Triv(Z(33))", "Triv(Z(34))", "Z(17)"])
def test_power_scan_takes_order_sqrt_n_products(ring, calls, monkeypatch):
    # One _mul_many call per step.  Brent's scan with a saved power that
    # keeps doubling took 347 and 804 calls on the two trivial extensions
    # (max k = 331 and 274).  Held at x^16, it stops at x^(16 + 2s),
    # s = ceil(sqrt(n)) + 1 = 34 and 35, and the long periods take a few
    # giant steps x^s, then the m-search.  Z(17) is below the giant-step
    # gate and takes one step per power, as before: every unit closes at
    # x^j == x, by j = 17.
    count = []
    mul_many = kernel._mul_many

    def counted(*args):
        count.append(1)
        return mul_many(*args)

    monkeypatch.setattr(kernel, "_mul_many", counted)
    kernel._power_scan(ring)
    assert len(count) == calls


def test_giant_steps_hold_one_baby_table():
    # Z(4093) takes giant steps (s = 65) from an n x s baby table of uint16.
    # Each lookup gathers the open rows in blocks whose rows and boolean
    # compare take at most n*s bytes, the size of the one n x s boolean
    # buffer the lookups once held, so the scan peaks below the table, that
    # much again and a few int64 arrays of length n.  Blocks of
    # ROW_BLOCK // s rows alone would take 3 * 4032 * 65 bytes, 1.5 n*s.
    R = make_zmod(4093)
    n, s = R.order, 65
    tracemalloc.start()
    try:
        kernel._power_scan(R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * s + n * s + 16 * 8 * n, peak


@settings(deadline=None)
@given(st.one_of(st.builds(make_zmod, st.integers(1, 400)),
                 st.builds(lambda a, b: direct_product(make_zmod(a), make_zmod(b)),
                           st.integers(1, 32), st.integers(1, 32))))
def test_power_scan_matches_power_orbits(R):
    # Orders on both sides of the giant-step gate, up to TABLE_LIMIT, so
    # the scalar orbits read the op tables.
    kernel._build_tables(R)
    m, k = kernel._power_scan(R)
    assert list(zip(m.tolist(), k.tolist())) == [periodic_indices(R, x) for x in R.elements()]


@pytest.mark.parametrize("expr,generators", [("M(2, Z(3))", 4), ("GR(Z(2), C(10))", 10)])
def test_tables_call_scalar_mul_only_for_structure_constants(expr, generators):
    # The structure constants are the |g|^2 generator products the ring was
    # built with, and the generator rows come from them, so the build calls
    # no scalar op: not mul, not add, and not neg (negatives are read off
    # the add table).
    R = elaborate(parse(expr))
    assert R.products.shape == (generators, generators)
    calls = _count_scalar_calls(R)
    kernel._build_tables(R)
    assert calls == {"add": 0, "mul": 0, "neg": 0}


@pytest.mark.parametrize("expr", ["M(2, Z(2))", "M(2, Z(6))", "GR(Z(2), C(12))", "FM(3, Z(4), 2)"])
def test_axioms_read_only_the_structure_constants(expr):
    # The check makes no scalar call, builds no op table and no n x |g|
    # digit matrix, and allocates nothing of size n, on both sides of
    # TABLE_LIMIT (orders 16 to 4^9).
    R = elaborate(parse(expr), cap=4**9)
    calls = _count_scalar_calls(R)
    tracemalloc.start()
    try:
        verify_ring_axioms(R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == {"add": 0, "mul": 0, "neg": 0}
    assert R._mul_np is None and R._structure is None and R._digits is None
    assert peak < 2**20, peak


def _assert_installed_ops_read_tables(R, pairs):
    """R.add, R.mul and R.neg, as _build_tables installs them, give the
    table entries as Python ints, at `pairs` and at every element."""
    kernel._build_tables(R)
    for a in range(R.order):
        got = R.neg(a)
        assert type(got) is int and got == R._neg_np[a], ("neg", a)
    for a, b in pairs:
        for name, op, table in [("add", R.add, R._add_np), ("mul", R.mul, R._mul_np)]:
            got = op(a, b)
            assert type(got) is int and got == table[a, b], (name, a, b)


@pytest.mark.parametrize("expr", _EXHAUSTIVE)
def test_installed_scalar_ops_read_tables(expr):
    R = elaborate(parse(expr))
    _assert_installed_ops_read_tables(R, itertools.product(range(R.order), repeat=2))


@pytest.mark.parametrize("expr", _SAMPLED)
def test_installed_scalar_ops_read_tables_sampled(expr):
    R = elaborate(parse(expr))
    rng = random.Random(0)
    _assert_installed_ops_read_tables(
        R, [(rng.randrange(R.order), rng.randrange(R.order)) for _ in range(10_000)])


@pytest.mark.parametrize("table", ["_add_np", "_mul_np", "_neg_np"])
def test_installed_tables_are_read_only(table):
    # The scalar ops read the tables, so a write would change both views.
    R = make_zmod(5)
    kernel._build_tables(R)
    T = getattr(R, table)
    with pytest.raises(ValueError):
        T[(1,) * T.ndim] = 0
    assert R.mul(2, 3) == 1 and R.add(2, 3) == 0 and R.neg(2) == 3


def test_table_build_keeps_one_copy_of_each_table():
    # The memory _build_tables retains is the three tables themselves, not
    # a second per-ring copy behind the scalar ops, and no digits or
    # structure constants: once the tables exist every product is a lookup.
    R = elaborate(parse("GR(Z(2), C(10))"))
    tracemalloc.start()
    try:
        kernel._build_tables(R)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    tables = R._add_np.nbytes + R._mul_np.nbytes + R._neg_np.nbytes
    assert retained <= 1.25 * tables, (retained, tables)
    assert R._digits is None and R._structure is None


def test_table_build_peaks_near_its_tables():
    # The doubling fill gathers straight into the tables, and the mul fill
    # forms its flat index n // 8 rows at a time, so at order 1024 the
    # build peaks at about 1.5 times the three tables; forming the index
    # for a whole doubling step peaked at 2.8 times.
    R = elaborate(parse("Triv(Z(32))"))
    tracemalloc.start()
    try:
        kernel._build_tables(R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = R._add_np.nbytes + R._mul_np.nbytes + R._neg_np.nbytes
    assert peak < 1.6 * tables, (peak, tables)


# With `frozen`, the tables as freeze installs them rather than _build_tables.
@pytest.mark.parametrize("expr,frozen",
                         [(e, False) for e in _EXHAUSTIVE] + [("Z(2) x Z(4)", True)])
def test_tables_share_one_narrow_dtype(expr, frozen):
    R = elaborate(parse(expr))
    if frozen:
        freeze(R)
    else:
        kernel._build_tables(R)
    for name in ("_add_np", "_mul_np", "_neg_np"):
        T = getattr(R, name)
        assert T.dtype == kernel.TABLE_DTYPE and not T.flags.writeable, name
        assert 0 <= T.min() and T.max() < R.order, name


def test_table_dtype_holds_every_index_below_the_limit():
    assert kernel.TABLE_LIMIT <= np.iinfo(kernel.TABLE_DTYPE).max + 1


def test_order_1024_tables_take_two_bytes_per_entry():
    R = elaborate(parse("Triv(Z(32))"))
    kernel._build_tables(R)
    assert R.order == 1024
    tables = R._add_np.nbytes + R._mul_np.nbytes + R._neg_np.nbytes
    assert tables == (2 * 1024**2 + 1024) * 2


@pytest.mark.parametrize("expr", ["GR(Z(2), C(10))", "Triv(Z(32))"])
def test_tables_at_order_1024_match_structure_constants(expr):
    # The flat index x*n + z of the mul build leaves the int16 range from
    # order 182 on, so at order 1024 the tables are held on all n^2 pairs to
    # the products a fresh ring without tables reads through its structure
    # constants, row by row.
    R, S = elaborate(parse(expr)), elaborate(parse(expr))
    kernel._build_tables(R)
    assert R.order == 1024 and S._mul_np is None
    every = np.arange(S.order)
    for x in range(S.order):
        assert np.array_equal(R._add_np[x], kernel._add_many(S, x, every)), ("add", x)
        assert np.array_equal(R._mul_np[x], kernel._mul_many(S, x, every)), ("mul", x)
    assert S._mul_np is None


# -- the vectorised product against the scalar ops -------------------------


def _products_mismatch(R, pairs, rows, cols):
    """First (form, a, b) at which kernel._mul_many, the scalar R.mul,
    _add_many or _sub_many differ from their reference, or None.

    Products are held to `bilinear_product`, which reads R.radices and
    R.products alone; sums and differences to R's scalar add and neg,
    captured before R is frozen.  The elementwise forms are checked on
    `pairs`; the row x*R and the column R*x of _mul_many at every z in
    `cols`, for every x in `rows`.
    """
    mul = functools.cache(functools.partial(bilinear_product, R))
    add, neg = functools.cache(R.add), R.neg
    freeze(R)
    every = np.arange(R.order)
    a, b = (np.array(t, dtype=np.int64) for t in zip(*pairs))
    cols = np.array(cols, dtype=np.int64)
    forms = [("mul", a, b, kernel._mul_many(R, a, b), mul),
             ("scalar", a, b, np.array([R.mul(p, q) for p, q in zip(a.tolist(), b.tolist())]),
              mul),
             ("add", a, b, kernel._add_many(R, a, b), add),
             ("sub", a, b, kernel._sub_many(R, a, b), lambda p, q: add(p, neg(q)))]
    for x in rows:
        same = np.full(len(cols), x)
        forms += [("row", same, cols, kernel._mul_many(R, x, every)[cols], mul),
                  ("column", cols, same, kernel._mul_many(R, every, x)[cols], mul)]
    for form, xs, ys, got, op in forms:
        for p, q, g in zip(xs.tolist(), ys.tolist(), got.tolist()):
            if op(p, q) != g:
                return (form, p, q)
    return None


def _all_pairs_mismatch(R):
    every = range(R.order)
    return _products_mismatch(R, itertools.product(every, repeat=2), every, every)


@pytest.mark.parametrize("expr", _EXHAUSTIVE)
def test_mul_many_matches_scalar_ops(expr, monkeypatch):
    monkeypatch.setattr(kernel, "TABLE_LIMIT", 0)
    R = elaborate(parse(expr))
    assert _all_pairs_mismatch(R) is None
    assert R._mul_np is None and R._structure is not None


@pytest.mark.parametrize("expr", ["M(2, Z(2) x Z(2))", "M(2, GR(Z(2), C(2)))"])
def test_mul_many_matches_scalar_ops_nested_base(expr, monkeypatch):
    R = elaborate(parse(expr))
    monkeypatch.setattr(kernel, "TABLE_LIMIT", 0)
    assert _all_pairs_mismatch(R.meta["base"]) is None
    # R's products read its own structure constants, not its base's op
    # tables, so they are the same once the base has tables.
    monkeypatch.undo()
    kernel._build_tables(R.meta["base"])
    monkeypatch.setattr(kernel, "TABLE_LIMIT", 0)
    assert _all_pairs_mismatch(R) is None


@pytest.mark.parametrize("expr", ["Triv(Z(33))", "Z(5) x Triv(Z(15))", "M(2, Z(6))",
                                  "GR(Z(2), C(12))", "FM(3, Z(2), 0) x Z(8)"])
def test_mul_many_matches_scalar_ops_sampled(expr):
    # 10^4 sampled pairs for each form: the elementwise ones, and the rows
    # and columns of 10 sampled elements at 1000 sampled elements.
    R = elaborate(parse(expr))
    assert R.order > kernel.TABLE_LIMIT
    rng = random.Random(0)
    pairs = [(rng.randrange(R.order), rng.randrange(R.order)) for _ in range(10_000)]
    rows, cols = rng.sample(range(R.order), 10), rng.sample(range(R.order), 1000)
    assert _products_mismatch(R, pairs, rows, cols) is None


@pytest.mark.parametrize("expr", ["Z(12) x Z(10)", "M(2, Z(3))", "GR(Z(2), C(4))",
                                  "Triv(Z(33))", "M(2, Z(6))", "FM(3, Z(2), 0) x Z(8)"])
def test_sums_with_one_element_match_digit_sums(expr, monkeypatch):
    # Without op tables, a sum or difference with one single element adds
    # its digits, Python ints, to the digit-major rows of the other side.
    # Every form the package calls: the element on either side, as a scalar
    # or a (1, 1) block against every element, and two scalars.
    monkeypatch.setattr(kernel, "TABLE_LIMIT", 0)
    R = elaborate(parse(expr))
    every, n = np.arange(R.order), R.order
    for x in random.Random(0).sample(range(n), 6) + [0, n - 1]:
        block = np.array([[x]])
        for got, sign, left in [(kernel._add_many(R, every, x), 1, False),
                                (kernel._add_many(R, x, every), 1, True),
                                (kernel._sub_many(R, every, x), -1, False),
                                (kernel._sub_many(R, x, every), -1, True),
                                (kernel._sub_many(R, every, block), -1, False),
                                (kernel._add_many(R, block, every), 1, True)]:
            want = [digit_sum(R, x, z, sign) if left else digit_sum(R, z, x, sign)
                    for z in range(n)]
            assert got.shape[-1] == n and got.ravel().tolist() == want, (x, sign, left)
        y = (x * 7 + 3) % n
        assert int(kernel._add_many(R, x, y)) == digit_sum(R, x, y)
        assert int(kernel._sub_many(R, x, y)) == digit_sum(R, x, y, -1)
    assert R._add_np is None


@pytest.mark.parametrize("expr, nonzero", [
    ("Triv(Z(33))", 3), ("Z(5) x Triv(Z(15))", 4), ("GR(Z(2), C(12))", 144),
    ("FM(3, Z(2), 0) x Z(8)", 19), ("M(2, Z(6))", 8), ("M(2, Z(3))", 8), ("Z(12)", 1),
    ("M(2, Z(1))", 0),
])
def test_product_terms_are_the_nonzero_structure_constants(expr, nonzero):
    # The general product sums one term per nonzero C[i, j, l]: the term
    # list holds each of them once, with its coefficient, and nothing else,
    # and building it builds nothing of size n.
    R = elaborate(parse(expr))
    C, r, w, terms = kernel._structure_constants(R)
    assert len(terms) == len(r)
    assert sum(map(len, terms)) == np.count_nonzero(C) == nonzero
    rebuilt = np.zeros_like(C)
    for l, triples in enumerate(terms):
        for i, j, c in triples:
            assert c % r[l] != 0, (i, j, l)
            rebuilt[i, j, l] = c
    assert np.array_equal(rebuilt, C)
    assert R._digits is None


def _negated_zmod(n):
    """Z(n) through x -> -x: the product -a*b mod n, with one n - 1.  Its
    structure constant g*g = n - 1 is the largest a one-radix ring has."""
    return Ring(n, [[n - 1]], one=n - 1, label=f"-Z({n})", radices=(n,))


@pytest.mark.parametrize("ring, product, first", [
    (make_zmod(65536), lambda p, q: p * q % 65536, [1, 2]),
    (direct_product(make_zmod(256), make_zmod(256)),
     lambda p, q: (p // 256) * (q // 256) % 256 * 256 + (p % 256) * (q % 256) % 256, [257, 258]),
    (_negated_zmod(65536), lambda p, q: -p * q % 65536, [65535, 65534]),
], ids=["Z(65536)", "Z(256) x Z(256)", "-Z(65536)"])
def test_products_at_extreme_digits(ring, product, first):
    # The general product sums c * a_i * b_j before it reduces mod r_l; at
    # the largest digits, a = b = n - 1 and n - 2, each such term is near
    # 2^32 in Z(65536), 2^16 in Z(256) x Z(256) and 2^48 in -Z(65536),
    # where c = n - 1.  Every form is held to Python integers.
    n = ring.order
    pairs = list(itertools.product([n - 1, n - 2], repeat=2))
    a, b = (np.array(t) for t in zip(*pairs))
    expected = [product(p, q) for p, q in pairs]
    assert expected[:2] == first
    assert kernel._mul_many(ring, a, b).tolist() == expected
    assert [ring.mul(p, q) for p, q in pairs] == expected
    big = np.array([n - 1, n - 2])
    assert kernel._mul_many(ring, n - 1, big).tolist() == expected[:2]
    assert kernel._mul_many(ring, big, n - 1).tolist() == expected[::2]


def test_products_that_could_pass_int64_are_refused():
    # Up to order 2^18 the unreduced digit sum is below 2^63 by its bound;
    # past it the bound is computed.  In -Z(2^22) the one term reaches
    # (2^22 - 1)^3 > 2^63, so the ring's first product raises instead of
    # wrapping, before anything of size n is built; in -Z(2^21) it fits.
    big = _negated_zmod(2**22)
    with pytest.raises(CapExceededError, match=r"^-Z\(4194304\): a product digit sums to "):
        big.mul(3, 5)
    assert big._structure is None and big._digits is None
    edge = _negated_zmod(2**21)
    assert edge.mul(2**21 - 1, 2**21 - 2) == 2**21 - 2 and edge._digits is None


def test_one_product_builds_nothing_of_the_ring_order():
    # Two single elements are multiplied from their digits x // w % r; the
    # n x |g| digit matrix (order 4^9 here) is built only for arrays.
    F = formal_matrix(make_zmod(4), 3, 2, cap=4**9)
    tracemalloc.start()
    try:
        got = F.mul(5, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == bilinear_product(F, 5, 7)
    assert F._digits is None and peak < 2**20, peak


def test_product_radices():
    assert direct_product(make_zmod(4), make_zmod(6)).radices == (6, 4)


def test_radices_must_multiply_to_order():
    # Negative radices multiply to 6 too; they are rejected before the product.
    for radices, message in [((2, 2), "do not multiply to order 6"),
                             ((-2, -3), "must be integers >= 1"),
                             ((2.0, 3), "must be integers >= 1")]:
        with pytest.raises(ValueError, match=message):
            Ring(6, [[1]], one=1, label="Z(6)", radices=radices)


def test_products_must_be_a_generator_table():
    # Z(6) on Z(2) x Z(3) has two generators, 1 and 2.
    for products, one, message in [([[1]], 1, "products must be a 2 x 2 table"),
                                   ([[1, 2], [2, 6]], 1, "indices below 6"),
                                   ([[1, 2], [2, -1]], 1, "indices below 6"),
                                   ([[1, 2], [2, 4]], 6, "one = 6 is not an index below 6")]:
        with pytest.raises(ValueError, match=message):
            Ring(6, products, one=one, label="Z(6)", radices=(2, 3))
