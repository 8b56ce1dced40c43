"""Base rings, caches, and ring-axiom checks."""

import functools
import itertools
import math
import operator
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
    standard_corpus,
    trivial_extension,
    verify_ring_axioms,
)
from finring.cli import elaborate, parse

from _oracles import (
    _check_assoc_np,
    bilinear_product,
    digit_sum,
    inverse_map,
    is_nilpotent,
    members,
    periodic_indices,
    ring_add,
    ring_mul,
    ring_pow,
)


def frozen_zmod(n):
    return freeze(make_zmod(n))


class TestZmod:
    def test_zero_ring(self):
        R = frozen_zmod(1)
        assert R.order == 1
        assert R.zero == R.one == 0
        caches = R.caches
        assert members(caches.is_unit) == members(caches.is_idempotent) == {0}
        assert members(caches.is_nilpotent) == {0}

    def test_z6_idempotents(self):
        assert np.flatnonzero(frozen_zmod(6).caches.is_idempotent).tolist() == [0, 1, 3, 4]

    def test_z8_nilpotents(self):
        assert np.flatnonzero(frozen_zmod(8).caches.is_nilpotent).tolist() == [0, 2, 4, 6]

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
        assert np.flatnonzero(frozen_zmod(4).caches.is_jacobson).tolist() == [0, 2]

    def test_z6(self):
        assert np.flatnonzero(frozen_zmod(6).caches.is_jacobson).tolist() == [0]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 9, 12, 16, 27, 30])
    def test_jacobson_inside_nilpotents(self, n):
        R = frozen_zmod(n)
        assert not (R.caches.is_jacobson & ~R.caches.is_nilpotent).any()

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_jacobson_is_ideal(self, n):
        R = frozen_zmod(n)
        jac = members(R.caches.is_jacobson)
        for a in jac:
            for b in jac:
                assert ring_add(R, a, b) in jac
            for r in R.elements():
                assert ring_mul(R, r, a) in jac and ring_mul(R, a, r) in jac

    @pytest.mark.parametrize("n", [4, 8, 9, 16, 27])
    def test_jacobson_nilpotent(self, n):
        R = frozen_zmod(n)
        layer = jac = members(R.caches.is_jacobson)
        for _ in range(R.order):
            if layer == {0}:
                break
            layer = {ring_mul(R, a, b) for a in layer for b in jac}
        assert layer == {0}


class TestUnits:
    @pytest.mark.parametrize("n", [2, 4, 6, 9, 12])
    def test_inverse_involution(self, n):
        R = frozen_zmod(n)
        inv = inverse_map(R)
        for u, v in inv.items():
            assert inv[v] == u
            assert ring_mul(R, u, v) == R.one and ring_mul(R, v, u) == R.one

    @pytest.mark.parametrize("n", [2, 4, 6, 9, 12])
    def test_units_closed_under_product(self, n):
        R = frozen_zmod(n)
        units = members(R.caches.is_unit)
        assert all(ring_mul(R, u, v) in units for u in units for v in units)


class TestDirectProduct:
    def test_census_matches_z6(self):
        P = freeze(direct_product(make_zmod(2), make_zmod(3)))
        Z6 = frozen_zmod(6)
        assert P.order == 6
        assert P.caches.is_unit.sum() == Z6.caches.is_unit.sum() == 2
        assert P.caches.is_idempotent.sum() == Z6.caches.is_idempotent.sum() == 4
        assert P.caches.is_nilpotent.sum() == Z6.caches.is_nilpotent.sum() == 1

    def test_zero_factor(self):
        R = make_zmod(5)
        P = direct_product(make_zmod(1), R)
        assert P.order == R.order

    def test_z2_z2_units(self):
        P = freeze(direct_product(make_zmod(2), make_zmod(2)))
        assert members(P.caches.is_unit) == {P.encode((1, 1))}

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


@pytest.mark.parametrize("ring, tabled, split", [
    (make_zmod(12), True, False),
    (make_zmod(1031), False, False),
    (trivial_extension(make_zmod(33)), False, True),
], ids=["Z(12)", "Z(1031)", "Triv(Z(33))"])
def test_caches_reject_writes(ring, tabled, split):
    # Every cache is a read-only array, whichever way freeze read it: off
    # the op tables, through _mul_many without them, or back from the
    # p-primary blocks.
    R = freeze(ring)
    assert (R._mul_np is not None, R._blocks is not None) == (tabled, split)
    caches = R.caches
    arrays = {"is_unit": caches.is_unit, "inverse": caches.inverse,
              "is_idempotent": caches.is_idempotent, "is_nilpotent": caches.is_nilpotent,
              "is_jacobson": caches.is_jacobson, "m": caches.power_indices[0],
              "k": caches.power_indices[1], "cycle_start": caches.cycle_start}
    for name, array in arrays.items():
        assert array.shape == (R.order,), name
        with pytest.raises(ValueError, match="read-only"):
            array[1] = array[0]
    assert caches.inverse.dtype == np.int64
    assert np.array_equal(caches.inverse >= 0, caches.is_unit)


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
            assert is_nilpotent(R, x) == R.caches.is_nilpotent[x]


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
# Tampered Z(n) tables, each rejected by one bound of the power scan, which
# reads them through its power table x^(w+i) = x^w * x^i.
for n, entries in [
    # 5*5 = 2: the powers of 5 are 5, 2, 2*5 = 10, 2*2 = 4, 4*5 = 8, 4*2 = 8,
    # 4*10 = 4, so 5^4 recurs with period 3, but none of 5, 2 and 10
    # recurs 3 powers later: no power index m <= log2(12) is found.
    (12, {(5, 5): 2}),
    # 3*3 = 2: the powers of 3 are 3, 2, 6, 4, 12, 8, 8, 0, 0, ...: a power
    # index 6 > log2(16), so the held power 3^4 = 4 never recurs.
    (16, {(3, 3): 2}),
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
m, k = R.caches.power_indices
m = m.copy()
m[0] = 2
R.caches.power_indices = (m, k)
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
# order 512), one block's op table tampered with: each is rejected, also
# under python -O, by the block itself, by the check of the blocks' units on
# Z(n), or by Diesl's check on Z(n) in classify.
_TAMPERED_BLOCKS = """
from finring import classify, kernel, make_zmod
from finring.blocks import _freeze_split, _primary_blocks

for n, p, entries in [
    # The 2-part of Z(48) is Z(16), with the held-power table of _NON_RINGS:
    # its power scan raises inside the block, naming Z(48) and 2.
    (48, 2, {(3, 3): 2}),
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


# U(2, Z(10)), order 1000, which freeze splits into blocks of orders 8 and
# 125, with one op table of its 5-part tampered with, frozen by classify on
# the default path: each is rejected, also under python -O, by a check that
# reads U(2, Z(10))'s own product, not its blocks' tables.  2 = 2*e11 is
# idempotent by the tampered 2*2 = 2, so it is strongly nil-clean by the
# blocks, while 2 - 2^2 = 8*e11 is not nilpotent; 27*27 = 26, the one of
# the 5-part, makes the unit 27 its own inverse in the block, so the unit
# 107 of U(2, Z(10)), whose 5-part is 27, gets a wrong inverse.
_TAMPERED_AT_THE_GATE = """
from finring import blocks, classify, kernel
from finring.cli import elaborate, parse

primary_blocks = blocks._primary_blocks
for entries in [{(2, 2): 2}, {(27, 27): 26}]:
    R = elaborate(parse("U(2, Z(10))"))
    parts = primary_blocks(R)
    B = parts[1][1]
    kernel._build_tables(B)
    M = B._mul_np.copy()
    for at, product in entries.items():
        M[at] = product
    B._mul_np = M
    blocks._primary_blocks = lambda R: parts
    try:
        classify(R)
        print("accepted", R.label)
    except AssertionError as exc:
        print(__debug__, type(exc).__name__, exc, R._mul_np is None, sep="|")
"""


def test_tampered_blocks_at_the_gate_are_rejected_under_optimize():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _TAMPERED_AT_THE_GATE],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert [line.split("|") for line in done.stdout.splitlines()] == [
        ["False", "RingAxiomError", "U(2, Z(10)): Diesl's criterion and the idempotent search "
                                    "disagree at 2", "True"],
        ["False", "RingAxiomError", "U(2, Z(10)): the unit 107 of its blocks has no two-sided "
                                    "inverse in it", "True"],
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
    (12, {(5, 5): 2}, "the power index of 5 exceeds log2(12)"),
    (16, {(3, 3): 2}, "the powers of 3 do not return to x^4, so its power index exceeds log2(16)"),
    (251, {(pow(6, 43, 251), pow(6, 17, 251)): 0},
     "the giant steps of 6 never meet its baby steps"),
    # The second giant step of 6 sent to its first baby step 6^26: a
    # period of 2s = 34, which the scan before the giant steps finds.
    (251, {(pow(6, 43, 251), pow(6, 17, 251)): pow(6, 26, 251)},
     "the powers of 6 repeat within 34 steps of x^26"),
], ids=["m-search", "held power", "no giant hit", "short giant hit"])
def test_power_scan_names_the_broken_bound(n, entries, message):
    # The tables of _NON_RINGS, and one more, each stopped by its own bound
    # on the table path, where the doubling fill squares powers, x^4 =
    # x^2 * x^2, instead of stepping by x.  The m-search case is on Z(12):
    # on Z(6), as on every order whose floor(log2 n) is a power of 2, the
    # held power is x^top, so the x^j, j <= top, that must recur include
    # the held power that did, and only the giant steps could break the
    # bound.  Its 5*5 = 2 is the entry the Z(6) table had besides 5*2 = 0,
    # which the fill never reads.  The held-power case replaces the right
    # products by 3 of Brent's scan, which the fill does not take, by
    # 3*3 = 2.  The giant steps read the same products as before: G_2 =
    # 6^43 * 6^17 on Z(251).
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
    """First (op, a, b) where R's ops, once its op tables are built, differ
    from their scalar definitions, or None.

    Products are read off the mul table and held to `bilinear_product`.
    Sums, differences and negatives (0 - a) are read through _add_many and
    _sub_many, which look them up in the add and neg tables, or on a ring
    whose radices are all powers of 2, which has neither table, sum by bit
    arithmetic; they are held to `digit_sum`, the sum by its definition.
    All pairs unless `pairs` is given; neg on every element.
    """
    add = functools.partial(digit_sum, R)
    mul = functools.partial(bilinear_product, R)
    kernel._build_tables(R)
    n = R.order
    assert (R._add_np is None) == (R._neg_np is None) == _carry_free(R)
    for a, got in enumerate(kernel._sub_many(R, 0, np.arange(n)).tolist()):
        if got != digit_sum(R, 0, a, -1):
            return ("neg", a, None)
    pairs = list(itertools.product(range(n), repeat=2) if pairs is None else pairs)
    a, b = (np.array(t, dtype=np.int64) for t in zip(*pairs))
    sums, differences = kernel._add_many(R, a, b).tolist(), kernel._sub_many(R, a, b).tolist()
    for (a, b), total, difference in zip(pairs, sums, differences):
        if total != add(a, b):
            return ("add", a, b)
        if difference != digit_sum(R, a, b, -1):
            return ("sub", a, b)
        if R._mul_np[a, b] != mul(a, b):
            return ("mul", a, b)
    return None


# One ring per construction family, and the zero ring; then radix shapes
# of the carry-free fill that no family above has: 2-power digit fields of
# mixed widths, radices (8, 2) and (2, 4, 4), where a sum's carries must stop
# at each field's top, and one 2-power radix alone.
_EXHAUSTIVE = [
    "Z(12)", "Z(4) x Z(6)", "M(2, Z(3))", "U(2, Z(4))", "GR(Z(2), S(3))",
    "Triv(Z(12))", "Ks(Z(4), 2)", "FM(2, Z(4), 2)", "M(2, Z(1))",
    "Z(2) x Z(8)", "Triv(Z(4)) x Z(2)", "Z(64)",
]
_SAMPLED = ["GR(Z(2), C(10))", "Triv(Z(32))", "U(2, Z(10))", "FM(3, Z(2), 0)"]


@pytest.mark.parametrize("expr", _EXHAUSTIVE)
def test_tables_match_scalar_ops(expr):
    R = elaborate(parse(expr))
    assert _table_mismatch(R) is None


@settings(deadline=None, max_examples=50)
@given(st.lists(st.sampled_from([2, 4, 8, 16]) | st.integers(1, 16), min_size=1, max_size=4)
       .filter(lambda moduli: math.prod(moduli) <= 256))
def test_tables_of_cyclic_products_match_scalar_ops(moduli):
    # Direct products of Z(m) factors up to order 256: any mix of radices,
    # 2-power or not, in one or several digit fields; 2-power moduli are
    # drawn more often, so carry-free fills of mixed widths come up.
    R = functools.reduce(direct_product, map(make_zmod, moduli))
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


@pytest.mark.parametrize("ring, nilpotents, jacobson, classified", [
    (trivial_extension(make_zmod(33)), 3, 1, 35),
    (direct_product(make_zmod(5), trivial_extension(make_zmod(15))), 3, 1, 38),
], ids=["Triv(Z(33))", "Z(5) x Triv(Z(15))"])
def test_ring_level_sets_read_few_products_above_limit(ring, nilpotents, jacobson, classified,
                                                       monkeypatch):
    # Above TABLE_LIMIT every product read is one _mul_many call.  The
    # nilpotents are the zeros of x^m, one _powers call over the ring: one
    # product per bit of the largest m, which is 2 here, and one squaring
    # between two bits, 3 calls, where squaring every element up to an
    # exponent >= n would take 11.  The Jacobson sieve reads one
    # column per nilpotent it tests and the unit masks one row per generator
    # of the unit group, where one row per element would take n = 1089 or
    # 1125 calls in _compute_jacobson alone.  classify reads no row search:
    # regular and strongly regular are the unit-regular mask and m = 1, each
    # re-verified at its least False, and strongly pi-regular is m = 1 at
    # the cached x^m.  The periodic mask recomputes x^k by one _powers call.  The ring is frozen undivided, as freeze would do if
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
    assert np.array_equal(nil, R.caches.is_nilpotent) and (start == R.caches.cycle_start).all()
    assert len(calls) == nilpotents
    calls.clear()
    J = kernel._compute_jacobson(R, R.caches.is_unit, R.caches.is_nilpotent)
    assert np.array_equal(J, R.caches.is_jacobson)
    assert len(calls) == jacobson
    calls.clear()
    classify(R)
    assert len(calls) == classified


@pytest.mark.parametrize("ring, calls", [
    (trivial_extension(make_zmod(33)), 111),
    (trivial_extension(make_zmod(34)), 111),
    (make_zmod(17), 17),
], ids=["Triv(Z(33))", "Triv(Z(34))", "Z(17)"])
def test_power_scan_takes_order_sqrt_n_products(ring, calls, monkeypatch):
    # The scan without op tables (these rings are not frozen): one _mul_many
    # call per step.  Brent's scan with a saved power that
    # keeps doubling took 347 and 804 calls on the two trivial extensions
    # (max k = 331 and 274).  Held at x^16, it stops at x^(16 + 2s),
    # s = ceil(sqrt(n)) + 1 = 34 and 35, and the long periods take a few
    # giant steps x^s, then the m-search, whose binary powers x^(1+t),
    # 1 + t <= 332, take 9 products and 8 squarings, and whose steps stop
    # at the last element's hit (112 calls while one more step followed it,
    # on an empty set).  Z(17) is below the giant-step gate and takes one
    # step per power, as before: every unit closes at x^j == x, by j = 17.
    count = []
    mul_many = kernel._mul_many

    def counted(*args):
        count.append(1)
        return mul_many(*args)

    monkeypatch.setattr(kernel, "_mul_many", counted)
    kernel._power_scan(ring)
    assert len(count) == calls


@pytest.mark.parametrize("n, constant", [(193, 0), (1009, 2 * 1009 .bit_length())],
                         ids=["Z(193)", "Z(1009)"])
def test_tabled_power_scan_fills_in_log_lookups(n, constant, monkeypatch):
    # With op tables the power table x^1, ..., x^L is filled in one lookup
    # per doubling, at most ceil(log2(last)) of them: last = hold + n below
    # the giant-step gate (Z(193): 8 + 193 = 201, and its periods 192 take
    # the table to x^201, 8 lookups) and hold + 2s above it (Z(1009):
    # 16 + 66 = 82, 7 lookups), where Brent's scan takes one lookup per
    # power (193 and 133 calls in all).  The x still open take one lookup per giant step, the first
    # at J = 1 and the last at J = ceil(t/s) <= 31 on Z(1009), and for the
    # x whose x^(top+t) is past the table the scan computes x^(t-1) as
    # (x^L)^q * x^r, t - 1 = q*L + r, L = 82 the table's length: q <= 12
    # takes 4 products and 3 squarings, and x^r one more; the m-search
    # then takes one lookup, x^(j+t) = x^(j+1) * x^(t-1) for every j.
    # 2 * bitlen(n) bounds these: the constant.  They were 19 and 1 (58 in
    # all) while x^(t-1) was a binary power of x.  Z(193) reads its
    # m-search off the table.
    R = make_zmod(n)
    kernel._build_tables(R)
    count = []
    mul_many = kernel._mul_many

    def counted(*args):
        count.append(1)
        return mul_many(*args)

    monkeypatch.setattr(kernel, "_mul_many", counted)
    m, k = kernel._power_scan(R)
    top = n.bit_length() - 1
    hold, s = 1 << (top - 1).bit_length(), math.isqrt(n - 1) + 2
    last = hold + 2 * s if s >= 2 * n.bit_length() else hold + n
    t = k - m
    far = t[t > last - hold]                    # the periods the giant steps find
    giant = int((-(-far // s)).max()) if far.size else 0
    assert len(count) <= math.ceil(math.log2(last)) + giant + constant
    assert (giant, len(count)) == ((0, 8) if n == 193 else (31, 47))


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


def _count_element_ops(monkeypatch):
    """Count the calls of kernel's _add_many, _mul_many and _sub_many, the
    ops on elements; returns the live counts."""
    calls = {}
    for name in ("_add_many", "_mul_many", "_sub_many"):
        calls[name] = 0

        def call(*args, name=name, op=getattr(kernel, name)):
            calls[name] += 1
            return op(*args)
        monkeypatch.setattr(kernel, name, call)
    return calls


@pytest.mark.parametrize("expr,generators", [("M(2, Z(3))", 4), ("GR(Z(2), C(10))", 10)])
def test_tables_call_scalar_mul_only_for_structure_constants(expr, generators, monkeypatch):
    # The structure constants are the |g|^2 generator products the ring was
    # built with, and the generator rows come from them, so the build reads
    # no product, sum or negative of elements (negatives are read off the
    # add table), and it installs no scalar op on the ring.
    R = elaborate(parse(expr))
    assert R.products.shape == (generators, generators)
    calls = _count_element_ops(monkeypatch)
    kernel._build_tables(R)
    assert calls == {"_add_many": 0, "_mul_many": 0, "_sub_many": 0}
    assert not [op for op in ("add", "neg", "mul", "sub") if hasattr(R, op)]


@pytest.mark.parametrize("expr", ["M(2, Z(2))", "M(2, Z(6))", "GR(Z(2), C(12))", "FM(3, Z(4), 2)"])
def test_axioms_read_only_the_structure_constants(expr, monkeypatch):
    # The check reads no product, sum or negative of elements, builds no op
    # table and no n x |g| digit matrix, and allocates nothing of size n, on
    # both sides of TABLE_LIMIT (orders 16 to 4^9).
    R = elaborate(parse(expr), cap=4**9)
    calls = _count_element_ops(monkeypatch)
    tracemalloc.start()
    try:
        verify_ring_axioms(R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == {"_add_many": 0, "_mul_many": 0, "_sub_many": 0}
    assert R._mul_np is None and R._structure is None and R._digits is None
    assert peak < 2**20, peak


def _assert_scalar_calls_read_tables(R, pairs):
    """Once _build_tables has run, R has no scalar op of its own, and the
    one-element calls of _add_many, _sub_many and _mul_many, on two Python
    ints, give what the array calls read at `pairs` (the tables where R has
    them, else the carry-free bit sums); negation, _sub_many(R, 0, a), at
    every element."""
    kernel._build_tables(R)
    assert not [op for op in ("add", "neg", "mul", "sub") if hasattr(R, op)]
    negatives = kernel._sub_many(R, 0, np.arange(R.order)).tolist()
    for a in range(R.order):
        assert kernel._sub_many(R, 0, a) == negatives[a], ("neg", a)
    pairs = list(pairs)
    a, b = (np.array(t, dtype=np.int64) for t in zip(*pairs))
    ops = (kernel._add_many, kernel._sub_many, kernel._mul_many)
    for op in ops:
        want = op(R, a, b).tolist()
        for (p, q), w in zip(pairs, want):
            got = op(R, p, q)
            assert got.shape == () and got == w, (op.__name__, p, q)


def _pairs(R, count):
    """Every pair of elements of R, or `count` random ones if there are more."""
    if R.order**2 <= count:
        return itertools.product(range(R.order), repeat=2)
    rng = random.Random(0)
    return [(rng.randrange(R.order), rng.randrange(R.order)) for _ in range(count)]


@pytest.mark.parametrize("expr", _EXHAUSTIVE)
def test_installed_scalar_ops_read_tables(expr):
    # Every pair up to order 64.
    R = elaborate(parse(expr))
    _assert_scalar_calls_read_tables(R, _pairs(R, 4096))


@pytest.mark.parametrize("expr", _SAMPLED)
def test_installed_scalar_ops_read_tables_sampled(expr):
    R = elaborate(parse(expr))
    _assert_scalar_calls_read_tables(R, _pairs(R, 4096))


@pytest.mark.parametrize("table", ["_add_np", "_mul_np", "_neg_np"])
def test_installed_tables_are_read_only(table):
    # Every sum, negative and product of R reads the tables, so a write
    # would change the ring.
    R = make_zmod(5)
    kernel._build_tables(R)
    T = getattr(R, table)
    with pytest.raises(ValueError):
        T[(1,) * T.ndim] = 0
    assert (kernel._mul_many(R, 2, 3), kernel._add_many(R, 2, 3), kernel._sub_many(R, 0, 2)) \
        == (1, 0, 3)


def _table_bytes(R):
    """The bytes of R's op tables: the mul table, and the add and neg tables
    where R has them."""
    return sum(T.nbytes for T in (R._add_np, R._mul_np, R._neg_np) if T is not None)


def test_table_build_keeps_one_copy_of_each_table():
    # The memory _build_tables retains is the tables themselves (the mul
    # table alone here, where every radix is 2), not a second per-ring copy
    # behind the scalar ops, and no digits or structure constants: once the
    # tables exist every product is a lookup.
    R = elaborate(parse("GR(Z(2), C(10))"))
    tracemalloc.start()
    try:
        kernel._build_tables(R)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 1.25 * _table_bytes(R), (retained, _table_bytes(R))
    assert R._digits is None and R._structure is None


# One ring per mul fill: the field sum with carries, XOR, and the gather.
@pytest.mark.parametrize("expr", ["Triv(Z(32))", "GR(Z(2), C(10))", "U(2, Z(10))"])
def test_table_build_peaks_near_its_tables(expr):
    # Every fill writes straight into the tables.  The add table's fold
    # holds one smaller table besides it; the field sum works n // 8 rows
    # at a time on one int16 temporary, XOR in place, and the gather forms
    # its intp flat index n // 8 rows at a time.  So at order 1000-1024 a
    # build peaks below 1.6 times its tables, the mul table alone on the
    # two rings whose radices are all powers of 2, the three tables on
    # U(2, Z(10)); forming the index for a whole doubling step peaked at
    # 2.8 times.
    R = elaborate(parse(expr))
    tracemalloc.start()
    try:
        kernel._build_tables(R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * _table_bytes(R), (peak, _table_bytes(R))


# With `frozen`, the tables as freeze installs them rather than _build_tables.
@pytest.mark.parametrize("expr,frozen",
                         [(e, False) for e in _EXHAUSTIVE] + [("Z(2) x Z(4)", True)])
def test_tables_share_one_narrow_dtype(expr, frozen):
    # A ring whose radices are all powers of 2 has the mul table alone; its
    # sums are bit arithmetic in the same dtype.
    R = elaborate(parse(expr))
    if frozen:
        freeze(R)
    else:
        kernel._build_tables(R)
    names = ("_mul_np",) if _carry_free(R) else ("_add_np", "_mul_np", "_neg_np")
    assert [name for name in ("_add_np", "_mul_np", "_neg_np")
            if getattr(R, name) is not None] == list(names)
    for name in names:
        T = getattr(R, name)
        assert T.dtype == kernel.TABLE_DTYPE and not T.flags.writeable, name
        assert 0 <= T.min() and T.max() < R.order, name
    every = np.arange(R.order)
    for got in (kernel._add_many(R, every[:, None], every),
                kernel._sub_many(R, every, every[:, None])):
        assert got.dtype == kernel.TABLE_DTYPE


def test_table_dtype_holds_every_index_below_the_limit():
    assert kernel.TABLE_LIMIT <= np.iinfo(kernel.TABLE_DTYPE).max + 1


def test_order_1024_tables_take_two_bytes_per_entry():
    # Every ring of order 1024 has radices that are powers of 2, so it
    # keeps the mul table alone; U(2, Z(10)), of order 1000, keeps the mul,
    # add and neg tables.
    for expr, entries in [("Triv(Z(32))", 1024**2), ("U(2, Z(10))", 2 * 1000**2 + 1000)]:
        R = elaborate(parse(expr))
        kernel._build_tables(R)
        assert _table_bytes(R) == entries * 2, expr


@pytest.mark.parametrize("expr", ["GR(Z(2), C(10))", "Triv(Z(32))"])
def test_tables_at_order_1024_match_structure_constants(expr):
    # Both rings take the carry-free fill, whose int16 field sums are
    # widest at order 1024, the top of the table range; there the mul table
    # is held on all n^2 pairs to the products a fresh ring without tables
    # reads through its structure constants, row by row, and the bit sums
    # of _add_many to the digit sums.
    R, S = elaborate(parse(expr)), elaborate(parse(expr))
    kernel._build_tables(R)
    assert R.order == 1024 and S._mul_np is None and R._add_np is None
    every = np.arange(S.order)
    for x in range(S.order):
        assert np.array_equal(kernel._add_many(R, x, every),
                              kernel._digit_sum(S, x, every, operator.add)), ("add", x)
        assert np.array_equal(R._mul_np[x], kernel._mul_many(S, x, every)), ("mul", x)
    assert S._mul_np is None


def _gather_fill(R):
    """R's mul table by the fill of rings whose radices are not all powers
    of 2: the generator rows from the digits and the structure constants,
    then `_doubling_table` with every sum of rows read from the add table
    that such a ring builds, its Kronecker sum."""
    C, r, w = kernel._constants(R)
    rows = np.arange(R.order)[:, None] // w % r @ C % r @ w
    add = kernel._kronecker_sum(R)

    def gather(block, row, out):
        out[...] = add[block, row]

    return kernel._doubling_table(R, rows, gather)


def _carry_free(R):
    return all(q & (q - 1) == 0 for q in R.radices)


_CARRY_FREE_CORPUS = [i for i, R in enumerate(standard_corpus()) if _carry_free(R)]


def test_corpus_has_carry_free_rings():
    assert len(_CARRY_FREE_CORPUS) == 16


# The corpus rings by index, then the two carry-free rings of order 1024.
_CARRY_FREE_SOURCES = _CARRY_FREE_CORPUS + ["GR(Z(2), C(10))", "Triv(Z(32))"]
_CARRY_FREE_IDS = [standard_corpus()[i].label for i in _CARRY_FREE_CORPUS] + _CARRY_FREE_SOURCES[-2:]


@pytest.mark.parametrize("source", _CARRY_FREE_SOURCES, ids=_CARRY_FREE_IDS)
def test_carry_free_fill_matches_gather_fill(source):
    R = standard_corpus()[source] if isinstance(source, int) else elaborate(parse(source))
    assert _carry_free(R)
    kernel._build_tables(R)
    assert np.array_equal(R._mul_np, _gather_fill(R))


@pytest.mark.parametrize("source", _CARRY_FREE_SOURCES, ids=_CARRY_FREE_IDS)
def test_bit_sums_match_digit_sums(source):
    # A ring whose radices are all powers of 2 builds no add or neg table:
    # its sums, differences and negatives (0 - x) are carry-free bit
    # arithmetic, held here to the digit sums of kernel._digit_sum on all
    # pairs up to order 256 and on 10^4 sampled pairs of the two rings of
    # order 1024, in the elementwise forms and the whole rows z + h and
    # z - e_i.
    R = standard_corpus()[source] if isinstance(source, int) else elaborate(parse(source))
    kernel._build_tables(R)
    assert R._add_np is None and R._neg_np is None and R._fields is not None
    n, every = R.order, np.arange(R.order)
    if n <= 256:
        a, b = np.divmod(np.arange(n * n), n)
    else:
        a, b = np.random.default_rng(0).integers(0, n, (2, 10_000))
    for op, many in [(operator.add, kernel._add_many), (operator.sub, kernel._sub_many)]:
        assert np.array_equal(many(R, a, b), kernel._digit_sum(R, a, b, op)), op
    assert np.array_equal(kernel._sub_many(R, 0, every),
                          kernel._digit_sum(R, 0, every, operator.sub))
    block = b[:7, None]
    assert np.array_equal(kernel._add_many(R, every, b[0]),
                          kernel._digit_sum(R, every, b[0], operator.add))
    assert np.array_equal(kernel._sub_many(R, every, block),
                          kernel._digit_sum(R, every, block, operator.sub))


@pytest.mark.parametrize("expr", ["Z(12)", "U(2, Z(10))", "GR(Z(3), S(3))", "Z(64)"])
def test_whole_row_reads_match_elementwise_lookups(expr):
    # With op tables, the rows x*R, z + h and z - e_i are whole rows of the
    # tables (a slice or one row gather), every other form a flat take; the
    # two agree, also on Z(64), which has no add table.
    R = elaborate(parse(expr))
    kernel._build_tables(R)
    n, every = R.order, np.arange(R.order)
    xs = np.random.default_rng(1).integers(0, n, 5)
    grid = every[None, :]                       # every element, but not as the rows' operand
    for x in xs.tolist():
        assert np.array_equal(kernel._mul_many(R, x, every), kernel._mul_many(R, x, grid)[0])
        assert np.array_equal(kernel._add_many(R, every, x), kernel._add_many(R, grid, x)[0])
        assert np.array_equal(kernel._sub_many(R, every, x), kernel._sub_many(R, grid, x)[0])
    block = xs[:, None]
    assert np.array_equal(kernel._sub_many(R, every, block), kernel._sub_many(R, grid, block))
    assert np.array_equal(kernel._mul_many(R, block, every), kernel._mul_many(R, block, grid))
    assert np.array_equal(kernel._mul_many(R, every, block), kernel._mul_many(R, grid, block))


# -- the vectorised product against the scalar ops -------------------------


def _products_mismatch(R, pairs, rows, cols):
    """First (form, a, b) at which kernel._mul_many, on arrays or on two
    scalars, _add_many or _sub_many differ from their reference, or None.

    Products are held to `bilinear_product`, which reads R.radices and
    R.products alone; sums and differences to `digit_sum`.  The
    elementwise forms are checked on
    `pairs`; the row x*R and the column R*x of _mul_many at every z in
    `cols`, for every x in `rows`.
    """
    mul = functools.cache(functools.partial(bilinear_product, R))
    add = functools.partial(digit_sum, R)
    freeze(R)
    every = np.arange(R.order)
    a, b = (np.array(t, dtype=np.int64) for t in zip(*pairs))
    cols = np.array(cols, dtype=np.int64)
    forms = [("mul", a, b, kernel._mul_many(R, a, b), mul),
             ("scalar", a, b, np.array([kernel._mul_many(R, p, q)
                                        for p, q in zip(a.tolist(), b.tolist())]), mul),
             ("add", a, b, kernel._add_many(R, a, b), add),
             ("sub", a, b, kernel._sub_many(R, a, b), lambda p, q: digit_sum(R, p, q, -1))]
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
    r, w, terms = kernel._structure_constants(R)
    C = kernel._constants(R)[0]
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
    assert [int(kernel._mul_many(ring, p, q)) for p, q in pairs] == expected
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
        kernel._mul_many(big, 3, 5)
    assert big._structure is None and big._digits is None
    edge = _negated_zmod(2**21)
    assert kernel._mul_many(edge, 2**21 - 1, 2**21 - 2) == 2**21 - 2 and edge._digits is None


def test_one_product_builds_nothing_of_the_ring_order():
    # Two single elements are multiplied from their digits x // w % r; the
    # n x |g| digit matrix (order 4^9 here) is built only for arrays.
    F = formal_matrix(make_zmod(4), 3, 2, cap=4**9)
    tracemalloc.start()
    try:
        got = int(kernel._mul_many(F, 5, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == bilinear_product(F, 5, 7)
    assert F._digits is None and peak < 2**20, peak


@pytest.mark.parametrize("expr", ["M(2, Z(8))", "GR(Z(2), C(12))"])
def test_one_digit_matrix_is_cached(expr):
    # Above TABLE_LIMIT an undivided ring multiplies by the term sum over
    # the digit-major digits DT alone: after freeze and classify, R._digits
    # holds one |g| x n digit matrix, and no element-major copy of it.
    R = elaborate(parse(expr))
    assert R.order > kernel.TABLE_LIMIT
    classify(freeze(R))
    assert R._blocks is None and R._mul_np is None
    g, n = len(kernel._additive_generators(R)), R.order
    matrices = [x for x in R._digits if isinstance(x, np.ndarray) and x.size >= n]
    assert [m.shape for m in matrices] == [(g, n)]


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
