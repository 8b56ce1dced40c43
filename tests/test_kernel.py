"""Base rings, caches, and ring-axiom checks."""

import functools
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from finring import (
    CapExceededError,
    Ring,
    RingAxiomError,
    classify,
    deciders,
    direct_product,
    freeze,
    is_nilpotent,
    kernel,
    make_zmod,
    matrix_ring,
    ring_pow,
    trivial_extension,
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


# Each ring is rejected by verify_ring_axioms, then tampered tables by
# freeze and a tampered power scan by classify.
_NON_RINGS = """
from finring import Ring, classify, freeze, kernel, make_zmod, verify_ring_axioms
non_rings = [
    # Z/3 with 2*2 = 0: not left-additive, which its radices claim.
    Ring(3, mul=lambda a, b: [[0, 0, 0], [0, 1, 2], [0, 2, 0]][a][b], one=1,
         label="2*2 = 0 mod 3", radices=(3,)),
    # Z/3 with 2*1 = 0: its generator row 1*y is right, so its table is Z/3's.
    Ring(3, mul=lambda a, b: [[0, 0, 0], [0, 1, 2], [0, 0, 1]][a][b], one=1,
         label="2*1 = 0 mod 3", radices=(3,)),
    # Z(2) x Z(2) with 0*1 = 1: its generator rows and squares are right,
    # its column z*1 is not.
    Ring(4, mul=lambda a, b: 1 if (a, b) == (0, 1) else a & b, one=3,
         label="0*1 = 1 in Z(2) x Z(2)", radices=(2, 2)),
]
for R in non_rings:
    try:
        verify_ring_axioms(R)
    except AssertionError as exc:
        print(__debug__, type(exc).__name__)
# Z(6) tables with 5*2 = 0 and 5*5 = 2: the powers of 5 by repeated products
# and by squaring never meet, so the power scan must stop and raise.
R = make_zmod(6)
kernel._build_tables(R)
M = R._mul_np.copy()
M[5, 2], M[5, 5] = 0, 2
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
    assert done.stdout.split() == ["False", "RingAxiomError"] * 5


# Rings above TABLE_LIMIT, each rejected by verify_ring_axioms with the
# message after it.
_NON_RINGS_ABOVE_LIMIT = """
from finring import Ring, verify_ring_axioms


def ef_is_e(x, y):
    # Basis 1, e, f (digits a, b, c) over Z(11), with e*f = e and every other
    # product of e and f zero: bilinear and unital, but (e*f)*f = e, e*(f*f) = 0.
    (a, b, c), (p, q, r) = ((z % 11, z // 11 % 11, z // 121) for z in (x, y))
    return (a * p) % 11 + (a * q + b * p + b * r) % 11 * 11 + (a * r + c * p) % 11 * 121


non_rings = [
    # x^2 y: not additive in x; 2*1 = 4.
    Ring(1031, mul=lambda a, b: a * a * b % 1031, one=1, label="x^2 y", radices=(1031,)),
    # xy + 5(x^2 - x)(y^2 - y): unital, but not additive.
    Ring(1031, mul=lambda a, b: (a * b + 5 * (a * a - a) * (b * b - b)) % 1031, one=1,
         label="xy + 5(x^2 - x)(y^2 - y)", radices=(1031,)),
    # The product of Z(1296) is not additive over Z(6) x Z(216), whose
    # generator 1 has order 6.
    Ring(1296, mul=lambda a, b: a * b % 1296, one=1, label="Z(1296) as (6, 216)",
         radices=(6, 216)),
    Ring(1331, mul=ef_is_e, one=1, label="ef = e", radices=(11, 11, 11)),
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
        ["False", "RingAxiomError", "x^2 y: multiplicative identity fails at 2"],
        ["False", "RingAxiomError",
         "xy + 5(x^2 - x)(y^2 - y): scalar mul gives 2*2 = 24, its structure constants 4"],
        ["False", "RingAxiomError",
         "Z(1296) as (6, 216): scalar mul gives 3*3 = 9, its structure constants 3"],
        ["False", "RingAxiomError", "ef = e: multiplication not associative at (11, 121, 121)"],
    ]


def test_axioms_reject_non_additive_scalar_mul():
    # The structure constant 1*1 = 1 gives 2*2 = 1*2 + 1*2 = 1; the scalar
    # mul says 0.
    def ring(table):
        return Ring(3, mul=lambda a, b: table[a][b], one=1, label="non-additive mod 3",
                    radices=(3,))

    with pytest.raises(RingAxiomError,
                       match=r"scalar mul gives 2\*2 = 0, its structure constants 1"):
        verify_ring_axioms(ring([[0, 0, 0], [0, 1, 2], [0, 2, 0]]))
    # With 2*1 = 0 the generator row 1*y is right, so the table is Z/3's;
    # the identity checks through the scalar mul catch it.
    with pytest.raises(RingAxiomError, match="multiplicative identity fails at 2"):
        verify_ring_axioms(ring([[0, 0, 0], [0, 1, 2], [0, 0, 1]]))
    # Z(2) x Z(2) with 0*1 = 1: the generator rows g*y, the squares and the
    # identities are right; only the column y*g compares the scalar 0*1.
    R = Ring(4, mul=lambda a, b: 1 if (a, b) == (0, 1) else a & b, one=3,
             label="0*1 = 1 in Z(2) x Z(2)", radices=(2, 2))
    with pytest.raises(RingAxiomError,
                       match=r"scalar mul gives 0\*1 = 1, its structure constants 0"):
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


# With `every`, every element is passed as a generator: a generating set
# far larger than the radix weights, on which the check is the O(n^3) one.
@pytest.mark.parametrize("expr,every", [
    ("Z(6)", True), ("Z(2) x Z(4)", True),
    ("Z(2) x Z(4)", False), ("M(2, Z(2))", False), ("GR(Z(2), C(2) x C(2))", False),
])
def test_law_check_matches_reference_on_mutants(expr, every):
    R = elaborate(parse(expr))
    kernel._build_tables(R)
    gens = list(R.elements()) if every else kernel._additive_generators(R)
    assert len(gens) == (R.order if every else len(R.radices))
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


@pytest.mark.parametrize("ring, jacobson, classified", [
    (trivial_extension(make_zmod(33)), 1, 206),
    (direct_product(make_zmod(5), trivial_extension(make_zmod(15))), 1, 119),
], ids=["Triv(Z(33))", "Z(5) x Triv(Z(15))"])
def test_ring_level_sets_read_few_products_above_limit(ring, jacobson, classified, monkeypatch):
    # Above TABLE_LIMIT every product read is one _mul_many call.  The
    # Jacobson sieve reads one column per nilpotent it tests and the unit
    # masks one row per generator of the unit group, where one row per
    # element would take n = 1089 or 1125 calls in _compute_jacobson alone.
    R = freeze(ring)
    assert R._mul_np is None
    calls = []
    mul_many = kernel._mul_many

    def counted(*args):
        calls.append(1)
        return mul_many(*args)

    monkeypatch.setattr(kernel, "_mul_many", counted)
    monkeypatch.setattr(deciders, "_mul_many", counted)
    assert kernel._compute_jacobson(R, R.caches.units, R.caches.nilpotents) == R.caches.jacobson
    assert len(calls) == jacobson
    calls.clear()
    classify(R)
    assert len(calls) == classified


@pytest.mark.parametrize("expr,generators", [("M(2, Z(3))", 4), ("GR(Z(2), C(10))", 10)])
def test_tables_call_scalar_mul_only_for_structure_constants(expr, generators):
    # The generator rows come from the structure constants, so the build
    # calls the scalar mul once per pair of generators; the scalar add never,
    # and the scalar neg never (negatives are read off the add table).
    R = elaborate(parse(expr))
    calls = _count_scalar_calls(R)
    kernel._build_tables(R)
    assert calls == {"add": 0, "mul": generators ** 2, "neg": 0}


def test_axioms_call_scalar_mul_once_per_distinct_pair():
    # M(2, Z(2)): 4 generators g, 16 elements y.  The rows g*y, columns y*g
    # and squares y*y are 144 pairs but 124 distinct ones; then 16 calls for
    # the structure constants and 2 per element in the identity loop.
    R = elaborate(parse("M(2, Z(2))"))
    calls = _count_scalar_calls(R)
    verify_ring_axioms(R)
    assert calls["mul"] == 124 + 16 + 2 * 16


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
    # a second per-ring copy behind the scalar ops.
    R = elaborate(parse("GR(Z(2), C(10))"))
    kernel._structure_constants(R)
    tracemalloc.start()
    try:
        kernel._build_tables(R)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    tables = R._add_np.nbytes + R._mul_np.nbytes + R._neg_np.nbytes
    assert retained <= 1.25 * tables, (retained, tables)


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


def test_table_mismatch_is_reported():
    # x*y = x^2 y is not additive in x: the doubled row 2 is 2y, the scalar 4y = y.
    R = Ring(3, mul=lambda a, b: a * a * b % 3, one=1, label="x^2 y mod 3", radices=(3,))
    assert _table_mismatch(R) == ("mul", 2, 1)


# -- the vectorised product against the scalar ops -------------------------


def _products_mismatch(R, pairs, rows):
    """First (form, a, b) at which kernel._mul_many, _add_many or _sub_many
    differ from R's scalar ops, or None.

    The scalar ops are captured before R is frozen.  The elementwise forms
    are checked on `pairs`; the row a*R and the column R*a of _mul_many
    for every a in `rows`.
    """
    add, mul = functools.cache(R.add), functools.cache(R.mul)
    neg = R.neg
    freeze(R)
    n = R.order
    every = np.arange(n)
    a, b = (np.array(t, dtype=np.int64) for t in zip(*pairs))
    forms = [("mul", a, b, kernel._mul_many(R, a, b), mul),
             ("add", a, b, kernel._add_many(R, a, b), add),
             ("sub", a, b, kernel._sub_many(R, a, b), lambda p, q: add(p, neg(q)))]
    for x in rows:
        same = np.full(n, x)
        forms += [("row", same, every, kernel._mul_many(R, x, every), mul),
                  ("column", every, same, kernel._mul_many(R, every, x), mul)]
    for form, xs, ys, got, op in forms:
        for p, q, g in zip(xs.tolist(), ys.tolist(), got.tolist()):
            if op(p, q) != g:
                return (form, p, q)
    return None


def _all_pairs_mismatch(R):
    return _products_mismatch(R, itertools.product(range(R.order), repeat=2), range(R.order))


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
    # The base's table lookups then keep the n^2 scalar products of R cheap.
    monkeypatch.undo()
    kernel._build_tables(R.meta["base"])
    monkeypatch.setattr(kernel, "TABLE_LIMIT", 0)
    assert _all_pairs_mismatch(R) is None


@pytest.mark.parametrize("expr", ["Triv(Z(33))", "Z(5) x Triv(Z(15))", "M(2, Z(6))"])
def test_mul_many_matches_scalar_ops_sampled(expr):
    R = elaborate(parse(expr))
    assert R.order > kernel.TABLE_LIMIT
    rng = random.Random(0)
    pairs = [(rng.randrange(R.order), rng.randrange(R.order)) for _ in range(10_000)]
    assert _products_mismatch(R, pairs, rng.sample(range(R.order), 10)) is None


def test_product_radices():
    assert direct_product(make_zmod(4), make_zmod(6)).radices == (6, 4)


def test_radices_must_multiply_to_order():
    # Negative radices multiply to 6 too; they are rejected before the product.
    for radices, message in [((2, 2), "do not multiply to order 6"),
                             ((-2, -3), "must be integers >= 1"),
                             ((2.0, 3), "must be integers >= 1")]:
        with pytest.raises(ValueError, match=message):
            Ring(6, mul=lambda a, b: a * b % 6, one=1, label="Z(6)", radices=radices)
