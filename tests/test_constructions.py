"""Derived ring constructions and their censuses."""

import random
import re
import tracemalloc

import numpy as np
import pytest

from finring import (
    AssociativityError,
    CapExceededError,
    NotCentralError,
    NotNilpotentError,
    Ring,
    WrongConstructionError,
    augmentation,
    cyclic,
    formal_matrix,
    freeze,
    generalized_matrix,
    group_ring,
    make_zmod,
    matrix_ring,
    symmetric,
    trivial_extension,
    upper_triangular,
    verify_ring_axioms,
)
from finring import constructions
from finring.cli import elaborate, parse
from finring.constructions import _verify_associativity
from finring.kernel import _additive_generators, _build_tables, _mul_many

from _oracles import (
    _check_assoc_np, _closure, members, ring_add, ring_mul, textbook_table, transposed_product,
)


def census(R):
    freeze(R)
    return (
        R.order,
        int(R.caches.is_unit.sum()),
        int(R.caches.is_idempotent.sum()),
        int(R.caches.is_nilpotent.sum()),
    )


@pytest.mark.parametrize("R", [
    *(elaborate(parse(expr)) for expr in [
        "M(2, Z(3))", "U(3, Z(2))", "GR(Z(2), S(3))", "GR(Z(3), C(2) x C(2))",
        "Triv(Z(6))", "Ks(Z(4), 2)", "Ks(Z(5), 2)", "FM(3, Z(2), 0)", "FM(2, Z(4), 2)",
        "M(2, Z(2) x Z(2))",
    ]),
    generalized_matrix(make_zmod(3), 2),
], ids=lambda R: R.label)
def test_scalar_mul_matches_textbook_product(R):
    # Every pair, read through the structure constants the construction's
    # terms produced; the only check of K_s(R) against a product written
    # independently of the construction code.
    every = np.arange(R.order)
    got = _mul_many(R, every[:, None], every)
    want = textbook_table(R)
    assert np.argwhere(got != want)[:1].tolist() == []      # the least (x, y) that differs


class TestMatrixRing:
    def test_m2_z2(self):
        M = freeze(matrix_ring(make_zmod(2), 2))
        assert M.order == 16
        assert M.caches.is_unit.sum() == 6  # |GL2(F2)|

    def test_m2_z4(self):
        M = freeze(matrix_ring(make_zmod(4), 2))
        assert M.order == 256
        assert M.caches.is_unit.sum() == 96

    def test_trivial_base(self):
        assert matrix_ring(make_zmod(1), 3).order == 1

    def test_size_one_matches_base(self):
        assert census(matrix_ring(make_zmod(6), 1)) == census(make_zmod(6))

    def test_encode_decode_roundtrip(self):
        M = matrix_ring(make_zmod(3), 2)
        for x in range(M.order):
            assert M.encode(M.decode(x)) == x

    def test_identity_matrix(self):
        M = matrix_ring(make_zmod(3), 2)
        assert M.decode(M.one) == ((1, 0), (0, 1))

    def test_axioms(self):
        verify_ring_axioms(matrix_ring(make_zmod(2), 2))

    def test_cap(self):
        with pytest.raises(CapExceededError):
            matrix_ring(make_zmod(10), 3, cap=4096)

    @pytest.mark.parametrize("k,m,order", [
        (3, 10, "1000000000"),
        (150, 2, "2^22500"),        # 6773 decimal digits, more than int -> str allows
        (512, 2, "2^262144"),       # over 2^16 bits, not computed
    ])
    def test_cap_runs_before_the_terms(self, monkeypatch, k, m, order):
        def terms(*args, **kwargs):
            raise AssertionError("terms built for a ring over the cap")

        monkeypatch.setattr(constructions, "_matrix_terms", terms)
        with pytest.raises(CapExceededError) as err:
            matrix_ring(make_zmod(m), k, cap=4096)
        assert str(err.value) == f"M({k}, Z({m})) has order {order} > cap 4096"


class TestUpperTriangular:
    def test_u2_z2_nilpotents(self):
        U = freeze(upper_triangular(make_zmod(2), 2))
        assert U.order == 8
        e12 = U.encode(((0, 1), (0, 0)))
        assert members(U.caches.is_nilpotent) == {0, e12}

    def test_size_one_matches_base(self):
        assert census(upper_triangular(make_zmod(6), 1)) == census(make_zmod(6))

    def test_order(self):
        assert upper_triangular(make_zmod(6), 2).order == 216
        assert upper_triangular(make_zmod(2), 3).order == 64

    def test_axioms(self):
        verify_ring_axioms(upper_triangular(make_zmod(2), 3))
        verify_ring_axioms(upper_triangular(make_zmod(6), 2))


class TestGroupRing:
    def test_one_plus_g_squares_to_zero(self):
        RG = group_ring(make_zmod(2), cyclic(2))
        assert RG.order == 4
        x = RG.encode((1, 1))
        assert ring_mul(RG, x, x) == RG.zero

    def test_trivial_group_matches_base(self):
        assert census(group_ring(make_zmod(6), cyclic(1))) == census(make_zmod(6))

    def test_identity_element(self):
        RG = group_ring(make_zmod(4), cyclic(3))
        assert RG.decode(RG.one) == (1, 0, 0)

    def test_axioms(self):
        verify_ring_axioms(group_ring(make_zmod(3), symmetric(3)))

    def test_convolution_example(self):
        # (1 + g)(1 + g^2) over Z2C3 = 1 + g + g^2 + g^3 = g + g^2 (char 2)
        RG = group_ring(make_zmod(2), cyclic(3))
        x = RG.encode((1, 1, 0))
        y = RG.encode((1, 0, 1))
        assert RG.decode(ring_mul(RG, x, y)) == (0, 1, 1)


class TestAugmentation:
    def test_char2(self):
        RG = group_ring(make_zmod(2), cyclic(2))
        assert augmentation(RG, RG.encode((1, 1))) == 0

    def test_preserves_one(self):
        RG = group_ring(make_zmod(4), cyclic(3))
        assert augmentation(RG, RG.one) == 1

    def test_z4c2(self):
        RG = group_ring(make_zmod(4), cyclic(2))
        assert augmentation(RG, RG.encode((3, 2))) == 1

    def test_wrong_construction(self):
        with pytest.raises(WrongConstructionError):
            augmentation(make_zmod(4), 1)

    @pytest.mark.parametrize(
        "RG", [group_ring(make_zmod(2), symmetric(3)), group_ring(make_zmod(4), cyclic(2))],
        ids=lambda r: r.label,
    )
    def test_ring_homomorphism(self, RG):
        base = RG.meta["base"]
        for x in RG.elements():
            for y in RG.elements():
                assert augmentation(RG, ring_add(RG, x, y)) == ring_add(
                    base, augmentation(RG, x), augmentation(RG, y)
                )
                assert augmentation(RG, ring_mul(RG, x, y)) == ring_mul(
                    base, augmentation(RG, x), augmentation(RG, y)
                )

    def test_p_group_kernel_is_nil(self):
        # base with p nilpotent, G a p-group: the augmentation kernel is nil
        RG = freeze(group_ring(make_zmod(4), cyclic(2)))
        for x in RG.elements():
            if augmentation(RG, x) == 0:
                assert RG.caches.is_nilpotent[x]


class TestTrivialExtension:
    def test_z2(self):
        T = freeze(trivial_extension(make_zmod(2)))
        assert T.order == 4
        assert T.caches.is_nilpotent[T.encode((0, 1))]

    def test_z3_units(self):
        T = freeze(trivial_extension(make_zmod(3)))
        expected = {T.encode((a, m)) for a in (1, 2) for m in range(3)}
        assert members(T.caches.is_unit) == expected

    def test_axioms(self):
        verify_ring_axioms(trivial_extension(make_zmod(6)))


class TestGeneralizedMatrix:
    def test_s_one_matches_full_matrix_census(self):
        assert census(generalized_matrix(make_zmod(2), 1)) == census(
            matrix_ring(make_zmod(2), 2)
        )

    def test_s_zero_kills_off_diagonal_products(self):
        K = generalized_matrix(make_zmod(2), 0)
        for x1 in range(2):
            for y1 in range(2):
                for x2 in range(2):
                    for y2 in range(2):
                        p = K.encode((0, x1, y1, 0))
                        q = K.encode((0, x2, y2, 0))
                        a, _, _, b = K.decode(ring_mul(K, p, q))
                        assert a == 0 and b == 0

    def test_not_central(self):
        M = matrix_ring(make_zmod(2), 2)
        e12 = M.encode(((0, 1), (0, 0)))
        with pytest.raises(NotCentralError):
            generalized_matrix(M, e12)

    def test_axioms(self):
        verify_ring_axioms(generalized_matrix(make_zmod(4), 2))
        verify_ring_axioms(generalized_matrix(make_zmod(3), 0))


@pytest.mark.parametrize("build, shown", [
    (lambda: generalized_matrix(make_zmod(4), -1), "s = -1"),
    (lambda: generalized_matrix(make_zmod(4), 5), "s = 5"),
    (lambda: formal_matrix(make_zmod(4), 2, -2), "s = -2"),
    (lambda: augmentation(group_ring(make_zmod(2), cyclic(2)), 9), "x = 9"),
], ids=["Ks s=-1", "Ks s=5", "FM s=-2", "augmentation x=9"])
def test_out_of_range_elements_are_rejected(build, shown):
    # A negative index would be read from the end of numpy arrays (Ks(Z(4),
    # -1) would be Ks(Z(4), 3) under another label), and one past the order
    # would fail inside them or be summed as digits of another element.
    with pytest.raises(ValueError, match=f"^{re.escape(shown)} is not an element index of "):
        build()


class TestFormalMatrix:
    def test_k2_matches_generalized(self):
        F = freeze(formal_matrix(make_zmod(4), 2, 2))
        K = freeze(generalized_matrix(make_zmod(4), 2))
        # F is row-major, so its digits (a, x, y, b) are those of K: the
        # mul tables must agree entrywise, and the sums, digit sums over
        # the same radices (all 4, so neither ring has an add table)
        assert np.array_equal(F._mul_np, K._mul_np)
        assert F.radices == K.radices and F._add_np is None and K._add_np is None

    def test_requires_nilpotent(self):
        with pytest.raises(NotNilpotentError):
            formal_matrix(make_zmod(4), 2, 1)

    def test_k3_passes_gate(self):
        F = formal_matrix(make_zmod(2), 3, 0)
        assert F.order == 512
        verify_ring_axioms(F)

    def test_k3_nontrivial_s(self):
        F = formal_matrix(make_zmod(4), 3, 2, cap=4 ** 9)
        verify_ring_axioms(F)

    def test_gate_rejects_nonassociative(self):
        # The cross product on Z(3)^3, generators e0, e1, e2 at 1, 3, 9:
        # (e0 x e0) x e1 = 0, but e0 x (e0 x e1) = e0 x e2 = -e1.
        def cross(x, y):
            a, b = ([z // 3**t % 3 for t in range(3)] for z in (x, y))
            c = [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
            return sum(v % 3 * 3**t for t, v in enumerate(c))

        gens = [1, 3, 9]
        bogus = Ring(27, [[cross(g, h) for h in gens] for g in gens], one=1, label="bogus",
                     radices=(3, 3, 3))
        with pytest.raises(AssociativityError, match=r"bogus: .* at \(1, 1, 3\)$"):
            _verify_associativity(bogus)

    @pytest.mark.parametrize("k,m", [(2, 4), (3, 2)])
    def test_gate_matches_full_table(self, k, m):
        # The gate passed on generator triples; the op table agrees on all n^3.
        base = freeze(make_zmod(m))
        for s in np.flatnonzero(base.caches.is_nilpotent).tolist():
            F = formal_matrix(base, k, s)
            _build_tables(F)
            assert _check_assoc_np(F._mul_np) is None, F.label

    @pytest.mark.parametrize("seed", range(20))
    def test_gate_matches_full_table_on_bilinear_products(self, seed):
        # A random product on Z(2)^4 that is additive in each argument:
        # e_i * e_j = consts[i][j], mostly 0, so that 6 of the 20 are associative.
        rng = random.Random(seed)
        consts = [[rng.choice([0] * 7 + [rng.randrange(16)]) for _ in range(4)]
                  for _ in range(4)]

        def mul(x, y):
            z = 0
            for i in range(4):
                for j in range(4):
                    if x >> i & y >> j & 1:
                        z ^= consts[i][j]
            return z

        R = Ring(16, consts, one=1, label="bilinear", radices=(2, 2, 2, 2))
        gens = [1, 2, 4, 8]
        least = next(((g, h, k) for g in gens for h in gens for k in gens
                      if mul(mul(g, h), k) != mul(g, mul(h, k))), None)
        if least is None:
            _verify_associativity(R)
        else:
            with pytest.raises(AssociativityError, match=re.escape(f"at {least}")):
                _verify_associativity(R)
        _build_tables(R)
        assert (_check_assoc_np(R._mul_np) is None) == (least is None)

    def test_gate_spanning_set_generates(self, monkeypatch):
        # The gate reads the generator triples of the ring it is given, and
        # those generators span its additive group.
        spans = []

        def record(R):
            spans.append(R)
            return gate(R)

        gate = constructions._verify_associativity
        monkeypatch.setattr(constructions, "_verify_associativity", record)
        F = formal_matrix(make_zmod(4), 2, 2)
        R, = spans
        assert R is F
        assert _closure(R, _additive_generators(R)) == set(range(R.order))

    def test_gate_allocates_nothing_of_the_ring_order(self):
        # Building FM(3, Z(4), 2), order 4^9, and gating it reads the 81
        # generator products and the base alone.
        tracemalloc.start()
        try:
            F = formal_matrix(make_zmod(4), 3, 2, cap=4 ** 9)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert F.order == 4 ** 9 and F._structure is None
        assert held < 2**20 and peak < 2**20, (held, peak)

    def test_gate_rejects_bilinear_nonassociative(self):
        R = transposed_product()
        with pytest.raises(AssociativityError) as err:
            _verify_associativity(R)
        a, b, c = map(int, re.search(r"at \((\d+), (\d+), (\d+)\)$", str(err.value)).groups())
        assert ring_mul(R, ring_mul(R, a, b), c) != ring_mul(R, a, ring_mul(R, b, c))
        _build_tables(R)
        assert _check_assoc_np(R._mul_np) is not None
