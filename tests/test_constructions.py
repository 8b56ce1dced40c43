"""Derived ring constructions and their censuses."""

import random
import re

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
from finring.constructions import _verify_associativity
from finring.kernel import _additive_generators, _build_tables

from _oracles import _check_assoc_np, _closure, transposed_product


def census(R):
    freeze(R)
    return (
        R.order,
        len(R.caches.units),
        len(R.caches.idempotents),
        len(R.caches.nilpotents),
    )


class TestMatrixRing:
    def test_m2_z2(self):
        M = freeze(matrix_ring(make_zmod(2), 2))
        assert M.order == 16
        assert len(M.caches.units) == 6  # |GL2(F2)|

    def test_m2_z4(self):
        M = freeze(matrix_ring(make_zmod(4), 2))
        assert M.order == 256
        assert len(M.caches.units) == 96

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


class TestUpperTriangular:
    def test_u2_z2_nilpotents(self):
        U = freeze(upper_triangular(make_zmod(2), 2))
        assert U.order == 8
        e12 = U.encode(((0, 1), (0, 0)))
        assert U.caches.nilpotents == {0, e12}

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
        assert RG.mul(x, x) == RG.zero

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
        assert RG.decode(RG.mul(x, y)) == (0, 1, 1)


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
                assert augmentation(RG, RG.add(x, y)) == base.add(
                    augmentation(RG, x), augmentation(RG, y)
                )
                assert augmentation(RG, RG.mul(x, y)) == base.mul(
                    augmentation(RG, x), augmentation(RG, y)
                )

    def test_p_group_kernel_is_nil(self):
        # base with p nilpotent, G a p-group: the augmentation kernel is nil
        RG = freeze(group_ring(make_zmod(4), cyclic(2)))
        for x in RG.elements():
            if augmentation(RG, x) == 0:
                assert x in RG.caches.nilpotents


class TestTrivialExtension:
    def test_z2(self):
        T = freeze(trivial_extension(make_zmod(2)))
        assert T.order == 4
        assert T.encode((0, 1)) in T.caches.nilpotents

    def test_z3_units(self):
        T = freeze(trivial_extension(make_zmod(3)))
        expected = {T.encode((a, m)) for a in (1, 2) for m in range(3)}
        assert T.caches.units == expected

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
                        a, _, _, b = K.decode(K.mul(p, q))
                        assert a == 0 and b == 0

    def test_not_central(self):
        M = matrix_ring(make_zmod(2), 2)
        e12 = M.encode(((0, 1), (0, 0)))
        with pytest.raises(NotCentralError):
            generalized_matrix(M, e12)

    def test_axioms(self):
        verify_ring_axioms(generalized_matrix(make_zmod(4), 2))
        verify_ring_axioms(generalized_matrix(make_zmod(3), 0))


class TestFormalMatrix:
    def test_k2_matches_generalized(self):
        F = freeze(formal_matrix(make_zmod(4), 2, 2))
        K = freeze(generalized_matrix(make_zmod(4), 2))
        # F is row-major, so its digits (a, x, y, b) are those of K and
        # the tables must agree entrywise
        assert np.array_equal(F._mul_np, K._mul_np)
        assert np.array_equal(F._add_np, K._add_np)

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
        bogus = Ring(
            order=3,
            add=lambda a, b: (a + b) % 3,
            mul=lambda a, b: (a - b) % 3,  # (a-b)-c != a-(b-c)
            neg=lambda a: (-a) % 3,
            one=1,
            label="bogus",
        )
        with pytest.raises(AssociativityError, match=r"bogus: .* at \(0, 0, 1\)$"):
            _verify_associativity(bogus, "bogus", _additive_generators(bogus))

    @pytest.mark.parametrize("k,m", [(2, 4), (3, 2)])
    def test_gate_matches_full_table(self, k, m):
        # The gate passed on generator triples; the op table agrees on all n^3.
        base = freeze(make_zmod(m))
        for s in sorted(base.caches.nilpotents):
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

        R = Ring(16, add=lambda a, b: a ^ b, mul=mul, neg=lambda a: a, one=1,
                 label="bilinear", radices=(2, 2, 2, 2))
        gens = [1, 2, 4, 8]
        least = next(((g, h, k) for g in gens for h in gens for k in gens
                      if mul(mul(g, h), k) != mul(g, mul(h, k))), None)
        if least is None:
            _verify_associativity(R, R.label, _additive_generators(R))
        else:
            with pytest.raises(AssociativityError, match=re.escape(f"at {least}")):
                _verify_associativity(R, R.label, _additive_generators(R))
        _build_tables(R)
        assert (_check_assoc_np(R._mul_np) is None) == (least is None)

    def test_gate_spanning_set_generates(self, monkeypatch):
        # Over a base with radices and over an opaque base.
        spans = []

        def record(R, label, gens):
            spans.append((R, gens))
            return gate(R, label, gens)

        gate = constructions._verify_associativity
        monkeypatch.setattr(constructions, "_verify_associativity", record)
        z4 = make_zmod(4)
        opaque = Ring(4, add=z4.add, mul=z4.mul, neg=z4.neg, one=1, label="Z(4) opaque")
        formal_matrix(z4, 2, 2)
        formal_matrix(opaque, 2, 2)
        for R, gens in spans:
            _build_tables(R)
            assert _closure(R._add_np, gens) == set(range(R.order)), R.label

    def test_gate_rejects_bilinear_nonassociative(self):
        R = transposed_product()
        with pytest.raises(AssociativityError) as err:
            _verify_associativity(R, R.label, _additive_generators(R))
        a, b, c = map(int, re.search(r"at \((\d+), (\d+), (\d+)\)$", str(err.value)).groups())
        assert R.mul(R.mul(a, b), c) != R.mul(a, R.mul(b, c))
        _build_tables(R)
        assert _check_assoc_np(R._mul_np) is not None
