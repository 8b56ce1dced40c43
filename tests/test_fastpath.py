"""Number-theoretic closed forms."""

import pytest
from hypothesis import given, strategies as st

from finring import (
    connell_regular_zn,
    cyclic,
    factorize,
    is_squarefree,
    symmetric,
    zn_unit_regular,
    zng_unit_regular,
)


class TestFactorize:
    def test_six(self):
        assert factorize(6).factors == ((2, 1), (3, 1))

    def test_twelve(self):
        assert factorize(12).factors == ((2, 2), (3, 1))

    def test_one(self):
        assert factorize(1).factors == ()

    def test_invalid(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_roundtrip(self, n):
        f = factorize(n)
        assert f.reconstruct() == n
        assert all(p2 > p1 for (p1, _), (p2, _) in zip(f.factors, f.factors[1:]))


class TestSquarefree:
    def test_examples(self):
        assert is_squarefree(1)
        assert is_squarefree(6)
        assert not is_squarefree(12)
        assert not is_squarefree(4)


class TestZnUnitRegular:
    @pytest.mark.parametrize("n,expected", [(6, True), (4, False), (1, True), (30, True), (9, False)])
    def test_examples(self, n, expected):
        assert zn_unit_regular(n) == expected


class TestZnG:
    @pytest.mark.parametrize(
        "n,G,expected",
        [
            (2, cyclic(3), True),
            (2, cyclic(2), False),
            (4, cyclic(3), False),
            (5, cyclic(2), True),
        ],
    )
    def test_unit_regular(self, n, G, expected):
        assert zng_unit_regular(n, G) == expected

    @pytest.mark.parametrize(
        "n,G,expected",
        [(2, symmetric(3), False), (5, cyclic(2), True), (6, cyclic(1), True), (12, cyclic(1), False)],
    )
    def test_by_group_order(self, n, G, expected):
        assert connell_regular_zn(n, G) == expected

    def test_two_routes_coincide(self):
        # Theorem 4.5 reads the element orders, Connell's criterion the group
        # order; by Cauchy's theorem a prime divides |G| iff it is an element order.
        groups = [cyclic(1), cyclic(2), cyclic(3), cyclic(6), symmetric(3), symmetric(4)]
        for n in range(1, 40):
            for G in groups:
                assert zng_unit_regular(n, G) == connell_regular_zn(n, G)


class TestConnell:
    @pytest.mark.parametrize(
        "n,G,expected",
        [(2, cyclic(3), True), (3, symmetric(3), False), (6, cyclic(5), True)],
    )
    def test_examples(self, n, G, expected):
        assert connell_regular_zn(n, G) == expected
