"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import time

import pytest

from finring import (
    AssociativityError,
    classify,
    cyclic,
    formal_matrix,
    freeze,
    generalized_matrix,
    group_ring,
    make_zmod,
    matrix_ring,
    standard_corpus,
    symmetric,
    trivial_extension,
    upper_triangular,
    verify_ring_axioms,
)
from finring.cli import main
from finring.deciders import is_NI
from finring.harness import (
    suite_connell,
    suite_group_ring_sunc,
    suite_lemma_4_4,
    suite_morita,
    suite_theorem_4_5,
    theorem_4_5_cases,
)

from _oracles import (
    is_regular,
    is_strongly_nil_clean,
    is_strongly_unit_nil_clean,
    is_unit_regular,
    left_morphic_reference,
    members,
    ring_add,
    ring_mul,
    ring_sub,
    snc_poly_criterion,
)


@pytest.fixture(scope="module")
def corpus():
    rings = standard_corpus()
    for R in rings:
        freeze(R)
    return rings


class _Gate:
    """Times a criterion and prints its PASS/FAIL line."""

    def __init__(self, number, name, budget):
        self.number = number
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n{status} criterion {self.number} ({self.name}) "
              f"[{elapsed:.1f}s, budget {self.budget}s]")
        assert elapsed < self.budget, f"criterion {self.number} over budget"
        return False


def test_criterion_1_lemma_4_4():
    with _Gate(1, "Lemma 4.4: Z_n unit-regular iff n squarefree, n <= 60", 5):
        report = suite_lemma_4_4(60)
        assert report.attempted == 60
        assert report.failures == []


def test_criterion_2_theorem_4_5():
    with _Gate(2, "Theorem 4.5: Z_nG unit-regularity, brute = fast", 60):
        expected = [True, True, True, False, False, False, False]
        cases = theorem_4_5_cases()
        report = suite_theorem_4_5(cases)
        assert report.attempted == 7
        assert report.failures == [] and report.skipped == []
        from finring import zng_unit_regular

        for (n, G), want in zip(cases, expected):
            assert zng_unit_regular(n, G) == want, (n, G.label)


def test_criterion_3_connell():
    with _Gate(3, "Connell: Z_nG regularity, and regular <=> unit-regular", 300):
        report = suite_connell()
        # 8 cases, each contributing the fast-vs-brute check and the
        # regular<=>unit-regular coincidence check
        assert report.attempted == 16
        assert report.failures == [] and report.skipped == []
        from finring import connell_regular_zn

        assert connell_regular_zn(3, symmetric(3)) is False


def test_criterion_4_diesl():
    with _Gate(4, "Diesl: strongly nil-clean search <=> x - x^2 nilpotent", 120):
        rings = [make_zmod(n) for n in range(2, 10)]
        rings += [
            matrix_ring(make_zmod(2), 2),
            matrix_ring(make_zmod(4), 2),
            group_ring(make_zmod(2), cyclic(2)),
            group_ring(make_zmod(4), cyclic(2)),
            trivial_extension(make_zmod(6)),
            generalized_matrix(make_zmod(4), 2),
        ]
        for R in rings:
            freeze(R)
            for x in R.elements():
                assert (is_strongly_nil_clean(R, x) is not None) == snc_poly_criterion(
                    R, x
                ), (R.label, x)


def test_criterion_5_ehrlich(corpus):
    with _Gate(5, "Ehrlich: unit-regular <=> regular and left morphic", 120):
        for R in corpus:
            if R.order > 512:
                continue
            for x, morphic in zip(R.elements(), left_morphic_reference(R)):
                assert is_unit_regular(R, x) == (is_regular(R, x) and morphic), (R.label, x)


def test_criterion_6_sunc_universality(corpus):
    with _Gate(6, "strong unit nil-cleanness with verified witnesses", 300):
        for R in corpus:
            for x in R.elements():
                dec = is_strongly_unit_nil_clean(R, x)
                assert dec is not None, (R.label, x)
                assert R.caches.is_unit[dec.unit]
                assert dec.verify(R, x), (R.label, x)
        M = freeze(matrix_ring(make_zmod(2), 2))
        x = M.encode(((0, 1), (1, 1)))
        assert is_strongly_nil_clean(M, x) is None
        assert ring_sub(M, x, ring_mul(M, x, x)) == M.one
        assert is_strongly_unit_nil_clean(M, x) is not None


def test_criterion_7_morita():
    with _Gate(7, "Morita/triangular/trivial-extension suite", 180):
        report = suite_morita()
        assert report.attempted == 7
        assert report.failures == [] and report.skipped == []


def test_criterion_8_group_ring_sunc():
    with _Gate(8, "group-ring sunc suite; Z2S3 discriminates regularity", 300):
        report = suite_group_ring_sunc()
        assert report.failures == [] and report.skipped == []
        flags = classify(freeze(group_ring(make_zmod(2), symmetric(3)))).flags
        assert flags["strongly_unit_nil_clean"] is True
        assert flags["regular"] is False


def test_criterion_9_radicals(corpus):
    with _Gate(9, "radical invariants: J ideal, J <= Nil, J nilpotent, NI <=> Nil=J", 60):
        assert members(freeze(make_zmod(4)).caches.is_jacobson) == {0, 2}
        assert members(freeze(make_zmod(6)).caches.is_jacobson) == {0}
        for R in corpus:
            jac, nil = members(R.caches.is_jacobson), members(R.caches.is_nilpotent)
            assert jac <= nil, R.label
            for a in jac:
                for b in jac:
                    assert ring_add(R, a, b) in jac, R.label
                for r in R.elements():
                    assert ring_mul(R, r, a) in jac and ring_mul(R, a, r) in jac, R.label
            layer = set(jac)
            for _ in range(R.order):
                if layer == {0}:
                    break
                layer = {ring_mul(R, a, b) for a in layer for b in jac}
            assert layer == {0}, f"{R.label}: J not nilpotent"
            assert is_NI(R) == (nil == jac), R.label


def test_criterion_10_axioms_and_censuses():
    with _Gate(10, "ring axioms, small-size census identities, formal-matrix gate", 120):
        for R in standard_corpus():
            verify_ring_axioms(R)

        def census(R):
            freeze(R)
            return (
                R.order,
                int(R.caches.is_unit.sum()),
                int(R.caches.is_idempotent.sum()),
                int(R.caches.is_nilpotent.sum()),
            )

        for base in (make_zmod(4), make_zmod(6)):
            want = census(base)
            assert census(matrix_ring(base, 1)) == want
            assert census(upper_triangular(base, 1)) == want
            assert census(group_ring(base, cyclic(1))) == want
        for base in (make_zmod(2), make_zmod(3)):
            assert census(generalized_matrix(base, base.one)) == census(
                matrix_ring(base, 2)
            )
        # the associativity gate either passes or raises loudly; both builds
        # must succeed for the shipped exponent scheme
        try:
            formal_matrix(make_zmod(4), 2, 2)
            formal_matrix(make_zmod(2), 3, 0)
        except AssociativityError as exc:  # pragma: no cover
            pytest.fail(f"formal matrix gate rejected the scheme: {exc}")


def test_criterion_11_search_determinism(capsys):
    with _Gate(11, "falsifier: seed 0, count 100, clean and byte-identical", 300):
        argv = ["search", "--seed", "0", "--count", "100", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["failures"] == []
        assert payload["passed"] == payload["attempted"]
