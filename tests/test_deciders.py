"""Element and ring deciders against hand-checked and brute-forced values."""

import functools
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

from finring import (
    RingAxiomError,
    classify,
    cyclic,
    deciders,
    direct_product,
    freeze,
    group_ring,
    harness,
    is_nilpotent,
    kernel,
    make_zmod,
    matrix_ring,
    ring_pow,
    standard_corpus,
    trivial_extension,
)
from finring.deciders import (
    _element_masks,
    _left_morphic_mask,
    _ni_witness,
    _periodic_mask,
    is_NI,
)

import _oracles
from _oracles import (
    ELEMENT_DECIDERS,
    Decomposition,
    is_clean,
    is_nil_clean,
    is_periodic,
    is_regular,
    is_strongly_nil_clean,
    is_strongly_pi_regular,
    is_strongly_regular,
    is_strongly_unit_nil_clean,
    is_unit_nil_clean,
    is_unit_regular,
    jacobson_rows,
    left_morphic_reference,
    ni_search,
    periodic_indices,
    snc_poly_criterion,
    unit_row_masks,
)


@pytest.fixture(scope="module")
def z4():
    return freeze(make_zmod(4))


@pytest.fixture(scope="module")
def z6():
    return freeze(make_zmod(6))


@pytest.fixture(scope="module")
def m2z2():
    return freeze(matrix_ring(make_zmod(2), 2))


class TestRegular:
    def test_z4_two(self, z4):
        assert not is_regular(z4, 2)

    def test_z6_two(self, z6):
        assert is_regular(z6, 2)

    def test_zero(self, z4):
        assert is_regular(z4, 0)


class TestUnitRegular:
    def test_z6_all(self, z6):
        assert all(is_unit_regular(z6, x) for x in z6.elements())

    def test_z4_two(self, z4):
        assert not is_unit_regular(z4, 2)

    def test_one(self, z4):
        assert is_unit_regular(z4, z4.one)


class TestStronglyRegular:
    def test_commutative_collapse(self):
        R = freeze(make_zmod(12))
        for x in R.elements():
            assert is_strongly_regular(R, x) == is_regular(R, x)

    def test_e12_not(self, m2z2):
        e12 = m2z2.encode(((0, 1), (0, 0)))
        assert not is_strongly_regular(m2z2, e12)

    def test_idempotents(self, m2z2):
        for e in m2z2.caches.idempotents:
            assert is_strongly_regular(m2z2, e)


class TestLeftMorphic:
    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8, 9, 12])
    def test_zn_morphic(self, n):
        assert all(left_morphic_reference(freeze(make_zmod(n))))

    def test_zero_and_units(self, m2z2):
        morphic = left_morphic_reference(m2z2)
        assert morphic[0]
        for u in m2z2.caches.units:
            assert morphic[u]


class TestNilClean:
    def test_z3_two_absent(self):
        R = freeze(make_zmod(3))
        assert is_nil_clean(R, 2) is None

    def test_z4_three(self, z4):
        dec = is_nil_clean(z4, 3)
        assert (dec.idempotent, dec.other) == (1, 2)
        assert dec.verify(z4, 3)

    def test_idempotent_self(self, z6):
        for e in z6.caches.idempotents:
            dec = is_nil_clean(z6, e)
            assert dec is not None and dec.verify(z6, e)


class TestStronglyNilClean:
    def test_m2z2_bad_element(self, m2z2):
        x = m2z2.encode(((0, 1), (1, 1)))
        assert is_strongly_nil_clean(m2z2, x) is None
        assert not snc_poly_criterion(m2z2, x)
        # x - x^2 is the identity
        assert m2z2.sub(x, m2z2.mul(x, x)) == m2z2.one

    def test_z4_three(self, z4):
        dec = is_strongly_nil_clean(z4, 3)
        assert (dec.idempotent, dec.other) == (1, 2)
        assert z4.mul(1, 2) == z4.mul(2, 1)

    def test_nilpotent_self(self, z4):
        for b in z4.caches.nilpotents:
            dec = is_strongly_nil_clean(z4, b)
            assert dec is not None and dec.verify(z4, b)


class TestPolyCriterion:
    def test_z4_three(self, z4):
        assert snc_poly_criterion(z4, 3)

    def test_idempotents(self, m2z2):
        for e in m2z2.caches.idempotents:
            assert snc_poly_criterion(m2z2, e)

    @pytest.mark.parametrize(
        "ring", [make_zmod(5), make_zmod(8), matrix_ring(make_zmod(2), 2)],
        ids=lambda r: r.label,
    )
    def test_diesl_equivalence(self, ring):
        freeze(ring)
        for x in ring.elements():
            assert (is_strongly_nil_clean(ring, x) is not None) == snc_poly_criterion(
                ring, x
            )


class TestUnitNilClean:
    def test_z6_two(self, z6):
        dec = is_unit_nil_clean(z6, 2)
        assert dec is not None
        assert dec.unit == 5 and dec.idempotent == 4 and dec.other == 0

    def test_unit_one_shortcut(self, z4):
        for x in z4.elements():
            if is_nil_clean(z4, x) is not None:
                assert is_unit_nil_clean(z4, x).unit == 1

    def test_sunc_universal(self, m2z2):
        for x in m2z2.elements():
            dec = is_strongly_unit_nil_clean(m2z2, x)
            assert dec is not None and dec.verify(m2z2, x)


class TestDecompositionVerify:
    def test_rejects_non_unit_multiplier(self, z4):
        # 2*2 = 0 = 0 + 0 is a nil-clean sum, but 2 is not a unit of Z(4)
        forged = Decomposition("nil-clean", idempotent=0, other=0, unit=2)
        assert not forged.verify(z4, 2)

    def test_accepts_unit_multiplier(self, z4):
        assert Decomposition("nil-clean", idempotent=0, other=2, unit=3).verify(z4, 2)


class TestClean:
    def test_z3_two(self):
        R = freeze(make_zmod(3))
        dec = is_clean(R, 2)
        assert (dec.idempotent, dec.other) == (0, 2)

    def test_one(self, z4):
        dec = is_clean(z4, 1)
        assert (dec.idempotent, dec.other) == (0, 1)

    @pytest.mark.parametrize(
        "ring", [make_zmod(7), make_zmod(8), matrix_ring(make_zmod(2), 2)],
        ids=lambda r: r.label,
    )
    def test_universal(self, ring):
        freeze(ring)
        assert all(is_clean(ring, x) is not None for x in ring.elements())


class TestPeriodic:
    def test_z4_two(self, z4):
        assert periodic_indices(z4, 2) == (2, 3)

    def test_z4_three(self, z4):
        assert periodic_indices(z4, 3) == (1, 3)

    def test_idempotent(self, z6):
        for e in z6.caches.idempotents:
            if e not in (z6.zero,):
                assert periodic_indices(z6, e) == (1, 2)

    def test_least_pair_property(self, z6):
        from finring import ring_pow

        for x in z6.elements():
            m, n = periodic_indices(z6, x)
            assert 1 <= m < n
            assert ring_pow(z6, x, m) == ring_pow(z6, x, n)

    def test_wrong_pair_caught(self, z4, monkeypatch):
        assert all(is_periodic(z4, x) for x in z4.elements())
        # 2^1 = 2 but 2^2 = 0
        monkeypatch.setattr(_oracles, "periodic_indices", lambda R, x: (1, 2))
        assert not is_periodic(z4, 2)

    def test_mask_engine_pairs(self, z6):
        m, k = kernel._power_scan(z6)
        assert list(zip(m.tolist(), k.tolist())) == [
            periodic_indices(z6, x) for x in z6.elements()
        ]
        assert _periodic_mask(z6, m, k).all()

    def test_mask_engine_catches_wrong_pair(self, z4):
        ones, twos = np.ones(4, dtype=np.int64), np.full(4, 2, dtype=np.int64)
        mask = _periodic_mask(z4, ones, twos)
        assert mask.tolist() == [True, True, False, False]


class TestStronglyPiRegular:
    def test_z8_two(self):
        R = freeze(make_zmod(8))
        assert is_strongly_pi_regular(R, 2)

    def test_units(self, z4):
        for u in z4.caches.units:
            assert is_strongly_pi_regular(z4, u)

    @pytest.mark.parametrize(
        "ring", [make_zmod(8), make_zmod(9), matrix_ring(make_zmod(2), 2)],
        ids=lambda r: r.label,
    )
    def test_universal(self, ring):
        freeze(ring)
        assert all(is_strongly_pi_regular(ring, x) for x in ring.elements())


class TestNilSetPredicates:
    def test_z6(self, z6):
        assert classify(z6).flags["reduced"] and is_NI(z6)
        assert z6.caches.nilpotents == {0}

    def test_m2z2_not_ni(self, m2z2):
        assert not is_NI(m2z2)

    def test_z4(self, z4):
        assert is_NI(z4)
        assert z4.caches.nilpotents == {0, 2} == z4.caches.jacobson


class TestClassify:
    def test_z6(self, z6):
        report = classify(z6)
        assert report.flags["unit_regular"] and report.flags["reduced"]

    def test_z4(self, z4):
        report = classify(z4)
        assert not report.flags["unit_regular"]
        assert report.witnesses["unit_regular"]["index"] == 2
        assert report.flags["strongly_nil_clean"]

    def test_zero_ring(self):
        report = classify(freeze(make_zmod(1)))
        assert all(report.flags.values())

    @pytest.mark.parametrize(
        "ring",
        [make_zmod(4), make_zmod(6), make_zmod(8), matrix_ring(make_zmod(2), 2)],
        ids=lambda r: r.label,
    )
    def test_implication_lattice(self, ring):
        flags = classify(freeze(ring)).flags
        for pre, post in harness._IMPLICATIONS:
            assert not flags[pre] or flags[post], f"{pre} => {post}"

    def test_false_witnesses_reverify(self, z4, m2z2):
        report = classify(z4)
        assert not report.flags["regular"]
        assert not is_regular(z4, report.witnesses["regular"]["index"])
        report = classify(m2z2)
        assert report.flags["unit_regular"]  # M2(F2) is semisimple
        assert not report.flags["strongly_regular"]
        assert not is_strongly_regular(m2z2, report.witnesses["strongly_regular"]["index"])


class TestEhrlich:
    @pytest.mark.parametrize(
        "ring", [make_zmod(8), make_zmod(12), matrix_ring(make_zmod(2), 2)],
        ids=lambda r: r.label,
    )
    def test_equivalence(self, ring):
        freeze(ring)
        for x, morphic in zip(ring.elements(), left_morphic_reference(ring)):
            assert is_unit_regular(ring, x) == (is_regular(ring, x) and morphic)


# -- the mask engine against the scalar deciders ---------------------------


def _falsifier_instances(seed=0, count=100, cap=256):
    rng = random.Random(seed)
    return [harness._random_instance(rng, cap) for _ in range(count)]


ORACLE_RINGS = (
    [pytest.param(R, id=R.label) for R in standard_corpus()]
    + [pytest.param(R, id=f"falsify-0-{i}-{R.label}")
       for i, R in enumerate(_falsifier_instances())]
    + [pytest.param(trivial_extension(make_zmod(32)), id="Triv(Z(32))"),
       pytest.param(group_ring(make_zmod(2), cyclic(10)), id="GR(Z(2), C(10))")]
)


def _witness(R, x):
    return {"index": x, "element": R.format_element(x)}


def _oracle_report(R):
    """classify's JSON rebuilt from the scalar element deciders of
    ``_oracles`` and a scalar NI loop."""
    flags, witnesses = {}, {}
    for name, decider in ELEMENT_DECIDERS.items():
        failure = next((x for x in R.elements() if not decider(R, x)), None)
        flags[name] = failure is None
        if failure is not None:
            witnesses[name] = _witness(R, failure)
    nils = sorted(R.caches.nilpotents)
    escapes = itertools.chain(
        (R.add(a, b) for a in nils for b in nils),
        (p for a in nils for r in R.elements() for p in (R.mul(r, a), R.mul(a, r))),
    )
    escape = next((s for s in escapes if s not in R.caches.nilpotents), None)
    flags["NI"] = escape is None
    if escape is not None:
        witnesses["NI"] = _witness(R, escape)
    flags["reduced"] = nils == [0]
    if not flags["reduced"]:
        witnesses["reduced"] = _witness(R, nils[1])
    return {
        "label": R.label,
        "order": R.order,
        "flags": flags,
        "witnesses": witnesses,
        "radicals": {"jacobson": len(R.caches.jacobson), "nil": len(nils)},
    }


def _brute_force_sets(R):
    """(inverse map, idempotents, nilpotents, Jacobson radical) from R.mul."""
    n, one, mul = R.order, R.one, R.mul
    inverse = {}
    for u in range(n):
        v = next((v for v in range(n) if mul(u, v) == one and mul(v, u) == one), None)
        if v is not None:
            inverse[u] = v
    idempotents = {e for e in range(n) if mul(e, e) == e}
    nilpotents = {x for x in range(n) if is_nilpotent(R, x)}
    jacobson = {
        x for x in range(n) if all(R.sub(one, mul(y, x)) in inverse for y in range(n))
    }
    return inverse, idempotents, nilpotents, jacobson


@pytest.mark.parametrize("ring", ORACLE_RINGS)
def test_mask_engine_matches_scalar_deciders(ring):
    R = freeze(ring)
    assert R._mul_np is not None
    inverse, idempotents, nilpotents, jacobson = _brute_force_sets(R)
    assert R.caches.unit_inverse == inverse
    assert R.caches.units == set(inverse)
    assert R.caches.idempotents == idempotents
    assert R.caches.nilpotents == nilpotents
    assert R.caches.jacobson == jacobson
    # byte-identical JSON, key order included
    assert json.dumps(classify(R).to_json()) == json.dumps(_oracle_report(R))
    assert _left_morphic_mask(R).tolist() == left_morphic_reference(R)


@pytest.mark.parametrize("index", range(len(standard_corpus())),
                         ids=[R.label for R in standard_corpus()])
def test_scalar_path_matches_table_path(index, monkeypatch):
    R = freeze(standard_corpus()[index])
    monkeypatch.setattr(kernel, "TABLE_LIMIT", 0)
    S = freeze(standard_corpus()[index])
    assert R._mul_np is not None and S._mul_np is None
    for name in ("units", "unit_inverse", "idempotents", "nilpotents", "jacobson"):
        assert getattr(S.caches, name) == getattr(R.caches, name), name
    assert json.dumps(classify(S).to_json()) == json.dumps(classify(R).to_json())
    assert (_left_morphic_mask(S) == _left_morphic_mask(R)).all()


def test_row_path_matches_table_path_above_limit(monkeypatch):
    S = freeze(trivial_extension(make_zmod(33)))
    assert S.order > kernel.TABLE_LIMIT and S._mul_np is None
    row_path = json.dumps(classify(S).to_json())
    monkeypatch.setattr(kernel, "TABLE_LIMIT", 2048)
    R = freeze(trivial_extension(make_zmod(33)))
    assert R._mul_np is not None
    for name in ("units", "unit_inverse", "idempotents", "nilpotents", "jacobson"):
        assert getattr(S.caches, name) == getattr(R.caches, name), name
    assert row_path == json.dumps(classify(R).to_json())
    assert (_left_morphic_mask(S) == _left_morphic_mask(R)).all()


def test_row_path_memory_is_linear_in_order():
    # One 1089 x 1089 table alone is 2.3 MiB of int16; the row path keeps to
    # O(n * |g|) arrays, with two and with three additive generators.
    for R in (trivial_extension(make_zmod(33)),
              direct_product(make_zmod(5), trivial_extension(make_zmod(15)))):
        tracemalloc.start()
        try:
            classify(freeze(R))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert R._mul_np is None
        assert peak < 2 * 2**20, (R.label, peak)


def test_ni_witness_peak_is_below_the_mask_engine():
    # _ni_witness keeps boolean escape masks, not a stack of the products,
    # and the mask engine holds a few row blocks of the 1024 x 1024 table
    # (2 MiB of int16) at a time, not the whole of it.
    R = freeze(trivial_extension(make_zmod(32)))
    peaks = []
    for phase in (_ni_witness, _element_masks):
        tracemalloc.start()
        try:
            phase(R)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1] < 3 * kernel.ROW_BLOCK * 8, peaks


def test_idempotent_row_blocks_are_held_one_at_a_time():
    # The Boolean ring Z(2)^10 has 1024 idempotents, so the x - e loop of the
    # mask engine reads four row blocks of its 1024 x 1024 table.  Its peak
    # stays under three arrays of one block (512 KiB of int16 each): the
    # commuting check multiplies only the pairs with x - e nilpotent, not
    # the whole block, and the arrays of every block held at once would add
    # 768 KiB per block.
    R = freeze(functools.reduce(direct_product, [make_zmod(2)] * 10))
    assert len(kernel._row_blocks(R, sorted(R.caches.idempotents))) == 4
    tracemalloc.start()
    try:
        _element_masks(R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * kernel.ROW_BLOCK * 2, peak


ABOVE_LIMIT = [
    pytest.param(trivial_extension(make_zmod(33)), id="Triv(Z(33))"),
    pytest.param(direct_product(make_zmod(5), trivial_extension(make_zmod(15))),
                 id="Z(5) x Triv(Z(15))"),
]


@pytest.mark.parametrize("ring", ORACLE_RINGS + ABOVE_LIMIT)
def test_power_scan_matches_scalar_deciders(ring):
    # Below the limit test_mask_engine_matches_scalar_deciders also holds
    # the units and inverses read from the scan to brute force.
    R = freeze(ring)
    m, k = R.caches.power_indices
    assert list(zip(m.tolist(), k.tolist())) == [periodic_indices(R, x) for x in R.elements()]
    assert (m == 1).tolist() == [is_strongly_regular(R, x) for x in R.elements()]
    assert R.caches.units == set(R.caches.unit_inverse)
    for u, v in R.caches.unit_inverse.items():
        assert R.mul(u, v) == R.one == R.mul(v, u)


@pytest.mark.parametrize("ring", [make_zmod(4), trivial_extension(make_zmod(33))],
                         ids=lambda R: R.label)
def test_classify_rejects_a_wrong_power_scan(ring):
    R = freeze(ring)
    R.caches.power_indices[0][0] = 2        # 0 = 0^2 loses its group inverse
    with pytest.raises(RingAxiomError, match="strong regularity .* disagree at 0"):
        classify(R)


@pytest.mark.parametrize("ring", ABOVE_LIMIT + [
    pytest.param(trivial_extension(make_zmod(34)), id="Triv(Z(34))"),
    pytest.param(matrix_ring(make_zmod(8), 2), id="M(2, Z(8))"),
    pytest.param(matrix_ring(make_zmod(3), 2), id="M(2, Z(3))"),
    pytest.param(matrix_ring(make_zmod(2), 3), id="M(3, Z(2))"),
    pytest.param(matrix_ring(make_zmod(4), 2), id="M(2, Z(4))"),
    pytest.param(matrix_ring(make_zmod(2), 2), id="M(2, Z(2))"),
    pytest.param(make_zmod(1), id="Z(1)"),
])
def test_generating_sets_match_row_oracles(ring):
    # The unit-multiple masks, J and the NI witness, read from generating
    # sets, against one row per unit, one row per element and the ordered
    # NI search, above TABLE_LIMIT (M(2, Z(8)) has order 4096) and below it.
    R = freeze(ring)
    masks = _element_masks(R)
    closed = [masks[name] for name in ("unit_regular", "unit_nil_clean",
                                       "strongly_unit_nil_clean")]
    rows = unit_row_masks(R, masks["nil_clean"], masks["strongly_nil_clean"])
    assert (np.stack(closed) == rows).all()
    assert R.caches.jacobson == jacobson_rows(R)
    assert _ni_witness(R) == ni_search(R)


def test_unit_closure_of_gl_2_3_takes_more_than_one_pass():
    # GL(2, 3), the 48 units of M(2, Z(3)), is not abelian.  Its first two
    # greedy generators g, h (each of order at most 8) generate it, but one
    # pass along g and then h from {1} reaches only the 16 products h^j g^i.
    R = freeze(matrix_ring(make_zmod(3), 2))
    units = R.caches.units
    g = min(units - {R.one})
    h = min(units - {ring_pow(R, g, j) for j in range(8)})
    generators = [(kernel._mul_many(R, x, np.arange(R.order)), 3) for x in (g, h)]
    one = kernel._indicator(R.order, [R.one])
    once = kernel._orbit_union(kernel._orbit_union(one, *generators[0]), *generators[1])
    assert once.sum() == 16
    assert set(np.flatnonzero(deciders._closure(one, generators)).tolist()) == units
    assert set(np.flatnonzero(deciders._unit_multiples(R, one[None])[0]).tolist()) == units


@pytest.mark.parametrize("ring, jacobson, nil", [
    (matrix_ring(make_zmod(2), 3), 1, 64),      # J = 0 under many nilpotents
    (matrix_ring(make_zmod(4), 2), 16, 64),     # J = M(2, 2Z(4)), smaller than Nil
    (make_zmod(1), 1, 1),                       # the zero ring
], ids=["M(3, Z(2))", "M(2, Z(4))", "Z(1)"])
def test_jacobson_sieve_cases(ring, jacobson, nil):
    # The cases the sieve must get right; test_generating_sets_match_row_oracles
    # holds each of these rings to the row-per-element J.
    R = freeze(ring)
    assert (len(R.caches.jacobson), len(R.caches.nilpotents)) == (jacobson, nil)


def test_ni_fails_at_a_sum():
    # e12 + e21 in M(2, Z(2)) is not nilpotent: test (a) fails.
    R = freeze(matrix_ring(make_zmod(2), 2))
    assert not deciders._nil_is_ideal(R, kernel._indicator(R.order, R.caches.nilpotents))
    witness = _ni_witness(R)
    assert witness is not None and witness == ni_search(R)
    assert not is_nilpotent(R, witness)


def test_ni_fails_at_a_product():
    # In a finite ring nilpotents closed under addition form an ideal, so no
    # ring fails test (b) alone.  The nil set of a fresh M(2, Z(2)) is
    # replaced by the subgroup {0, e12}: it passes (a), and e21*e12 = e22
    # leaves it.
    R = freeze(matrix_ring(make_zmod(2), 2))
    e12 = R.encode(((0, 1), (0, 0)))
    R.caches.nilpotents = frozenset({0, e12})
    assert R.add(e12, e12) == 0
    assert not deciders._nil_is_ideal(R, kernel._indicator(R.order, R.caches.nilpotents))
    witness = _ni_witness(R)
    assert witness not in (None, 0, e12) and witness == ni_search(R)
