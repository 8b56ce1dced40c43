"""Element and ring deciders against hand-checked and brute-forced values."""

import functools
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

from finring import (
    CapExceededError,
    RingAxiomError,
    classify,
    cyclic,
    deciders,
    direct_product,
    freeze,
    group_ring,
    harness,
    kernel,
    make_zmod,
    matrix_ring,
    standard_corpus,
    trivial_extension,
)
from finring.cli import elaborate, parse
from finring.deciders import (
    _element_masks,
    _left_ideal_masks,
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
    is_nilpotent,
    is_periodic,
    is_regular,
    is_strongly_nil_clean,
    is_strongly_pi_regular,
    is_strongly_regular,
    is_strongly_unit_nil_clean,
    is_unit_nil_clean,
    is_unit_regular,
    jacobson_rows,
    inverse_map,
    left_morphic_reference,
    members,
    ni_search,
    periodic_indices,
    ring_add,
    ring_mul,
    ring_pow,
    ring_sub,
    scalar_ops,
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
        for e in members(m2z2.caches.is_idempotent):
            assert is_strongly_regular(m2z2, e)


class TestLeftMorphic:
    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8, 9, 12])
    def test_zn_morphic(self, n):
        assert all(left_morphic_reference(freeze(make_zmod(n))))

    def test_zero_and_units(self, m2z2):
        morphic = left_morphic_reference(m2z2)
        assert morphic[0]
        for u in members(m2z2.caches.is_unit):
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
        for e in members(z6.caches.is_idempotent):
            dec = is_nil_clean(z6, e)
            assert dec is not None and dec.verify(z6, e)


class TestStronglyNilClean:
    def test_m2z2_bad_element(self, m2z2):
        x = m2z2.encode(((0, 1), (1, 1)))
        assert is_strongly_nil_clean(m2z2, x) is None
        assert not snc_poly_criterion(m2z2, x)
        # x - x^2 is the identity
        assert ring_sub(m2z2, x, ring_mul(m2z2, x, x)) == m2z2.one

    def test_z4_three(self, z4):
        dec = is_strongly_nil_clean(z4, 3)
        assert (dec.idempotent, dec.other) == (1, 2)
        assert ring_mul(z4, 1, 2) == ring_mul(z4, 2, 1)

    def test_nilpotent_self(self, z4):
        for b in members(z4.caches.is_nilpotent):
            dec = is_strongly_nil_clean(z4, b)
            assert dec is not None and dec.verify(z4, b)


class TestPolyCriterion:
    def test_z4_three(self, z4):
        assert snc_poly_criterion(z4, 3)

    def test_idempotents(self, m2z2):
        for e in members(m2z2.caches.is_idempotent):
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
        for e in members(z6.caches.is_idempotent):
            if e not in (z6.zero,):
                assert periodic_indices(z6, e) == (1, 2)

    def test_least_pair_property(self, z6):
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
        assert _periodic_mask(z6).all()

    def test_mask_engine_catches_wrong_pair(self, monkeypatch):
        # A power scan that gives (m, k) = (1, 2) for every element: x = x^2
        # fails at 2 and 3, the elements of Z(4) that are not idempotent.
        monkeypatch.setattr(kernel, "_power_scan", lambda R: kernel._Scan((
            np.ones(R.order, dtype=np.int64), np.full(R.order, 2, dtype=np.int64))))
        mask = _periodic_mask(freeze(make_zmod(4)))
        assert mask.tolist() == [True, True, False, False]


class TestStronglyPiRegular:
    def test_z8_two(self):
        R = freeze(make_zmod(8))
        assert is_strongly_pi_regular(R, 2)

    def test_units(self, z4):
        for u in members(z4.caches.is_unit):
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
        assert members(z6.caches.is_nilpotent) == {0}

    def test_m2z2_not_ni(self, m2z2):
        assert not is_NI(m2z2)

    def test_z4(self, z4):
        assert is_NI(z4)
        assert members(z4.caches.is_nilpotent) == {0, 2} == members(z4.caches.is_jacobson)


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


# The fields of RingCaches that freeze reads off the power scan and the
# sieves; power_indices and cycle_start are compared where the scan is.
CACHE_FIELDS = ("is_unit", "inverse", "is_idempotent", "is_nilpotent", "is_jacobson")


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
    is_nil, (add, _, _, mul) = R.caches.is_nilpotent, scalar_ops(R)
    nils = np.flatnonzero(is_nil).tolist()
    escapes = itertools.chain(
        (add(a, b) for a in nils for b in nils),
        (p for a in nils for r in R.elements() for p in (mul(r, a), mul(a, r))),
    )
    escape = next((s for s in escapes if not is_nil[s]), None)
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
        "radicals": {"jacobson": int(R.caches.is_jacobson.sum()), "nil": len(nils)},
    }


def _brute_force_sets(R):
    """(inverse map, idempotents, nilpotents, Jacobson radical) from the
    scalar ops."""
    n, one, (_, _, sub, mul) = R.order, R.one, scalar_ops(R)
    inverse = {}
    for u in range(n):
        v = next((v for v in range(n) if mul(u, v) == one and mul(v, u) == one), None)
        if v is not None:
            inverse[u] = v
    idempotents = {e for e in range(n) if mul(e, e) == e}
    nilpotents = {x for x in range(n) if is_nilpotent(R, x)}
    jacobson = {
        x for x in range(n) if all(sub(one, mul(y, x)) in inverse for y in range(n))
    }
    return inverse, idempotents, nilpotents, jacobson


@pytest.mark.parametrize("ring", ORACLE_RINGS)
def test_mask_engine_matches_scalar_deciders(ring):
    R = freeze(ring)
    assert R._mul_np is not None
    inverse, idempotents, nilpotents, jacobson = _brute_force_sets(R)
    assert inverse_map(R) == inverse
    assert members(R.caches.is_unit) == set(inverse)
    assert members(R.caches.is_idempotent) == idempotents
    assert members(R.caches.is_nilpotent) == nilpotents
    assert members(R.caches.is_jacobson) == jacobson
    # byte-identical JSON, key order included
    assert json.dumps(classify(R).to_json()) == json.dumps(_oracle_report(R))
    assert _left_ideal_masks(R)["left_morphic"].tolist() == left_morphic_reference(R)


@pytest.mark.parametrize("index", range(len(standard_corpus())),
                         ids=[R.label for R in standard_corpus()])
def test_scalar_path_matches_table_path(index, monkeypatch):
    R = freeze(standard_corpus()[index])
    monkeypatch.setattr(kernel, "TABLE_LIMIT", 0)
    S = freeze(standard_corpus()[index])
    assert R._mul_np is not None and S._mul_np is None
    for name in CACHE_FIELDS:
        assert np.array_equal(getattr(S.caches, name), getattr(R.caches, name)), name
    assert json.dumps(classify(S).to_json()) == json.dumps(classify(R).to_json())
    assert (_left_ideal_masks(S)["left_morphic"] == _left_ideal_masks(R)["left_morphic"]).all()


@pytest.mark.parametrize("expr", ["Triv(Z(24))", "U(2, Z(10))"])
def test_split_scalar_path_matches_table_path(expr, monkeypatch):
    # With TABLE_LIMIT = 0 freeze splits these rings (orders 576 and 1000)
    # into blocks without op tables, as it does a block above the limit;
    # their caches, classify report and ideal masks equal those of the ring
    # frozen undivided with op tables.
    R = kernel._freeze_undivided(elaborate(parse(expr)))
    monkeypatch.setattr(kernel, "TABLE_LIMIT", 0)
    S = freeze(elaborate(parse(expr)))
    assert R._mul_np is not None and R._blocks is None
    assert S._mul_np is None and [B._mul_np for _, B, _ in S._blocks] == [None, None]
    for name in CACHE_FIELDS:
        assert np.array_equal(getattr(S.caches, name), getattr(R.caches, name)), name
    assert json.dumps(classify(S).to_json()) == json.dumps(classify(R).to_json())
    masks, undivided = _left_ideal_masks(S), _left_ideal_masks(R)
    assert S._mul_np is None and list(masks) == list(undivided)
    for name, mask in masks.items():
        assert np.array_equal(mask, undivided[name]), name


def test_row_path_matches_table_path_above_limit(monkeypatch):
    # Triv(Z(33)) (order 1089) split by freeze, undivided on the row path,
    # and undivided on the table path: freeze splits it at every
    # TABLE_LIMIT, so the undivided rings are frozen by _freeze_undivided,
    # the last one with the limit raised.
    S = freeze(trivial_extension(make_zmod(33)))
    W = kernel._freeze_undivided(trivial_extension(make_zmod(33)))
    assert S.order > kernel.TABLE_LIMIT and S._mul_np is None and S._blocks is not None
    assert W._mul_np is None and W._blocks is None
    rows = [(json.dumps(classify(R).to_json()), _left_ideal_masks(R)["left_morphic"])
            for R in (S, W)]
    monkeypatch.setattr(kernel, "TABLE_LIMIT", 2048)
    T = kernel._freeze_undivided(trivial_extension(make_zmod(33)))
    assert T._mul_np is not None and T._blocks is None
    for R in (S, W):
        for name in CACHE_FIELDS:
            assert np.array_equal(getattr(R.caches, name), getattr(T.caches, name)), name
    table_path = json.dumps(classify(T).to_json())
    for report, left_morphic in rows:
        assert report == table_path
        assert (left_morphic == _left_ideal_masks(T)["left_morphic"]).all()


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


def test_classify_freezes_at_its_own_cap():
    # classify hands its cap to freeze: the prime field Z(5003) is above the
    # default cap of 4096 and below 8192, and is classified as every odd
    # prime field is, with the same flags and witnesses as Z(5).
    R = make_zmod(5003)
    assert kernel.CLASSIFY_CAP < R.order
    report, small = classify(R, cap=8192), classify(make_zmod(5))
    assert R.frozen and report.order == 5003
    assert report.flags == small.flags and report.witnesses == small.witnesses


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
    assert len(kernel._row_blocks(R, np.flatnonzero(R.caches.is_idempotent))) == 4
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


# Table-path rings whose long periods the power scan finds by baby and giant
# steps (orders above the scan's gate at about 200).
GIANT_STEPS = [
    pytest.param(make_zmod(251), id="Z(251)"),
    pytest.param(group_ring(make_zmod(3), cyclic(5)), id="GR(Z(3), C(5))"),
]


# Table-path rings at the edges of the power table (Z(1), the smallest,
# is in the standard corpus above): both sides of the giant-step gate
# (Z(196) fills its table to x^204, Z(197) stops at x^40 and takes giant
# steps); Z(205), whose periods 40 run past its table
# of 40 rows; Z(256), Z(509) and Z(1009), with periods up to 1008 found by
# giant steps and inverses x^(t-1) beyond the table; and two products of
# 2-power rings.
TABLE_EDGES = [pytest.param(make_zmod(n), id=f"Z({n})")
               for n in (196, 197, 205, 256, 509, 1009)] + [
    pytest.param(direct_product(make_zmod(2), make_zmod(8)), id="Z(2) x Z(8)"),
    pytest.param(direct_product(trivial_extension(make_zmod(4)), make_zmod(2)),
                 id="Triv(Z(4)) x Z(2)"),
]


@pytest.mark.parametrize("ring", ORACLE_RINGS + ABOVE_LIMIT + GIANT_STEPS + TABLE_EDGES)
def test_power_scan_matches_scalar_deciders(ring):
    # Below the limit test_mask_engine_matches_scalar_deciders also holds
    # the units and inverses read from the scan to brute force.  The cycle
    # start x^m is the power by scalar products, and it is 0 exactly at the
    # nilpotents.  On the table path (m, k), the cycle start and the
    # inverses also equal those of the scan without op tables (Brent's
    # scan, through the structure constants) on the same ring unfrozen.
    R = freeze(ring)
    if R._mul_np is not None:
        S = kernel.Ring(R.order, R.products, R.one, R.label, R.radices)
        is_unit, inverse, (m, k), powers = kernel._compute_units(S)
        _, start = kernel._compute_nilpotents(S, m, powers)
        assert S._mul_np is None and powers is None
        assert np.array_equal(m, R.caches.power_indices[0])
        assert np.array_equal(k, R.caches.power_indices[1])
        assert np.array_equal(start, R.caches.cycle_start)
        assert np.array_equal(is_unit, R.caches.is_unit)
        assert np.array_equal(inverse, R.caches.inverse)
    m, k = R.caches.power_indices
    assert list(zip(m.tolist(), k.tolist())) == [periodic_indices(R, x) for x in R.elements()]
    assert (m == 1).tolist() == [is_strongly_regular(R, x) for x in R.elements()]
    start = R.caches.cycle_start.tolist()
    assert start == [ring_pow(R, x, int(m[x])) for x in R.elements()]
    assert [y == 0 for y in start] == [is_nilpotent(R, x) for x in R.elements()]
    assert np.array_equal(R.caches.is_unit, R.caches.inverse >= 0)
    for u, v in inverse_map(R).items():
        assert ring_mul(R, u, v) == R.one == ring_mul(R, v, u)


@pytest.mark.parametrize("ring", ORACLE_RINGS + ABOVE_LIMIT)
def test_regularity_masks_match_scalar_deciders(ring):
    # At every element: regularity and strong regularity by their
    # definitions (left-ideal keys) and as classify reads them (the
    # unit-regular mask and m = 1), against x*y*x and x^2*R, R*x^2.  Every
    # mask classify reports is whole.
    R = freeze(ring)
    regular = [is_regular(R, x) for x in R.elements()]
    strongly_regular = [is_strongly_regular(R, x) for x in R.elements()]
    defined, masks = _left_ideal_masks(R), _element_masks(R)
    assert defined["regular"].tolist() == masks["regular"].tolist() == regular
    assert defined["left_group"].tolist() == masks["strongly_regular"].tolist() == strongly_regular
    assert {len(mask) for mask in classify(R).masks.values()} == {R.order}


@pytest.mark.parametrize("ring", [make_zmod(4), trivial_extension(make_zmod(33))],
                         ids=lambda R: R.label)
def test_classify_rejects_a_wrong_power_scan(ring):
    R = freeze(ring)
    m, k = R.caches.power_indices
    m = m.copy()
    m[0] = 2                                # 0 = 0^2 loses its group inverse
    R.caches.power_indices = (m, k)
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
    assert members(R.caches.is_jacobson) == jacobson_rows(R)
    assert _ni_witness(R) == ni_search(R)


# Every alternative of every slot of the benchmark's classify pools
# (perfbench/workloads.py), orders 256 to 1300.
POOL_RINGS = [
    "M(2, Z(4))", "M(2, Z(2) x Z(2))", "M(2, GR(Z(2), C(2)))",
    "GR(Z(4), C(4))", "GR(Z(2), C(8))", "GR(Z(2), D(4))", "GR(Z(2), Q8)",
    "Ks(Z(4), 2)", "Ks(Z(4), 0)", "Ks(Z(4), 1)", "Ks(Z(2) x Z(2), 0)",
    "FM(3, Z(2), 0)", "U(2, Z(10))", "U(2, Z(2) x Z(5))", "U(2, Z(5) x Z(2))",
    "Triv(Z(32))", "GR(Z(2), C(10))", "GR(Z(2), C(2) x C(5))",
    "GR(Z(3), S(3))", "GR(Z(2), C(9))", "GR(Z(3), C(2) x C(3))",
    "Ks(Z(5), 1)", "Ks(Z(5), 2)", "Ks(Z(5), 3)", "Ks(Z(5), 4)",
    "Triv(Z(33))", "Triv(Z(34))", "Z(5) x Triv(Z(15))",
]


def _assert_orbit_keys_match_closure(rings):
    # The unit-multiple masks read from left-orbit keys, on every ring (or
    # p-primary block) with op tables, against the generator closure on the
    # same ring with its tables removed; rings without tables run the
    # closure on both sides and are not counted.
    checked = 0
    for R in rings:
        for keyed, closed in _oracles.orbit_key_pairs(freeze(R)):
            assert np.array_equal(keyed, closed), R.label
            checked += 1
    return checked


def test_orbit_keys_match_closure_on_the_corpus():
    assert _assert_orbit_keys_match_closure(standard_corpus()) == len(standard_corpus())


def test_orbit_keys_match_closure_on_the_classify_pools():
    # Six rings split in two: Triv(Z(33)), Triv(Z(34)) and
    # Z(5) x Triv(Z(15)) above TABLE_LIMIT, and the three U(2, .) of order
    # 1000 above the split's gate (order 512).  Those three are checked
    # undivided too, with the op tables of _freeze_undivided.
    rings = [elaborate(parse(expr)) for expr in POOL_RINGS]
    assert _assert_orbit_keys_match_closure(rings) == len(rings) + 6
    undivided = [kernel._freeze_undivided(elaborate(parse(expr))) for expr in POOL_RINGS
                 if expr.startswith("U(2, ")]
    assert _assert_orbit_keys_match_closure(undivided) == len(undivided) == 3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_orbit_keys_match_closure_on_falsifier_instances(seed):
    rng, rings = random.Random(seed), []
    for _ in range(100):
        try:
            R = harness._random_instance(rng, 256)
        except CapExceededError:
            continue
        if R.order <= 256:
            rings.append(R)
    assert _assert_orbit_keys_match_closure(rings) == len(rings) > 80


def test_unit_closure_of_gl_2_3_takes_more_than_one_pass():
    # GL(2, 3), the 48 units of M(2, Z(3)), is not abelian.  Its first two
    # greedy generators g, h (each of order at most 8) generate it, but one
    # pass along g and then h from {1} reaches only the 16 products h^j g^i.
    R = freeze(matrix_ring(make_zmod(3), 2))
    units = members(R.caches.is_unit)
    g = min(units - {R.one})
    h = min(units - {ring_pow(R, g, j) for j in range(8)})
    generators = [(kernel._mul_many(R, x, np.arange(R.order)), 3) for x in (g, h)]
    one = np.arange(R.order) == R.one
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
    assert (R.caches.is_jacobson.sum(), R.caches.is_nilpotent.sum()) == (jacobson, nil)


def test_ni_fails_at_a_sum():
    # e12 + e21 in M(2, Z(2)) is not nilpotent: test (a) fails.
    R = freeze(matrix_ring(make_zmod(2), 2))
    assert not deciders._nil_is_ideal(R, R.caches.is_nilpotent)
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
    R.caches.is_nilpotent = np.isin(np.arange(R.order), [0, e12])
    assert ring_add(R, e12, e12) == 0
    assert not deciders._nil_is_ideal(R, R.caches.is_nilpotent)
    witness = _ni_witness(R)
    assert witness not in (None, 0, e12) and witness == ni_search(R)
