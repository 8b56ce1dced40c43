"""Rings frozen as their p-primary blocks, against the same rings undivided."""

import json
from collections import Counter

import numpy as np
import pytest

from finring import blocks, classify, deciders, freeze, kernel
from finring.cli import elaborate, parse

import _oracles

FIELDS = ("is_unit", "inverse", "is_idempotent", "is_nilpotent", "is_jacobson", "power_indices",
          "cycle_start")


# (expression, the orders of its blocks, whether freeze splits it, cap).
# freeze splits every ring of order above 512 whose order has two prime
# factors or more; the others are split here
# through blocks._freeze_split.
# M(2, Z(6)) is not NI, so the ordered NI search runs on R; Z(12) x Z(10)
# has radices that are not prime powers, so its blocks have places of
# radix 1; M(2, Z(12)) is past the cap.
SPLIT_RINGS = [
    ("Triv(Z(33))", [9, 121], True, kernel.CLASSIFY_CAP),
    ("Triv(Z(34))", [4, 289], True, kernel.CLASSIFY_CAP),
    ("Z(5) x Triv(Z(15))", [9, 125], True, kernel.CLASSIFY_CAP),
    ("M(2, Z(6))", [16, 81], True, kernel.CLASSIFY_CAP),
    ("GR(Z(6), C(4))", [16, 81], True, kernel.CLASSIFY_CAP),
    ("Z(2) x Z(3) x Z(5) x Z(7)", [2, 3, 5, 7], False, kernel.CLASSIFY_CAP),
    ("U(2, Z(10))", [8, 125], True, kernel.CLASSIFY_CAP),
    ("Z(12) x Z(10)", [8, 3, 5], False, kernel.CLASSIFY_CAP),
    ("M(2, Z(12))", [256, 81], True, 20736),
]


@pytest.mark.parametrize("expr, orders, by_default, cap", SPLIT_RINGS,
                         ids=[row[0] for row in SPLIT_RINGS])
def test_split_matches_undivided(expr, orders, by_default, cap):
    # Every cache, every element mask, the NI witness and the classify
    # report of R frozen as its blocks equal those of R frozen undivided.
    split, whole = (elaborate(parse(expr), cap=cap) for _ in range(2))
    if by_default:
        freeze(split, cap)
    else:
        blocks._freeze_split(split, blocks._primary_blocks(split), cap)
    kernel._freeze_undivided(whole)
    assert [B.order for _, B, _ in split._blocks] == orders and whole._blocks is None
    for name in FIELDS:
        assert np.array_equal(getattr(split.caches, name), getattr(whole.caches, name)), name
    masks, reference = deciders._element_masks(split), deciders._element_masks(whole)
    assert list(masks) == list(reference)
    for name, mask in masks.items():
        assert np.array_equal(mask, reference[name]), name
    assert deciders._ni_witness(split) == deciders._ni_witness(whole)
    assert (json.dumps(classify(split, cap).to_json())
            == json.dumps(classify(whole, cap).to_json()))


@pytest.mark.parametrize("expr, orders, by_default, cap", SPLIT_RINGS,
                         ids=[row[0] for row in SPLIT_RINGS])
def test_block_orbit_keys_match_closure(expr, orders, by_default, cap):
    # Every block has op tables, and its unit-multiple masks read from
    # left-orbit keys equal the generator closure on the block with its
    # tables removed.
    R = elaborate(parse(expr), cap=cap)
    blocks._freeze_split(R, blocks._primary_blocks(R), cap)
    pairs = _oracles.orbit_key_pairs(R)
    assert len(pairs) == len(orders)
    for keyed, closed in pairs:
        assert np.array_equal(keyed, closed)


def test_blocks_are_the_primary_parts():
    # The 2-part of Z(12) x Z(10), on radices (10, 12), has the radices
    # (2, 4), so its generators are 1 and 2, and its one has the digits
    # (1, 1); phi_p reads the p-part of the digits of x.
    R = elaborate(parse("Z(12) x Z(10)"))
    two, three, five = blocks._primary_blocks(R)
    assert [(p, B.radices, B.one) for p, B, _ in (two, three, five)] == [
        (2, (2, 4), 3), (3, (1, 3), 1), (5, (5, 1), 1)]
    x = R.encode((7, 9))                      # digits (9, 7)
    assert [int(phi[x]) for _, _, phi in (two, three, five)] == [1 + 2 * 3, 1, 4]


@pytest.mark.parametrize("expr, frozen, classified", [
    ("Triv(Z(33))", {"3": 8, "11": 11, "R": 5}, {"3": 10, "11": 18, "R": 5}),
    ("Z(5) x Triv(Z(15))", {"3": 8, "5": 9, "R": 5}, {"3": 10, "5": 14, "R": 5}),
], ids=["Triv(Z(33))", "Z(5) x Triv(Z(15))"])
def test_split_rings_read_few_products(expr, frozen, classified, monkeypatch):
    # The _mul_many calls of freeze and classify, by ring: the blocks read
    # their op tables.  A block's power scan is its power table, filled in
    # one doubling lookup per power of 2 up to the last power it needs: 4
    # on the block of order 9, 7 and 5 on those of order 121 and 125, where
    # Brent's scan took one lookup per step (27, 139 and 47 calls in all in
    # freeze); then two products check the units' inverses, one finds the
    # idempotents and one tests the Jacobson radical.  R itself takes two
    # products to check the units' inverses and three for x^m (m <= 2:
    # two bits, one squaring between them), and in classify one for Diesl's
    # check and two for each least False re-verified.  In classify each
    # block's periodic mask recomputes x^k by _powers, and each block reads
    # its units' rows u*R for the left-orbit keys of the unit-multiple
    # masks in one row block, where the generator closure took one row per
    # greedy generator of the unit group: two on the blocks of order 9 and
    # 121, three on that of order 125.
    # The undivided ring takes 35 and 38 calls in classify alone
    # (test_ring_level_sets_read_few_products_above_limit).
    calls = Counter()
    mul_many = kernel._mul_many

    def counted(R, *args):
        calls[str(R.meta.get("prime", "R"))] += 1
        return mul_many(R, *args)

    for module in (kernel, blocks, deciders):
        monkeypatch.setattr(module, "_mul_many", counted)
    R = freeze(elaborate(parse(expr)))
    assert calls == frozen
    calls.clear()
    classify(R)
    assert calls == classified


# Orders on both sides of the split's gate, order > 512: (expression,
# whether freeze splits it).
GATE_RINGS = [
    ("Z(210)", False),
    ("Triv(Z(21))", False),                   # order 441
    ("GR(Z(3), S(3))", False),                # order 729 = 3^6, a prime power
    ("Z(3) x GR(Z(2), C(8))", True),          # order 768
    ("U(2, Z(10))", True),                    # order 1000
]


@pytest.mark.parametrize("expr, split", GATE_RINGS, ids=[row[0] for row in GATE_RINGS])
def test_split_gate_is_order_512(expr, split):
    # freeze splits a ring of order above 512 whose order has two prime
    # factors or more, and has it read no op tables of its own; any other
    # ring up to TABLE_LIMIT gets them.  Either way the caches and the
    # classify report equal those of the ring frozen undivided, which has
    # op tables.
    R, whole = (elaborate(parse(expr)) for _ in range(2))
    freeze(R)
    kernel._freeze_undivided(whole)
    assert (R._blocks is not None, R._mul_np is None) == (split, split)
    assert whole._blocks is None and whole._mul_np is not None
    for name in FIELDS:
        assert np.array_equal(getattr(R.caches, name), getattr(whole.caches, name)), name
    assert json.dumps(classify(R).to_json()) == json.dumps(classify(whole).to_json())


@pytest.mark.parametrize("expr", ["Triv(Z(24))", "U(2, Z(10))"])
def test_left_ideal_masks_build_the_split_rings_own_tables(expr):
    # A ring split at order <= TABLE_LIMIT has no op tables after freeze.
    # _left_ideal_masks reads n^2 products, so it builds R's own tables from
    # R.products, the tables of the ring frozen undivided, and reads none of
    # its blocks'.  Its left-morphic mask equals the column-pass oracle,
    # read first, on the term sum, and all three masks equal those of the
    # undivided ring.
    R, whole = (elaborate(parse(expr)) for _ in range(2))
    freeze(R)
    kernel._freeze_undivided(whole)
    assert R._blocks is not None and R._mul_np is None
    reference = _oracles.left_morphic_reference(R)
    masks = deciders._left_ideal_masks(R)
    assert np.array_equal(R._mul_np, whole._mul_np)
    assert masks["left_morphic"].tolist() == reference
    undivided = deciders._left_ideal_masks(whole)
    assert list(masks) == list(undivided)
    for name, mask in masks.items():
        assert np.array_equal(mask, undivided[name]), name
