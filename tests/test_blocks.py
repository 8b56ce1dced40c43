"""Rings frozen as their p-primary blocks, against the same rings undivided."""

import json
from collections import Counter

import numpy as np
import pytest

from finring import blocks, classify, deciders, freeze, kernel
from finring.cli import elaborate, parse

FIELDS = ("units", "unit_inverse", "idempotents", "nilpotents", "jacobson", "power_indices",
          "cycle_start")


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


# (expression, the orders of its blocks, whether freeze splits it, cap).
# freeze splits every ring above TABLE_LIMIT whose order has two prime
# factors or more; the others are split here through blocks._freeze_split.
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
    ("U(2, Z(10))", [8, 125], False, kernel.CLASSIFY_CAP),
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
        assert _same(getattr(split.caches, name), getattr(whole.caches, name)), name
    masks, reference = deciders._element_masks(split), deciders._element_masks(whole)
    assert list(masks) == list(reference)
    for name, mask in masks.items():
        assert np.array_equal(mask, reference[name]), name
    assert deciders._ni_witness(split) == deciders._ni_witness(whole)
    assert (json.dumps(classify(split, cap).to_json())
            == json.dumps(classify(whole, cap).to_json()))


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
    ("Triv(Z(33))", {"3": 27, "11": 139, "R": 6}, {"3": 12, "11": 20, "R": 5}),
    ("Z(5) x Triv(Z(15))", {"3": 27, "5": 47, "R": 6}, {"3": 12, "5": 17, "R": 5}),
], ids=["Triv(Z(33))", "Z(5) x Triv(Z(15))"])
def test_split_rings_read_few_products(expr, frozen, classified, monkeypatch):
    # The _mul_many calls of freeze and classify, by ring: the blocks read
    # their op tables, and R itself takes two products to check the units'
    # inverses, four for x^m (m <= 2) and, in classify, one for Diesl's
    # check and two for each least False re-verified.  The undivided ring
    # takes 36 and 39 calls in classify alone
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
