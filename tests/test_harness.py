"""Theorem suites and the randomized falsifier."""

import json
import random

import numpy as np
import pytest

from finring import (SearchConfig, cyclic, deciders, falsify, fastpath, freeze, group_ring,
                     harness, kernel, make_zmod, standard_corpus, trivial_extension,
                     upper_triangular)
from finring.cli import main
from finring.harness import (
    suite_connell,
    suite_group_ring_sunc,
    suite_lemma_4_4,
    suite_matrix_sunc,
    suite_morita,
    suite_periodic,
    suite_theorem_4_5,
)


def test_lemma_4_4_small():
    report = suite_lemma_4_4(30)
    assert report.attempted == 30 and report.ok


def test_theorem_4_5_subset():
    cases = [(2, cyclic(3)), (2, cyclic(2))]
    report = suite_theorem_4_5(cases)
    assert report.attempted == 2 and report.ok


def test_theorem_4_5_cap_skip():
    report = suite_theorem_4_5([(2, cyclic(3))], cap=4)
    assert report.attempted == 0
    assert len(report.skipped) == 1


@pytest.mark.parametrize("suite, cases, skipped", [
    (suite_theorem_4_5, [(2, cyclic(3))], "GR(Z(2), C(3)): GR(Z(2), C(3)) has order 8 > cap 4"),
    (suite_connell, [(2, cyclic(3))], "GR(Z(2), C(3)): GR(Z(2), C(3)) has order 8 > cap 4"),
    (suite_matrix_sunc, [make_zmod(2)], "M(2, Z(2)): M(2, Z(2)) has order 16 > cap 4"),
    (suite_morita, [("U(2, Z(2))", upper_triangular(make_zmod(2), 2))],
     "U(2, Z(2)): freezing U(2, Z(2)) (order 8) exceeds cap 4"),
    (suite_group_ring_sunc, [(make_zmod(2), cyclic(3))],
     "GR(Z(2), C(3)): GR(Z(2), C(3)) has order 8 > cap 4"),
    (suite_periodic, [(make_zmod(2), cyclic(3))],
     "GR(Z(2), C(3)): GR(Z(2), C(3)) has order 8 > cap 4"),
], ids=["theorem-4-5", "connell", "matrix-sunc", "morita", "group-ring-sunc", "periodic"])
def test_suites_skip_cases_over_the_cap(suite, cases, skipped):
    report = suite(cases, cap=4)
    assert report.attempted == 0
    assert report.skipped == [skipped]


def test_lemma_4_4_records_the_least_failing_element(monkeypatch):
    zn_unit_regular = fastpath.zn_unit_regular
    monkeypatch.setattr(fastpath, "zn_unit_regular", lambda n: n == 4 or zn_unit_regular(n))
    report = suite_lemma_4_4(4)
    assert (report.attempted, report.passed) == (4, 3)
    assert report.failures == [{"case": "Z(4)", "expected": True, "got": False, "witness": "2"}]


def test_connell_records_the_least_failing_element(monkeypatch):
    monkeypatch.setattr(fastpath, "connell_regular_zn", lambda n, G: True)
    report = suite_connell([(2, cyclic(2))])
    # 1 + g is nilpotent in F2[C2]; the regular<=>unit-regular check still passes
    assert (report.attempted, report.passed) == (2, 1)
    assert report.failures == [{"case": "GR(Z(2), C(2))", "expected": True, "got": False,
                                "witness": "1*g0 + 1*g1"}]


def test_connell_subset():
    cases = [(2, cyclic(3)), (2, cyclic(2))]
    report = suite_connell(cases)
    # each case contributes the fast-vs-brute check and the
    # regular<=>unit-regular coincidence check
    assert report.attempted == 4 and report.ok


def test_matrix_sunc():
    report = suite_matrix_sunc([make_zmod(2)])
    assert report.attempted == 1 and report.ok


def test_morita_default():
    report = suite_morita()
    assert report.ok and report.attempted == 7


def test_group_ring_sunc_subset():
    report = suite_group_ring_sunc([(make_zmod(2), cyclic(3))])
    assert report.ok


def test_periodic_subset():
    report = suite_periodic([(make_zmod(4), cyclic(2))])
    assert report.ok


def test_periodic_catches_wrong_pair(monkeypatch):
    # A power scan that gives (m, k) = (1, 2) for every element: x = x^2
    # fails at 2, the least element of Z(4)[C2] that is not idempotent.
    monkeypatch.setattr(kernel, "_power_scan", lambda R: (
        np.ones(R.order, dtype=np.int64), np.full(R.order, 2, dtype=np.int64)))
    report = suite_periodic([(make_zmod(4), cyclic(2))])
    assert not report.ok and report.failures[0]["got"] == "aperiodic"
    assert report.failures[0]["witness"] == "2*g0"


def test_standard_corpus_shape():
    corpus = standard_corpus()
    labels = [R.label for R in corpus]
    assert len(labels) == len(set(labels))
    assert all(R.order <= 1296 for R in corpus)
    assert "M(2, Z(2))" in labels and "GR(Z(2), S(3))" in labels


def test_falsify_clean_and_deterministic():
    config = SearchConfig(seed=7, count=15)
    first = falsify(config)
    second = falsify(config)
    assert first.ok
    assert json.dumps(first.to_json(include_timing=False), sort_keys=True) == json.dumps(
        second.to_json(include_timing=False), sort_keys=True
    )


def test_falsify_seed_changes_sequence():
    a = falsify(SearchConfig(seed=1, count=10))
    b = falsify(SearchConfig(seed=2, count=10))
    assert a.attempted == b.attempted == 10
    assert a.ok and b.ok


def test_falsify_failure_replays_from_seed_and_index(monkeypatch, capsys):
    rng = random.Random(0)
    labels = [harness._random_instance(rng, 256).label for _ in range(8)]
    assert labels[3] not in labels[:3] + labels[4:]

    def check(R, failures):      # fails at instance 3 only
        if R.label == labels[3]:
            failures.append({"case": R.label, "expected": "planted", "got": "failure",
                             "witness": None})

    monkeypatch.setattr(harness, "_check_instance", check)
    report = falsify(SearchConfig(seed=0, count=8))
    assert (report.attempted, report.passed) == (8, 7)
    [failure] = report.failures
    assert (failure["case"], failure["seed"], failure["index"]) == (labels[3], 0, 3)
    replay = falsify(SearchConfig(seed=0, only=3))
    assert (replay.attempted, replay.failures) == (1, [failure])
    assert main(["search", "--seed", "0", "--only", "3", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert (payload["attempted"], payload["failures"]) == (1, [failure])
    assert main(["search", "--seed", "0", "--count", "8"]) == 1
    assert "replay: finring search --seed 0 --cap 256 --only 3" in capsys.readouterr().out
    # Every other index replays a passing instance.
    assert falsify(SearchConfig(seed=0, only=5)).to_json(False) == {
        "suite": "falsify", "kind": "discriminating", "attempted": 1, "passed": 1,
        "failures": [], "skipped": []}


def test_falsify_records_classify_cross_check_failure(monkeypatch, capsys):
    rng = random.Random(0)
    labels = [harness._random_instance(rng, 256).label for _ in range(8)]
    scan = kernel._power_scan

    def wrong_scan(R):       # at instance 3 only, 0 = 0^2 loses its group inverse
        m, k = scan(R)
        if R.label == labels[3]:
            m[0] = 2
        return m, k

    monkeypatch.setattr(kernel, "_power_scan", wrong_scan)
    report = falsify(SearchConfig(seed=0, count=8))
    assert (report.attempted, report.passed) == (8, 7)
    [failure] = report.failures
    assert (failure["case"], failure["expected"], failure["seed"], failure["index"]) == (
        labels[3], "classify cross-checks", 0, 3)
    assert failure["got"] == f"{labels[3]}: strong regularity and its power index m = 1 " \
                             "disagree at 0"
    assert main(["search", "--seed", "0", "--only", "3", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert (payload["attempted"], payload["failures"]) == (1, [failure])


def _flip_last_unit(monkeypatch, label):
    """Make the left-morphic mask of the ring called label false at its last
    unit, which is unit-regular; return that unit."""
    morphic = deciders._left_morphic_mask
    flipped = []

    def wrong_mask(R):
        mask = morphic(R)
        if R.label == label:
            flipped.append(int(R.caches.unit_array[-1]))
            mask[flipped[-1]] = False
        return mask

    monkeypatch.setattr(deciders, "_left_morphic_mask", wrong_mask)
    return flipped


def test_falsify_records_ehrlich_mismatch(monkeypatch, capsys):
    rng = random.Random(0)
    instances = [harness._random_instance(rng, 256) for _ in range(8)]
    R = instances[3]
    assert R.label not in [S.label for S in instances[:3] + instances[4:]]
    flipped = _flip_last_unit(monkeypatch, R.label)
    report = falsify(SearchConfig(seed=0, count=8))
    assert (report.attempted, report.passed) == (8, 7)
    [failure] = report.failures
    assert failure == {
        "case": R.label, "expected": "Ehrlich equivalence",
        "got": {"unit_regular": True, "regular&morphic": False},
        "witness": R.format_element(flipped[0]), "seed": 0, "index": 3}
    assert main(["search", "--seed", "0", "--only", "3", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert (payload["attempted"], payload["failures"]) == (1, [failure])


@pytest.mark.parametrize("n, table_limit", [(24, None), (6, 0)])
def test_ehrlich_check_reads_every_element(n, table_limit, monkeypatch):
    # Triv(Z(24)) has op tables and order 576 > 512, Triv(Z(6)) has none.
    # In both the regular mask of _element_masks stops after the row block
    # of the first non-regular element, before the flipped unit.
    if table_limit is not None:
        monkeypatch.setattr(kernel, "TABLE_LIMIT", table_limit)
    R = freeze(trivial_extension(make_zmod(n)))
    assert (R._mul_np is None) == (table_limit is not None)
    flipped = _flip_last_unit(monkeypatch, R.label)
    failures = []
    harness._check_instance(R, failures)
    assert failures == [{"case": R.label, "expected": "Ehrlich equivalence",
                         "got": {"unit_regular": True, "regular&morphic": False},
                         "witness": R.format_element(flipped[0])}]
    assert len(deciders._element_masks(R)["regular"]) < flipped[0]


def test_falsifier_records_the_least_element_of_an_implication(monkeypatch):
    # The strongly unit nil-clean mask of Z(3) made false at its last unit 2,
    # which is unit-regular and not strongly nil-clean: the element-level
    # check of unit_regular => strongly_unit_nil_clean names 2, and so does
    # the ring-level universality check.
    element_masks = deciders._element_masks

    def wrong_masks(R):
        masks = element_masks(R)
        masks["strongly_unit_nil_clean"][2] = False
        return masks

    monkeypatch.setattr(deciders, "_element_masks", wrong_masks)
    R = make_zmod(3)
    failures = []
    harness._check_instance(R, failures)
    witness = {"index": 2, "element": "2"}
    assert failures == [
        {"case": "Z(3)", "expected": "unit_regular => strongly_unit_nil_clean",
         "got": "violated", "witness": witness},
        {"case": "Z(3)", "expected": "strongly_unit_nil_clean universal", "got": False,
         "witness": witness}]


@pytest.mark.parametrize("patched, R, witness, sources", [
    ("zn_unit_regular", make_zmod(4), {"index": 2, "element": "2"}, ["Lemma 4.4"]),
    ("zng_unit_regular", group_ring(make_zmod(2), cyclic(2)),
     {"index": 3, "element": "1*g0 + 1*g1"}, ["Theorem 4.5"]),
    ("connell_regular_zn", group_ring(make_zmod(2), cyclic(2)),
     {"index": 3, "element": "1*g0 + 1*g1"}, ["Connell"]),
])
def test_falsifier_records_each_closed_form_disagreement(patched, R, witness, sources,
                                                         monkeypatch):
    form = getattr(fastpath, patched)
    monkeypatch.setattr(fastpath, patched, lambda *args: not form(*args))
    failures = []
    harness._check_instance(R, failures)
    assert failures == [{"case": R.label, "expected": f"{source} fast path",
                         "got": {"fast": True, "brute": False}, "witness": witness}
                        for source in sources]


def test_falsifier_records_a_failed_check_once(monkeypatch):
    classify = deciders.classify

    def forced(R, *args, **kwargs):
        report = classify(R, *args, **kwargs)
        report.flags["strongly_unit_nil_clean"] = False
        return report

    monkeypatch.setattr(deciders, "classify", forced)
    R = group_ring(make_zmod(3), cyclic(2))
    failures = []
    harness._check_instance(R, failures)
    assert failures == [{"case": R.label, "expected": "strongly_unit_nil_clean universal",
                         "got": False, "witness": None}]
