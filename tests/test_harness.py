"""Theorem suites and the randomized falsifier."""

import json
import random

from finring import (SearchConfig, cyclic, deciders, falsify, harness, kernel, make_zmod,
                     standard_corpus)
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
    monkeypatch.setattr(deciders, "periodic_indices", lambda R, x: (1, 2))
    report = suite_periodic([(make_zmod(4), cyclic(2))])
    assert not report.ok and report.failures[0]["got"] == "aperiodic"


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
