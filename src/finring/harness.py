"""Executable theorem suites: fast paths vs constructions vs brute force.

The discriminating suites each compare one closed form of `fastpath` with
the brute-force flag; the falsifier cross-checks every Z_n and Z_nG
instance against the list `fastpath.closed_forms`, the one place that says
which form decides which flag.  A suite case whose ring exceeds the cap is
recorded as skipped through `_frozen`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import deciders, fastpath
from .constructions import (
    generalized_matrix,
    group_ring,
    matrix_ring,
    trivial_extension,
    upper_triangular,
)
from .errors import CapExceededError, RingAxiomError
from .groups import cyclic, group_product, symmetric
from .kernel import Ring, _row_blocks, direct_product, freeze, make_zmod, verify_ring_axioms

DEFAULT_RING_CAP = 1296


@dataclass
class SuiteReport:
    """Outcome of one parameterized suite run."""

    suite: str
    kind: str                      # "discriminating" | "consistency"
    attempted: int = 0
    passed: int = 0
    failures: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    wall_time: float = 0.0

    def record(self, case: str, ok: bool, expected=None, got=None, witness=None):
        self.attempted += 1
        if ok:
            self.passed += 1
        else:
            self.failures.append(
                {"case": case, "expected": expected, "got": got, "witness": witness}
            )

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self, include_timing: bool = True) -> dict:
        out = {
            "suite": self.suite,
            "kind": self.kind,
            "attempted": self.attempted,
            "passed": self.passed,
            "failures": sorted(self.failures, key=lambda f: str(f["case"])),
            "skipped": sorted(self.skipped),
        }
        if include_timing:
            out["wall_time"] = self.wall_time
        return out


def _timed(fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        report = fn(*args, **kwargs)
        report.wall_time = time.perf_counter() - start
        return report

    return wrapper


# -- verdicts from classify -------------------------------------------------


def _verdict(report: deciders.PropertyReport, name: str) -> tuple[bool, Optional[str]]:
    """A classify flag and its least failing element, formatted (None when
    the flag holds)."""
    witness = report.witnesses.get(name)
    return report.flags[name], None if witness is None else witness["element"]


# -- default case lists ----------------------------------------------------


def _std_groups():
    return {
        "C2": cyclic(2),
        "C3": cyclic(3),
        "C4": cyclic(4),
        "C5": cyclic(5),
        "S3": symmetric(3),
    }


def theorem_4_5_cases():
    g = _std_groups()
    return [
        (2, g["C3"]), (3, g["C2"]), (5, g["C2"]),
        (2, g["C2"]), (3, g["C3"]), (4, g["C3"]), (6, g["C2"]),
    ]


def connell_cases():
    return theorem_4_5_cases() + [(3, _std_groups()["S3"])]


# -- suites ----------------------------------------------------------------


def _frozen(report: SuiteReport, case: str, build, cap: int) -> Optional[Ring]:
    """The ring build() returns, frozen under cap; None, with the case
    recorded as skipped, when building or freezing exceeds the cap."""
    try:
        return freeze(build(), cap=cap)
    except CapExceededError as exc:
        report.skipped.append(f"{case}: {exc}")
        return None


@_timed
def suite_lemma_4_4(n_max: int = 60) -> SuiteReport:
    """Brute-force unit-regularity of Z_n vs the squarefree test."""
    if n_max > 256:
        raise ValueError("n_max must be <= 256")
    report = SuiteReport("lemma-4-4", "discriminating")
    for n in range(1, n_max + 1):
        brute, witness = _verdict(deciders.classify(make_zmod(n)), "unit_regular")
        fast = fastpath.zn_unit_regular(n)
        report.record(f"Z({n})", brute == fast, expected=fast, got=brute, witness=witness)
    return report


@_timed
def suite_theorem_4_5(cases=None, cap: int = DEFAULT_RING_CAP) -> SuiteReport:
    """Brute-force unit-regularity of Z_nG vs the coprimality fast path."""
    report = SuiteReport("theorem-4-5", "discriminating")
    for n, G in cases or theorem_4_5_cases():
        case = f"GR(Z({n}), {G.label})"
        R = _frozen(report, case, lambda: group_ring(make_zmod(n), G, cap=cap), cap)
        if R is None:
            continue
        brute, witness = _verdict(deciders.classify(R), "unit_regular")
        fast = fastpath.zng_unit_regular(n, G)
        report.record(case, brute == fast, expected=fast, got=brute, witness=witness)
    return report


@_timed
def suite_connell(cases=None, cap: int = DEFAULT_RING_CAP) -> SuiteReport:
    """Brute-force regularity of Z_nG vs the closed form; also checks that
    regularity and unit-regularity coincide over Z_n bases."""
    report = SuiteReport("connell", "discriminating")
    for n, G in cases or connell_cases():
        case = f"GR(Z({n}), {G.label})"
        R = _frozen(report, case, lambda: group_ring(make_zmod(n), G, cap=cap), cap)
        if R is None:
            continue
        classified = deciders.classify(R)
        brute, witness = _verdict(classified, "regular")
        fast = fastpath.connell_regular_zn(n, G)
        report.record(case, brute == fast, expected=fast, got=brute, witness=witness)
        brute_ur, _ = _verdict(classified, "unit_regular")
        report.record(
            f"{case} regular<=>unit-regular", brute == brute_ur,
            expected=brute, got=brute_ur,
        )
    return report


@_timed
def suite_matrix_sunc(bases=None, k: int = 2, cap: int = DEFAULT_RING_CAP) -> SuiteReport:
    """Strong unit nil-cleanness transfers between an NI base and M_k(base)."""
    report = SuiteReport("matrix-sunc", "consistency")
    if bases is None:
        bases = [make_zmod(1), make_zmod(2), make_zmod(4)]
    for base in bases:
        case = f"M({k}, {base.label})"
        freeze(base)
        if not deciders.is_NI(base):
            report.skipped.append(f"{case}: base not NI")
            continue
        M = _frozen(report, case, lambda: matrix_ring(base, k, cap=cap), cap)
        if M is None:
            continue
        base_flag = deciders.classify(base).flags["strongly_unit_nil_clean"]
        mat_flag = deciders.classify(M).flags["strongly_unit_nil_clean"]
        report.record(case, base_flag == mat_flag, expected=base_flag, got=mat_flag)
    return report


def _morita_cases():
    z2, z3, z4, z6 = (make_zmod(m) for m in (2, 3, 4, 6))
    return [
        ("Ks(Z(4), 2)", generalized_matrix(z4, 2)),
        ("Ks(Z(2), 0)", generalized_matrix(z2, 0)),
        ("U(2, Z(2))", upper_triangular(z2, 2)),
        ("U(3, Z(2))", upper_triangular(z2, 3)),
        ("U(2, Z(6))", upper_triangular(z6, 2)),
        ("Triv(Z(3))", trivial_extension(z3)),
        ("Triv(Z(6))", trivial_extension(z6)),
    ]


@_timed
def suite_morita(cases=None, cap: int = DEFAULT_RING_CAP) -> SuiteReport:
    """Strong unit nil-cleanness of K_s / triangular / trivial-extension rings
    matches the base ring's flag."""
    report = SuiteReport("morita", "consistency")
    for case, R in cases or _morita_cases():
        if _frozen(report, case, lambda: R, cap) is None:
            continue
        base = R.meta["base"]
        freeze(base)
        base_flag = deciders.classify(base).flags["strongly_unit_nil_clean"]
        flag = deciders.classify(R).flags["strongly_unit_nil_clean"]
        report.record(case, flag == base_flag and flag, expected=base_flag, got=flag)
    return report


def _group_ring_sunc_cases():
    g = _std_groups()
    return [
        (make_zmod(4), g["C2"]),
        (make_zmod(2), g["S3"]),
        (make_zmod(2), g["C3"]),
        (make_zmod(4), g["C4"]),
    ]


@_timed
def suite_group_ring_sunc(cases=None, cap: int = DEFAULT_RING_CAP) -> SuiteReport:
    """Group rings over finite (hence perfect) bases are strongly unit
    nil-clean; the homomorphic-image direction back to the base is asserted."""
    report = SuiteReport("group-ring-sunc", "consistency")
    for base, G in cases or _group_ring_sunc_cases():
        case = f"GR({base.label}, {G.label})"
        RG = _frozen(report, case, lambda: group_ring(base, G, cap=cap), cap)
        if RG is None:
            continue
        flag = deciders.classify(RG).flags["strongly_unit_nil_clean"]
        report.record(case, flag, expected=True, got=flag)
        freeze(base)
        base_flag = deciders.classify(base).flags["strongly_unit_nil_clean"]
        report.record(
            f"{case} -> base", (not flag) or base_flag, expected=True, got=base_flag
        )
    return report


@_timed
def suite_periodic(cases=None, cap: int = DEFAULT_RING_CAP) -> SuiteReport:
    """Every element of every finite group ring is periodic: x^m = x^k for
    the least pair (m, k) of the power scan in `freeze`, with both powers
    recomputed independently of it (`deciders._periodic_mask`).  The witness
    is the least element that is not."""
    report = SuiteReport("periodic", "consistency")
    if cases is None:
        g = _std_groups()
        cases = [(make_zmod(2), g["S3"]), (make_zmod(4), g["C2"])]
    for base, G in cases:
        case = f"GR({base.label}, {G.label})"
        RG = _frozen(report, case, lambda: group_ring(base, G, cap=cap), cap)
        if RG is None:
            continue
        periodic = deciders._periodic_mask(RG, *RG.caches.power_indices)
        bad = None if periodic.all() else int(periodic.argmin())
        report.record(
            case, bad is None,
            expected="all periodic", got="ok" if bad is None else "aperiodic",
            witness=None if bad is None else RG.format_element(bad),
        )
    return report


ALL_SUITES = {
    "lemma-4-4": suite_lemma_4_4,
    "theorem-4-5": suite_theorem_4_5,
    "connell": suite_connell,
    "matrix-sunc": suite_matrix_sunc,
    "morita": suite_morita,
    "group-ring-sunc": suite_group_ring_sunc,
    "periodic": suite_periodic,
}


# -- the standard desk-scale corpus ----------------------------------------


def standard_corpus(cap: int = DEFAULT_RING_CAP):
    """The fixed ring list exercised by the acceptance suite."""
    rings = [make_zmod(n) for n in range(1, 10)]
    rings.append(make_zmod(12))
    rings.append(direct_product(make_zmod(2), make_zmod(3)))
    z2, z3, z4, z6 = (make_zmod(m) for m in (2, 3, 4, 6))
    g = _std_groups()
    rings += [
        matrix_ring(z2, 2),
        matrix_ring(z4, 2),
        upper_triangular(z2, 2),
        upper_triangular(z2, 3),
        upper_triangular(z6, 2),
        group_ring(z2, g["C2"]),
        group_ring(z2, g["C3"]),
        group_ring(z4, g["C2"]),
        group_ring(z4, g["C4"]),
        group_ring(z2, g["S3"]),
        group_ring(z3, g["C3"]),
        group_ring(z6, g["C2"]),
        trivial_extension(z3),
        trivial_extension(z6),
        generalized_matrix(z4, 2),
        generalized_matrix(z2, 0),
        generalized_matrix(z2, 1),
    ]
    return [R for R in rings if R.order <= cap]


# -- randomized counterexample search --------------------------------------


@dataclass
class SearchConfig:
    seed: int = 0
    count: int = 100
    order_cap: int = 256
    weights: Optional[dict] = None
    only: Optional[int] = None      # check only the instance of this index

    DEFAULT_WEIGHTS = {
        "zmod": 3, "product": 1, "matrix": 1, "upper": 1,
        "group_ring": 2, "triv": 1, "ks": 1,
    }


_IMPLICATIONS = [
    ("unit_regular", "regular"),
    ("strongly_nil_clean", "nil_clean"),
    ("nil_clean", "unit_nil_clean"),
    ("strongly_nil_clean", "strongly_unit_nil_clean"),
    ("strongly_unit_nil_clean", "unit_nil_clean"),
    ("nil_clean", "clean"),
    ("unit_regular", "strongly_unit_nil_clean"),
]


def _random_instance(rng: random.Random, cap: int, weights: Optional[dict] = None):
    weights = weights or SearchConfig.DEFAULT_WEIGHTS
    kinds = sorted(weights)
    kind = rng.choices(kinds, weights=[weights[k] for k in kinds])[0]
    if kind == "zmod":
        return make_zmod(rng.randint(1, min(24, cap)))
    if kind == "product":
        a = rng.randint(1, 12)
        b = rng.randint(1, max(1, min(12, cap // a)))
        return direct_product(make_zmod(a), make_zmod(b))
    if kind == "matrix":
        m = rng.choice([m for m in (1, 2, 3, 4) if m**4 <= cap])
        return matrix_ring(make_zmod(m), 2)
    if kind == "upper":
        m = rng.choice([m for m in (1, 2, 3, 4, 5, 6) if m**3 <= cap])
        return upper_triangular(make_zmod(m), 2)
    if kind == "group_ring":
        g = _std_groups()
        pool = [
            (m, G)
            for m in (1, 2, 3, 4)
            for G in (g["C2"], g["C3"], g["C4"], g["S3"], group_product(g["C2"], g["C2"]))
            if m**G.order <= cap
        ]
        m, G = rng.choice(pool)
        return group_ring(make_zmod(m), G)
    if kind == "triv":
        m = rng.randint(1, max(1, int(cap**0.5)))
        return trivial_extension(make_zmod(m))
    # kind == "ks"
    m = rng.choice([m for m in (2, 3, 4) if m**4 <= cap] or [2])
    base = freeze(make_zmod(m))
    s = rng.choice(sorted(base.caches.nilpotents | {base.one}))
    return generalized_matrix(base, s)


def _check_instance(R: Ring, failures: list):
    def fail(expected, got, witness=None):
        failures.append({"case": R.label, "expected": expected, "got": got, "witness": witness})

    try:
        verify_ring_axioms(R)
    except AssertionError as exc:
        fail("ring axioms", str(exc))
        return
    freeze(R)
    try:
        report = deciders.classify(R)
    except RingAxiomError as exc:     # a cross-check inside classify (Diesl, strong regularity)
        fail("classify cross-checks", str(exc))
        return
    flags, masks = report.flags, dict(report.masks)
    # The regular mask stops after the first row block with a False; the
    # remaining rows are read here, so that the element-level checks see it
    # whole.
    rest = _row_blocks(R, np.arange(len(masks["regular"]), R.order))
    masks["regular"] = np.concatenate(
        [masks["regular"]] + [deciders._regular_rows(R, xs) for xs in rest])
    for pre, post in _IMPLICATIONS:
        bad = masks[pre] & ~masks[post]
        if bad.any():
            x = int(bad.argmax())
            fail(f"{pre} => {post}", "violated", {"index": x, "element": R.format_element(x)})
    for name in ("clean", "strongly_unit_nil_clean", "strongly_pi_regular", "periodic"):
        if not flags[name]:
            fail(f"{name} universal", False, report.witnesses.get(name))
    ni = flags["NI"]
    collapse = R.caches.nilpotents == R.caches.jacobson
    if ni != collapse:
        fail("NI <=> Nil == J", {"NI": ni, "Nil==J": collapse})
    # A finite ring with J = 0 is semisimple, by Wedderburn-Artin a product
    # of matrix rings over finite fields, so it is unit-regular; and a
    # regular ring has J = 0.
    semisimple = R.caches.jacobson == frozenset({0})
    if not flags["regular"] == semisimple == flags["unit_regular"]:
        fail("regular <=> J = 0 <=> unit_regular",
             {"regular": flags["regular"], "J = 0": semisimple,
              "unit_regular": flags["unit_regular"]})
    # Ehrlich: unit-regular <=> regular and left-morphic, at every element.
    ehrlich = masks["regular"] & deciders._left_morphic_mask(R)
    unit_regular = masks["unit_regular"]
    bad = unit_regular != ehrlich
    if bad.any():
        x = int(bad.argmax())
        fail("Ehrlich equivalence",
             {"unit_regular": bool(unit_regular[x]), "regular&morphic": bool(ehrlich[x])},
             R.format_element(x))
    if R.kind == "zmod":
        forms = fastpath.closed_forms(R.meta["n"])
    elif R.kind == "group_ring" and R.meta["base"].kind == "zmod":
        forms = fastpath.closed_forms(R.meta["base"].meta["n"], R.meta["group"])
    else:
        forms = []
    for source, flag, _, fast in forms:
        if fast != flags[flag]:
            fail(f"{source} fast path", {"fast": fast, "brute": flags[flag]},
                 report.witnesses.get(flag))


@_timed
def falsify(config: SearchConfig) -> SuiteReport:
    """Random constructions cross-checked against every applicable predicate.

    Deterministic under a fixed seed; the serialized report excludes
    timing so two runs are byte-identical.  Each failure record carries
    the `seed` and the instance `index` that reproduce it: with
    ``config.only = index`` the instances before it are drawn (which
    advances the generator) but only that one is checked.
    """
    if config.only is not None and config.only < 0:
        raise ValueError("the instance index must be >= 0")
    report = SuiteReport("falsify", "discriminating")
    rng = random.Random(config.seed)
    cap = config.order_cap
    count = config.count if config.only is None else config.only + 1
    for index in range(count):
        replayed = config.only is None or index == config.only
        try:
            R = _random_instance(rng, cap, config.weights)
        except CapExceededError as exc:
            if replayed:
                report.skipped.append(str(exc))
            continue
        if not replayed:
            continue
        if R.order > cap:
            report.skipped.append(f"{R.label}: order {R.order} > cap {cap}")
            continue
        before = len(report.failures)
        _check_instance(R, report.failures)
        report.attempted += 1
        if len(report.failures) == before:
            report.passed += 1
        for failure in report.failures[before:]:
            failure.update(seed=config.seed, index=index)
    return report
