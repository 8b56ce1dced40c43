"""Element- and ring-level decision procedures, all over frozen caches.

The ``is_*`` functions decide one element.  The regularity deciders, the
unit-multiple loops and the NI check read whole product rows x*R and
columns R*x from ``kernel._mul_many`` (op-table lookups up to TABLE_LIMIT,
structure constants above it); the rest search with scalar ops.
``classify`` decides every ring-level flag at once: on rings with op tables
each flag is a whole-ring boolean mask (``_element_masks``), and above
TABLE_LIMIT it sweeps the element deciders element by element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import CapExceededError, RingAxiomError
from .kernel import (
    CLASSIFY_CAP,
    Ring,
    _add_many,
    _indicator,
    _mul_many,
    freeze,
    ring_pow,
)

RING_FLAGS = (
    "regular",
    "unit_regular",
    "strongly_regular",
    "clean",
    "nil_clean",
    "strongly_nil_clean",
    "unit_nil_clean",
    "strongly_unit_nil_clean",
    "strongly_pi_regular",
    "periodic",
    "NI",
    "reduced",
)


@dataclass
class Decomposition:
    """A witnessed sum decomposition x = e + other (possibly after a unit multiple)."""

    kind: str                      # "nil-clean" | "strongly-nil-clean" | "clean"
    idempotent: int
    other: int
    unit: Optional[int] = None     # u such that u*x = idempotent + other

    def verify(self, R: Ring, x: int) -> bool:
        caches = R.caches
        if self.unit is not None and self.unit not in caches.units:
            return False
        target = x if self.unit is None else R.mul(self.unit, x)
        if R.add(self.idempotent, self.other) != target:
            return False
        if self.idempotent not in caches.idempotents:
            return False
        if self.kind == "clean":
            return self.other in caches.units
        if self.other not in caches.nilpotents:
            return False
        if self.kind == "strongly-nil-clean":
            return R.mul(self.idempotent, self.other) == R.mul(self.other, self.idempotent)
        return True


def _require_frozen(R: Ring) -> Ring:
    if not R.frozen:
        freeze(R)
    return R


def _first_holding(R: Ring, decide, xs: np.ndarray) -> Optional[int]:
    """Position of the first x in xs at which decide(R, x) holds, or None.

    The verdicts are decided in the order of xs, up to the first that
    holds, and remembered once per frozen ring and element.
    """
    memo = R._verdicts.get(decide)
    if memo is None:                     # 1 holds, 0 fails, -1 not decided yet
        memo = R._verdicts[decide] = np.full(R.order, -1, dtype=np.int8)
    while True:
        verdicts = memo[xs]
        open_ = verdicts != 0
        i = int(open_.argmax())
        if not open_[i]:
            return None
        if verdicts[i] == 1:
            return i
        memo[xs[i]] = bool(decide(R, int(xs[i])))


# -- regularity ------------------------------------------------------------


def is_regular(R: Ring, x: int) -> bool:
    """x = x*y*x for some y.

    With op tables the lookups stop at the first witness, which is cheaper
    on small rings than a whole row; above TABLE_LIMIT the row x*R is
    multiplied by x at once.
    """
    _require_frozen(R)
    if R._mul_np is not None:
        mul = R.mul
        return any(mul(mul(x, y), x) == x for y in R.elements())
    return bool((_mul_many(R, _mul_many(R, x, np.arange(R.order)), x) == x).any())


def is_unit_regular(R: Ring, x: int) -> bool:
    """x = x*u*x for some unit u; searched as is_regular searches."""
    _require_frozen(R)
    if R._mul_np is not None:
        mul = R.mul
        return any(mul(mul(x, u), x) == x for u in sorted(R.caches.units))
    return bool((_mul_many(R, _mul_many(R, x, R.caches.unit_array), x) == x).any())


def is_strongly_regular(R: Ring, x: int) -> bool:
    """x lies in x^2*R and in R*x^2."""
    _require_frozen(R)
    sq, every = _mul_many(R, x, x), np.arange(R.order)
    return bool((_mul_many(R, sq, every) == x).any() and (_mul_many(R, every, sq) == x).any())


# -- morphic ---------------------------------------------------------------


def _morphic_tables(R: Ring):
    """Per-element left annihilators and principal left ideals, cached."""
    if R._morphic is None:
        n = R.order
        mul = R.mul
        left_ann = []
        principal = []
        by_principal = {}
        for a in range(n):
            col = [mul(y, a) for y in range(n)]
            la = frozenset(y for y in range(n) if col[y] == 0)
            pr = frozenset(col)
            left_ann.append(la)
            principal.append(pr)
            by_principal.setdefault(pr, []).append(a)
        R._morphic = (left_ann, principal, by_principal)
    return R._morphic


def is_left_morphic(R: Ring, x: int) -> bool:
    """Some b has left-ann(x) = R*b and left-ann(b) = R*x."""
    _require_frozen(R)
    left_ann, principal, by_principal = _morphic_tables(R)
    candidates = by_principal.get(left_ann[x], ())
    return any(left_ann[b] == principal[x] for b in candidates)


# -- clean / nil-clean families --------------------------------------------


def is_nil_clean(R: Ring, x: int) -> Optional[Decomposition]:
    """x = idempotent + nilpotent, least idempotent index first."""
    _require_frozen(R)
    caches = R.caches
    for e in sorted(caches.idempotents):
        b = R.sub(x, e)
        if b in caches.nilpotents:
            return Decomposition("nil-clean", e, b)
    return None


def is_strongly_nil_clean(R: Ring, x: int) -> Optional[Decomposition]:
    """As is_nil_clean, with the two parts required to commute."""
    _require_frozen(R)
    caches = R.caches
    for e in sorted(caches.idempotents):
        b = R.sub(x, e)
        if b in caches.nilpotents and R.mul(e, b) == R.mul(b, e):
            return Decomposition("strongly-nil-clean", e, b)
    return None


def snc_poly_criterion(R: Ring, x: int) -> bool:
    """x - x^2 nilpotent; an independent route to strong nil-cleanness."""
    _require_frozen(R)
    return R.sub(x, R.mul(x, x)) in R.caches.nilpotents


def is_clean(R: Ring, x: int) -> Optional[Decomposition]:
    """x = idempotent + unit."""
    _require_frozen(R)
    caches = R.caches
    for e in sorted(caches.idempotents):
        u = R.sub(x, e)
        if u in caches.units:
            return Decomposition("clean", e, u)
    return None


def is_unit_nil_clean(R: Ring, x: int) -> Optional[Decomposition]:
    """Some unit multiple u*x is nil-clean; the least such u is recorded on
    the decomposition.  The multiples u*x of every unit are one column;
    nil-cleanness of each u*x is remembered per ring."""
    _require_frozen(R)
    units = R.caches.unit_array
    multiples = _mul_many(R, units, x)
    j = _first_holding(R, is_nil_clean, multiples)
    if j is None:
        return None
    dec = is_nil_clean(R, int(multiples[j]))
    dec.unit = int(units[j])
    return dec


def is_strongly_unit_nil_clean(R: Ring, x: int) -> Optional[Decomposition]:
    """Some unit multiple u*x is strongly nil-clean.

    Units are screened with the fast polynomial criterion on u*x, read
    from one column of unit multiples (remembered per ring); the explicit
    commuting decomposition is then reconstructed by idempotent search and
    must exist: RingAxiomError is raised if the two routes disagree.
    """
    _require_frozen(R)
    units = R.caches.unit_array
    multiples = _mul_many(R, units, x)
    j = _first_holding(R, snc_poly_criterion, multiples)
    if j is None:
        return None
    ux = int(multiples[j])
    dec = is_strongly_nil_clean(R, ux)
    if dec is None:
        raise RingAxiomError(
            f"{R.label}: Diesl's criterion and the idempotent search disagree at {ux}"
        )
    dec.unit = int(units[j])
    return dec


# -- periodicity -----------------------------------------------------------


def _power_orbit(R: Ring, x: int) -> tuple[list, int]:
    """The distinct powers x^1, ..., x^(k-1), and the m < k with x^k = x^m."""
    seen = {}
    power = x
    k = 1
    while power not in seen:
        seen[power] = k
        power = R.mul(power, x)
        k += 1
    return list(seen), seen[power]


def periodic_indices(R: Ring, x: int) -> tuple[int, int]:
    """Lexicographically least (m, n), 1 <= m < n, with x^m = x^n."""
    _require_frozen(R)
    powers, m = _power_orbit(R, x)
    return m, len(powers) + 1


def is_periodic(R: Ring, x: int) -> bool:
    """x^m = x^n for the pair periodic_indices gives, recomputed by ring_pow."""
    m, n = periodic_indices(R, x)
    return 1 <= m < n and ring_pow(R, x, m) == ring_pow(R, x, n)


def is_strongly_pi_regular(R: Ring, x: int) -> bool:
    """Some power of x is strongly regular (remembered per ring and power)."""
    _require_frozen(R)
    powers, _ = _power_orbit(R, x)
    return _first_holding(R, is_strongly_regular, np.array(powers)) is not None


# -- m-potents -------------------------------------------------------------


def is_m_potent(R: Ring, x: int, m: int) -> bool:
    """x^m = x, for m > 1."""
    if m <= 1:
        raise ValueError("m must be > 1")
    _require_frozen(R)
    return ring_pow(R, x, m) == x


def ring_strongly_m_nil_clean(R: Ring, m: int) -> bool:
    """Every element is a commuting sum of an m-potent and a nilpotent."""
    if m <= 1:
        raise ValueError("m must be > 1")
    _require_frozen(R)
    caches = R.caches
    m_potents = [w for w in R.elements() if is_m_potent(R, w, m)]
    for x in R.elements():
        if not any(
            R.sub(x, w) in caches.nilpotents
            and R.mul(w, R.sub(x, w)) == R.mul(R.sub(x, w), w)
            for w in m_potents
        ):
            return False
    return True


# -- nil set / radicals ----------------------------------------------------


def nil_set(R: Ring) -> frozenset:
    _require_frozen(R)
    return R.caches.nilpotents


def is_NI(R: Ring) -> bool:
    """The nilpotents form a two-sided ideal.

    With op tables the sums and products of nilpotents are checked as
    whole-ring masks; above TABLE_LIMIT one nilpotent at a time, by its
    sums with every nilpotent and its row and column of products.
    """
    _require_frozen(R)
    return _ni_witness(R) is None


def _ni_witness(R: Ring) -> Optional[int]:
    """The first sum or product of nilpotents that is not nilpotent, or None
    when R is NI.

    Search order: a + b over nilpotents a, b in index order; then, for each
    nilpotent a in index order and each r, the product r*a and then a*r.
    """
    is_nil = _indicator(R.order, R.caches.nilpotents)
    N = np.flatnonzero(is_nil)
    every = np.arange(R.order)
    # With op tables every nilpotent a at once, as [a, b] and [a, r];
    # otherwise one a at a time, in O(n) memory.
    blocks = [N[:, None]] if R._mul_np is not None else N.tolist()
    for a in blocks:
        sums = _add_many(R, a, N).ravel()
        bad = ~is_nil[sums]
        if bad.any():
            return int(sums[bad.argmax()])
    for a in blocks:
        products = np.stack((_mul_many(R, every, a), _mul_many(R, a, every)), axis=-1).ravel()
        bad = ~is_nil[products]                     # (r*a, a*r) for every r
        if bad.any():
            return int(products[bad.argmax()])
    return None


def is_reduced(R: Ring) -> bool:
    _require_frozen(R)
    return R.caches.nilpotents == frozenset({0})


# -- aggregate classification ----------------------------------------------


@dataclass
class PropertyReport:
    """Per-ring classification with least-index witnesses for false flags."""

    label: str
    order: int
    flags: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    jacobson_size: int = 0
    nil_size: int = 0

    def to_json(self):
        return {
            "label": self.label,
            "order": self.order,
            "flags": dict(self.flags),
            "witnesses": dict(self.witnesses),
            "radicals": {"jacobson": self.jacobson_size, "nil": self.nil_size},
        }


_ELEMENT_DECIDERS = {
    "regular": is_regular,
    "unit_regular": is_unit_regular,
    "strongly_regular": is_strongly_regular,
    "clean": lambda R, x: is_clean(R, x) is not None,
    "nil_clean": lambda R, x: is_nil_clean(R, x) is not None,
    "strongly_nil_clean": lambda R, x: is_strongly_nil_clean(R, x) is not None,
    "unit_nil_clean": lambda R, x: is_unit_nil_clean(R, x) is not None,
    "strongly_unit_nil_clean": lambda R, x: is_strongly_unit_nil_clean(R, x) is not None,
    "strongly_pi_regular": is_strongly_pi_regular,
    "periodic": is_periodic,
}


def _power_scan(M: np.ndarray, strongly_regular: np.ndarray):
    """For every element x at once: the least (m, k), m < k, with x^m == x^k
    (as periodic_indices finds it), and whether some power of x is strongly
    regular.  Returns the arrays (m, k, strongly_pi_regular)."""
    n = len(strongly_regular)
    first_seen = np.zeros((n, n), dtype=np.int32)   # [x, v] -> least j with x^j == v; 0: none
    m = np.zeros(n, dtype=np.int64)
    k = np.zeros(n, dtype=np.int64)
    pi_regular = np.zeros(n, dtype=bool)
    live = np.arange(n)         # elements whose powers have not repeated yet
    power = live.copy()         # power[i] == live[i]^j
    j = 1
    while live.size:
        seen = first_seen[live, power]
        done = seen > 0
        if done.any():
            m[live[done]] = seen[done]
            k[live[done]] = j
            live, power = live[~done], power[~done]
        first_seen[live, power] = j
        pi_regular[live] |= strongly_regular[power]
        power = M[power, live]
        j += 1
    return m, k, pi_regular


def _powers(M: np.ndarray, one: int, base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """base[i]^exponent[i] for every i, multiplied in the order ring_pow uses."""
    result = np.full_like(base, one)
    while exponent.any():
        result = np.where((exponent & 1) == 1, M[result, base], result)
        base = M[base, base]
        exponent = exponent >> 1
    return result


def _periodic_mask(M: np.ndarray, one: int, m: np.ndarray, k: np.ndarray) -> np.ndarray:
    """1 <= m < k and x^m == x^k, the powers recomputed independently of the
    scan that found (m, k)."""
    x = np.arange(len(m))
    both = _powers(M, one, np.concatenate((x, x)), np.concatenate((m, k)))
    power_m, power_k = both.reshape(2, -1)
    return (1 <= m) & (m < k) & (power_m == power_k)


def _element_masks(R: Ring) -> dict:
    """Every _ELEMENT_DECIDERS flag as a whole-ring boolean mask over the op
    tables: mask[x] is the decider's verdict at x.

    Raises RingAxiomError where strong nil-cleanness by idempotent search and
    Diesl's criterion (x - x^2 nilpotent) disagree.
    """
    n, one = R.order, R.one
    M, A, neg = R._mul_np, R._add_np, R._neg_np
    caches = R.caches
    x = np.arange(n)
    col = x[:, None]
    units = caches.unit_array
    idempotents = np.array(sorted(caches.idempotents))
    is_unit = _indicator(n, caches.units)
    is_nil = _indicator(n, caches.nilpotents)
    square = np.diagonal(M)
    masks = {
        "regular": (M[M, col] == col).any(1),                    # x*y*x == x
        "unit_regular": (M[M[:, units], col] == col).any(1),     # x*u*x == x
        # x in x^2*R and x in R*x^2
        "strongly_regular": (M[square] == col).any(1) & (M[:, square] == x).any(0),
    }
    diff = A[:, neg[idempotents]]                                # [x, i] -> x - e_i
    nil_diff = is_nil[diff]
    masks["clean"] = is_unit[diff].any(1)
    masks["nil_clean"] = nil_diff.any(1)
    commute = M[idempotents, diff] == M[diff, idempotents]
    masks["strongly_nil_clean"] = snc = (nil_diff & commute).any(1)
    diesl = is_nil[A[x, neg[square]]]
    if not np.array_equal(snc, diesl):
        bad = int((snc != diesl).argmax())
        raise RingAxiomError(
            f"{R.label}: Diesl's criterion and the idempotent search disagree at {bad}"
        )
    unit_multiples = M[units]                                    # [j, x] -> u_j*x
    masks["unit_nil_clean"] = masks["nil_clean"][unit_multiples].any(0)
    masks["strongly_unit_nil_clean"] = snc[unit_multiples].any(0)
    m, k, masks["strongly_pi_regular"] = _power_scan(M, masks["strongly_regular"])
    masks["periodic"] = _periodic_mask(M, one, m, k)
    return masks


def classify(R: Ring, cap: int = CLASSIFY_CAP) -> PropertyReport:
    """Classify every ring-level flag, with least-index witnesses.

    A flag holds when its element decider holds at every element; a false
    flag's witness is the least element index at which it fails.  With op
    tables (order <= TABLE_LIMIT) all element flags come from whole-ring
    masks (``_element_masks``) and the witness is the first False in the
    mask.  Above TABLE_LIMIT each flag sweeps its ``_ELEMENT_DECIDERS`` entry
    in index order and stops at the first failure.  There the regularity
    deciders read rows x*R and columns R*x from ``kernel._mul_many`` (in
    O(n * |g|) memory for a ring with radices), the unit nil-clean and
    strongly unit nil-clean deciders read the column of unit multiples u*x,
    and they and the strongly pi-regular decider read per-ring memos of the
    nil-clean, Diesl and strongly-regular verdicts instead of deciding them
    again.  Both paths give the same report.
    """
    if R.order > cap:
        raise CapExceededError(f"classification of {R.label} exceeds cap {cap}")
    _require_frozen(R)
    report = PropertyReport(label=R.label, order=R.order)
    report.jacobson_size = len(R.caches.jacobson)
    report.nil_size = len(R.caches.nilpotents)
    masks = _element_masks(R) if R._mul_np is not None else None
    for name, decider in _ELEMENT_DECIDERS.items():
        if masks is not None:
            mask = masks[name]
            failure = None if mask.all() else int(mask.argmin())
        else:
            failure = next((x for x in R.elements() if not decider(R, x)), None)
        report.flags[name] = failure is None
        if failure is not None:
            report.witnesses[name] = {
                "index": failure,
                "element": R.format_element(failure),
            }
    report.flags["NI"] = is_NI(R)
    if not report.flags["NI"]:
        w = _ni_witness(R)
        report.witnesses["NI"] = {"index": w, "element": R.format_element(w)}
    report.flags["reduced"] = is_reduced(R)
    if not report.flags["reduced"]:
        w = min(x for x in R.caches.nilpotents if x != 0)
        report.witnesses["reduced"] = {"index": w, "element": R.format_element(w)}
    return report
