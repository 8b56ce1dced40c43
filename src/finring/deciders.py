"""Ring-level decision procedures, all over frozen caches.

``classify`` is the one definition of every flag.  It decides each element
flag at once on the whole ring, as a boolean mask (``_element_masks``), and
a false flag's witness is the first False in its mask.  Products are read
through ``kernel._mul_many`` (op-table lookups up to TABLE_LIMIT, structure
constants above it): the regularity and clean masks in the row blocks of
``kernel._row_blocks``, and so is ``_left_morphic_mask``; the unit-multiple
masks are closed under generators of the unit group, the power flags come
from the power indices of ``freeze``, and NI is read from generating sets of
the nilpotents.  The per-element definitions the masks are held to live with
the tests, as their reference.
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
    _additive_generators,
    _indicator,
    _join,
    _mul_many,
    _orbit_union,
    _powers,
    _row_blocks,
    _sub_many,
    freeze,
)

# The ten element flags, in report order.  ``classify`` reads only the keys;
# the values stay None because the benchmark in ``perfbench`` reads this
# table by name (its metric names come from the keys, and its tracer rebinds
# the values).
_ELEMENT_DECIDERS = dict.fromkeys((
    "regular", "unit_regular", "strongly_regular", "clean", "nil_clean",
    "strongly_nil_clean", "unit_nil_clean", "strongly_unit_nil_clean",
    "strongly_pi_regular", "periodic",
))
RING_FLAGS = (*_ELEMENT_DECIDERS, "NI", "reduced")


# -- regularity ------------------------------------------------------------


def _regular_rows(R: Ring, xs: np.ndarray) -> np.ndarray:
    """For each x of the column block xs, whether x*y*x == x for some y."""
    return (_mul_many(R, _mul_many(R, xs, np.arange(R.order)), xs) == xs).any(1)


# -- morphic ---------------------------------------------------------------


def _left_morphic_mask(R: Ring) -> np.ndarray:
    """mask[x]: x is left-morphic, some b has l(x) = R*b and l(b) = R*x,
    where l(x) = {y : y*x = 0} is the left annihilator.

    The column R*b gives both l(b) and the principal left ideal R*b, each
    keyed as one ``np.packbits`` row; x is left-morphic iff its key pair
    (l(x), R*x) is among the pairs (R*b, l(b)).  Columns are read in the
    row blocks of ``kernel._row_blocks``.
    """
    n = R.order
    every = np.arange(n)
    ann, ideal = [], []
    for bs in _row_blocks(R, every):
        cols = _mul_many(R, every, bs)                  # [i, y] -> y*b_i
        members = np.zeros(cols.shape, dtype=bool)
        np.put_along_axis(members, cols, True, axis=1)
        ann.append(np.packbits(cols == 0, axis=1))
        ideal.append(np.packbits(members, axis=1))
    ann, ideal = np.concatenate(ann), np.concatenate(ideal)
    pairs = set(map(bytes, np.concatenate((ideal, ann), axis=1)))
    keys = np.concatenate((ann, ideal), axis=1)
    return np.fromiter((bytes(key) in pairs for key in keys), dtype=bool, count=n)


# -- NI ----------------------------------------------------------------------


def is_NI(R: Ring) -> bool:
    """The nilpotents form a two-sided ideal: every sum of two nilpotents and
    every product of a nilpotent with an element is nilpotent (`_ni_witness`).
    """
    freeze(R)
    return _ni_witness(R) is None


def _nil_is_ideal(R: Ring, is_nil: np.ndarray) -> bool:
    """Whether the nilpotents N (the mask is_nil) form a two-sided ideal,
    read from generating sets:

    (a) N + h lies in N for each h of a greedy generating set of the
        additive subgroup <N>, the least nilpotent outside the subgroup the
        earlier ones generate, until N is covered.  Then N, which holds 0,
        is closed under <N>, so N = <N>;
    (b) g*a and a*g are nilpotent for every a in N and every additive
        generator g.  With (a), R*N and N*R then lie in N by additivity.

    In a finite ring (a) alone implies (b): N is the preimage of the
    nilpotents of the semisimple R/J, and those are closed under addition
    only when they are 0.  (b) costs 2|N||g| products and keeps the test
    free of that argument.
    """
    n = R.order
    every = np.arange(n)
    N = np.flatnonzero(is_nil)
    span = _indicator(n, [0])                           # a subgroup inside N
    while True:
        rest = is_nil & ~span
        if not rest.any():
            break
        h = int(rest.argmax())
        row = _add_many(R, every, h)                    # z + h for every z
        if not is_nil[row[N]].all():
            return False
        span = _join(span, row)
    g = np.array(_additive_generators(R), dtype=np.int64)[:, None]
    return bool(is_nil[_mul_many(R, g, N)].all() and is_nil[_mul_many(R, N, g)].all())


def _ni_witness(R: Ring) -> Optional[int]:
    """The first sum or product of nilpotents that is not nilpotent, or None
    when R is NI.

    Whether R is NI is read from generating sets (`_nil_is_ideal`).  Only
    when it is not does the ordered search run: a + b over nilpotents a, b
    in index order; then, for each nilpotent a in index order and each r,
    the product r*a and then a*r; a block of a (``kernel._row_blocks``) at
    a time.
    """
    is_nil = _indicator(R.order, R.caches.nilpotents)
    if _nil_is_ideal(R, is_nil):
        return None
    N = np.flatnonzero(is_nil)
    every = np.arange(R.order)
    for a in _row_blocks(R, N):
        bad = ~is_nil[_add_many(R, a, N)]               # [i, j]: a_i + N_j
        if bad.any():
            i, j = np.unravel_index(bad.argmax(), bad.shape)
            return int(_add_many(R, a[i, 0], N[j]))
    for a in _row_blocks(R, N):
        bad = np.stack((~is_nil[_mul_many(R, every, a)], ~is_nil[_mul_many(R, a, every)]), -1)
        if bad.any():                                   # [i, r, side]: r*a_i, a_i*r
            i, r, side = np.unravel_index(bad.argmax(), bad.shape)
            a_i = a[i, 0]
            return int(_mul_many(R, r, a_i) if side == 0 else _mul_many(R, a_i, r))
    return None


# -- aggregate classification ----------------------------------------------


@dataclass
class PropertyReport:
    """Per-ring classification with least-index witnesses for false flags.

    `masks` holds the element masks of ``_element_masks`` that the flags were
    read from, for cross-checks on the same ring; it is not serialized.
    """

    label: str
    order: int
    flags: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    jacobson_size: int = 0
    nil_size: int = 0
    masks: dict = field(default_factory=dict, compare=False, repr=False)

    def to_json(self):
        return {
            "label": self.label,
            "order": self.order,
            "flags": dict(self.flags),
            "witnesses": dict(self.witnesses),
            "radicals": {"jacobson": self.jacobson_size, "nil": self.nil_size},
        }


def _periodic_mask(R: Ring, m: np.ndarray, k: np.ndarray) -> np.ndarray:
    """1 <= m < k and x^m == x^k, the powers recomputed independently of the
    scan that found (m, k)."""
    x = np.arange(len(m))
    both = _powers(R, np.concatenate((x, x)), np.concatenate((m, k)))
    power_m, power_k = both.reshape(2, -1)
    return (1 <= m) & (m < k) & (power_m == power_k)


def _until_failure(R: Ring, test) -> np.ndarray:
    """The verdicts test(xs) of R's row blocks xs in index order, up to the
    first block with a False: a mask prefix that ends past its first False."""
    verdicts = []
    for xs in _row_blocks(R, np.arange(R.order)):
        verdicts.append(test(xs))
        if not verdicts[-1].all():
            break
    return np.concatenate(verdicts)


def _closure(T: np.ndarray, generators: list) -> np.ndarray:
    """The boolean stack T (last axis the elements) closed under every
    generator, each a pair (row, steps) for `kernel._orbit_union`.  The
    generators need not commute, so they are taken in turn until T has been
    closed along all of them since it last changed."""
    quiet, i = 0, 0
    while quiet < len(generators):
        row, steps = generators[i % len(generators)]
        if (T[..., row] & ~T).any():                    # not yet closed along row
            T, quiet = _orbit_union(T, row, steps), 1
        else:
            quiet += 1
        i += 1
    return T


def _unit_multiples(R: Ring, T: np.ndarray) -> np.ndarray:
    """The boolean stack T closed under left multiplication by the unit
    group U, each row then the set U*S of its set S.

    U is generated greedily: the least unit outside the subgroup the earlier
    generators generate, until U is covered.  That subgroup is the closure
    of {1}, kept as a first row on the stack, which is closed anew after
    each generator.  A generator g is its row g*R, with 2^steps at least its
    order k - 1, from its power indices (m, k) = (1, k).  In a finite group
    a set closed under a generating set is closed under the group.
    """
    n = R.order
    k = R.caches.power_indices[1]
    every = np.arange(n)
    T = np.concatenate((_indicator(n, [R.one])[None], T))
    missing = _indicator(n, R.caches.units)
    generators = []
    while True:
        missing &= ~T[0]
        if not missing.any():
            return T[1:]
        g = int(missing.argmax())
        generators.append((_mul_many(R, g, every), int(k[g] - 2).bit_length()))
        T = _closure(T, generators)


def _element_masks(R: Ring) -> dict:
    """Every _ELEMENT_DECIDERS flag as a boolean mask, mask[x] whether the
    flag holds at x.  At x the flags say: regular, x = x*y*x for some y;
    unit_regular, the same for some unit y; strongly_regular, x lies in
    x^2*R and in R*x^2; clean, x = e + u; nil_clean, x = e + b; and
    strongly_nil_clean, x = e + b with e*b == b*e, for an idempotent e, a
    unit u and a nilpotent b; unit_nil_clean and strongly_unit_nil_clean,
    some unit multiple u*x is nil-clean, or strongly nil-clean;
    strongly_pi_regular, some power of x is strongly regular; periodic,
    x^m == x^k for some 1 <= m < k.

    regular and strongly_regular stop after the first row block with a
    False.  x is strongly regular iff it has a group inverse, iff its power
    index m is 1 (Drazin).  x - e for each idempotent e gives the clean and
    nil-clean flags.  The unit-multiple flags are unions of left orbits of
    the unit group U: unit_regular is U*E (x*u*x == x iff u*x is
    idempotent), unit_nil_clean U*NC and strongly_unit_nil_clean U*SNC, for
    the idempotent, nil-clean and strongly nil-clean masks E, NC and SNC,
    read as one stack closed under generators of U (`_unit_multiples`).

    Raises RingAxiomError where strong nil-cleanness by idempotent search and
    Diesl's criterion (x - x^2 nilpotent) disagree, or where m == 1 and the
    definition x in x^2*R and in R*x^2 do on a row block read.
    """
    n = R.order
    caches = R.caches
    x = np.arange(n)
    m, k = caches.power_indices
    group = m == 1
    is_unit = _indicator(n, caches.units)
    is_nil = _indicator(n, caches.nilpotents)
    is_idempotent = _indicator(n, caches.idempotents)

    def strongly_regular(xs):                           # x in x^2*R and in R*x^2
        sq = _mul_many(R, xs, xs)
        defined = (_mul_many(R, sq, x) == xs).any(1) & (_mul_many(R, x, sq) == xs).any(1)
        bad = defined != group[xs[:, 0]]
        if bad.any():
            raise RingAxiomError(
                f"{R.label}: strong regularity and its power index m = 1 disagree "
                f"at {int(xs[bad.argmax(), 0])}")
        return defined

    masks = {"regular": _until_failure(R, lambda xs: _regular_rows(R, xs)),
             "strongly_regular": _until_failure(R, strongly_regular)}
    clean, nil_clean, snc = (np.zeros(n, dtype=bool) for _ in range(3))
    for es in _row_blocks(R, sorted(caches.idempotents)):
        diff = _sub_many(R, x, es)                      # [i, x] -> x - e_i
        nil_diff = is_nil[diff]
        clean |= is_unit[diff].any(0)
        nil_clean |= nil_diff.any(0)
        i, j = np.nonzero(nil_diff)                     # x_j - e_i nilpotent
        e, d = es[i, 0], diff[i, j]
        snc[j[_mul_many(R, e, d) == _mul_many(R, d, e)]] = True
        del diff, nil_diff, i, j, e, d                  # before the next block's
    diesl = is_nil[_sub_many(R, x, _mul_many(R, x, x))]
    if not np.array_equal(snc, diesl):
        bad = int((snc != diesl).argmax())
        raise RingAxiomError(
            f"{R.label}: Diesl's criterion and the idempotent search disagree at {bad}"
        )
    unit_regular, unc, sunc = _unit_multiples(R, np.stack((is_idempotent, nil_clean, snc)))
    masks.update(unit_regular=unit_regular, clean=clean, nil_clean=nil_clean,
                 strongly_nil_clean=snc, unit_nil_clean=unc, strongly_unit_nil_clean=sunc,
                 strongly_pi_regular=group[_powers(R, x, m)],
                 periodic=_periodic_mask(R, m, k))
    return masks


def classify(R: Ring, cap: int = CLASSIFY_CAP) -> PropertyReport:
    """Classify every ring-level flag, with least-index witnesses.

    A flag holds when it holds at every element; a false flag's witness is
    the least element index at which it fails.  The element flags come from
    the whole-ring masks of ``_element_masks`` on every ring, and the
    witness is the first False in the mask.  Their
    products are read in the row blocks of ``kernel._row_blocks`` (up to
    ROW_BLOCK // n rows of the op table when the ring has one, and above
    TABLE_LIMIT one row x*R at a time from ``kernel._mul_many``, in
    O(n * |g|) memory for a ring with radices) and, for the unit multiples,
    one row g*R per generator g of the unit group.  The flags are reported
    in ``_ELEMENT_DECIDERS`` order, then NI and reduced.
    """
    if R.order > cap:
        raise CapExceededError(f"classification of {R.label} exceeds cap {cap}")
    freeze(R)
    report = PropertyReport(label=R.label, order=R.order)
    report.jacobson_size = len(R.caches.jacobson)
    report.nil_size = len(R.caches.nilpotents)
    report.masks = _element_masks(R)
    for name in _ELEMENT_DECIDERS:
        mask = report.masks[name]
        failure = None if mask.all() else int(mask.argmin())
        report.flags[name] = failure is None
        if failure is not None:
            report.witnesses[name] = {
                "index": failure,
                "element": R.format_element(failure),
            }
    w = _ni_witness(R)
    report.flags["NI"] = w is None
    if w is not None:
        report.witnesses["NI"] = {"index": w, "element": R.format_element(w)}
    report.flags["reduced"] = R.caches.nilpotents == frozenset({0})
    if not report.flags["reduced"]:
        w = min(x for x in R.caches.nilpotents if x != 0)
        report.witnesses["reduced"] = {"index": w, "element": R.format_element(w)}
    return report
