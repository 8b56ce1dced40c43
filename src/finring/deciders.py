"""Ring-level decision procedures, all over frozen caches.

``classify`` is the one definition of every flag.  It decides each element
flag at once on the whole ring, as a whole boolean mask (``_element_masks``),
and a false flag's witness is the first False in its mask.  Products are read
through ``kernel._mul_many`` (op-table lookups up to TABLE_LIMIT, structure
constants above it): the clean masks in the row blocks of
``kernel._row_blocks``; the unit-multiple masks, unit-regularity and with it
regularity, are closed under generators of the unit group; strong
regularity and the power flags come from the power indices (m, k) of
``freeze`` and its cycle start x^m; and NI is read from generating sets of
the nilpotents.  No flag is found by a search over rows.  For a ring that
``freeze`` split into its p-primary blocks, the masks that need products
and NI are read on the blocks and ANDed; the checks stay on R itself.
``_left_ideal_masks`` decides regularity, strong regularity and
left-morphicity by their definitions, from keys of the principal left
ideals, on the undivided ring, for the cross-checks of ``harness``; the
per-element definitions the masks are held to live with the tests, as
their reference.
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


# -- principal left ideals ------------------------------------------------


def _left_ideal_masks(R: Ring) -> dict:
    """Three element masks of a frozen R read from principal left ideals, each
    by its definition, where l(x) = {y : y*x = 0} is the left annihilator:

    - regular: R*x = R*e for some idempotent e.  If x = x*y*x, then e = y*x
      is idempotent with R*x = R*e; conversely R*x = R*e gives x = x*e and
      e = y*x, so x = x*y*x;
    - left_group: R*x = R*x^2, that is x lies in R*x^2;
    - left_morphic: some b has l(x) = R*b and l(b) = R*x.

    The column R*b gives both l(b) and the principal left ideal R*b, each
    keyed as one ``np.packbits`` row; x is left-morphic iff its key pair
    (l(x), R*x) is among the pairs (R*b, l(b)).  Columns are read in the
    row blocks of ``kernel._row_blocks``: O(n^2) products.
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

    def among(keys, found):                             # mask[x]: keys[x] is in found
        return np.fromiter((bytes(key) in found for key in keys), dtype=bool, count=n)

    return {"regular": among(ideal, {bytes(ideal[e]) for e in R.caches.idempotents}),
            "left_group": (ideal == ideal[_mul_many(R, every, every)]).all(1),
            "left_morphic": among(np.concatenate((ann, ideal), axis=1),
                                  set(map(bytes, np.concatenate((ideal, ann), axis=1))))}


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

    Whether R is NI is read from generating sets (`_nil_is_ideal`), on R
    itself or, for a ring that ``freeze`` split into its p-primary blocks,
    on every block: the nilpotents of R are the product of theirs, an ideal
    iff each of theirs is.  Only when R is not NI does the ordered search
    run, on R: a + b over nilpotents a, b in index order; then, for each
    nilpotent a in index order and each r, the product r*a and then a*r; a
    block of a (``kernel._row_blocks``) at a time.
    """
    is_nil = _indicator(R.order, R.caches.nilpotents)
    rings = [(R, is_nil)] if R._blocks is None else [
        (B, _indicator(B.order, B.caches.nilpotents)) for _, B, _ in R._blocks]
    if all(_nil_is_ideal(*ring) for ring in rings):
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


def _periodic_mask(R: Ring) -> np.ndarray:
    """1 <= m < k and x^m == x^k for the power indices (m, k) of a frozen R:
    x^m is the cycle start of ``freeze``, and x^k is recomputed from k,
    independently of the scan that found (m, k)."""
    m, k = R.caches.power_indices
    return (1 <= m) & (m < k) & (R.caches.cycle_start == _powers(R, np.arange(R.order), k))


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


def _undivided_masks(R: Ring) -> dict:
    """The element masks of a frozen R that ``_element_masks`` reads with
    products, all read on R itself: clean, nil_clean, strongly_nil_clean,
    unit_regular, unit_nil_clean, strongly_unit_nil_clean and periodic.
    Nothing here is checked; see ``_element_masks``."""
    n = R.order
    caches = R.caches
    x = np.arange(n)
    is_unit = _indicator(n, caches.units)
    is_nil = _indicator(n, caches.nilpotents)
    is_idempotent = _indicator(n, caches.idempotents)
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
    unit_regular, unc, sunc = _unit_multiples(R, np.stack((is_idempotent, nil_clean, snc)))
    return {"unit_regular": unit_regular, "clean": clean, "nil_clean": nil_clean,
            "strongly_nil_clean": snc, "unit_nil_clean": unc, "strongly_unit_nil_clean": sunc,
            "periodic": _periodic_mask(R)}


def _element_masks(R: Ring) -> dict:
    """Every _ELEMENT_DECIDERS flag as a whole boolean mask, mask[x] whether
    the flag holds at x.  At x the flags say: regular, x = x*y*x for some y;
    unit_regular, the same for some unit y; strongly_regular, x lies in
    x^2*R and in R*x^2; clean, x = e + u; nil_clean, x = e + b; and
    strongly_nil_clean, x = e + b with e*b == b*e, for an idempotent e, a
    unit u and a nilpotent b; unit_nil_clean and strongly_unit_nil_clean,
    some unit multiple u*x is nil-clean, or strongly nil-clean;
    strongly_pi_regular, some power of x is strongly regular; periodic,
    x^m == x^k for some 1 <= m < k.

    The unit-multiple flags are unions of left orbits of the unit group U:
    unit_regular is U*E (x*u*x == x iff u*x is idempotent), unit_nil_clean
    U*NC and strongly_unit_nil_clean U*SNC, for the idempotent, nil-clean
    and strongly nil-clean masks E, NC and SNC, read as one stack closed
    under generators of U (`_unit_multiples`).  x - e for each idempotent e
    gives the clean and nil-clean flags.  These masks, and periodic, are
    read by ``_undivided_masks``: on R itself, or, for a ring that
    ``freeze`` split into its p-primary blocks (``R._blocks``), on every
    block, and then mask[x] is the AND of the block masks at e_p*x, since
    each flag holds at x iff it holds at every e_p*x.  In a finite ring
    three of the flags are others read again, from R's own caches:

    - regular is unit_regular.  A finite ring is semilocal, so it has stable
      range 1 (H. Bass, "K-theory and stable algebra", Publ. Math. IHES 22
      (1964)).  If a = a*b*a, then R*b + R*(1 - a*b) = R, so u = b + z*(1 - a*b)
      is a unit for some z, and a*u*a = a;
    - strongly_regular is m == 1 for the power index m of ``freeze``: x lies
      in x^2*R and in R*x^2 iff it has a group inverse (M. P. Drazin,
      "Pseudo-inverses in associative rings and semigroups", Amer. Math.
      Monthly 65 (1958)).  In a finite ring either side suffices: if
      x = y*x^2, then r(x^2), the right annihilator of x^2, lies in r(x), so
      |x*R| = |x^2*R| and x lies in x^2*R;
    - strongly_pi_regular is m == 1 at x^m, the cycle start of ``freeze``.
      The powers x^j with m <= j < k are a cyclic group, so x^m has a group
      inverse whenever (m, k) is right; the mask reads the scan once more
      at x^m.

    Raises RingAxiomError, on R itself whether it is split or not, where
    strong nil-cleanness by idempotent search and Diesl's criterion
    (x - x^2 nilpotent) disagree, and where a flag's least False holds by
    its definition, on one row: the least non-unit-regular w with
    w*y*w == w for some y, or the least w with m != 1 in w^2*R and in
    R*w^2.
    """
    caches = R.caches
    if R._blocks is None:
        masks = _undivided_masks(R)
    else:
        parts = [(_undivided_masks(B), phi) for _, B, phi in R._blocks]
        masks = {name: np.logical_and.reduce([block[name][phi] for block, phi in parts])
                 for name in parts[0][0]}
    x = np.arange(R.order)
    group = caches.power_indices[0] == 1
    diesl = _indicator(R.order, caches.nilpotents)[_sub_many(R, x, _mul_many(R, x, x))]
    if not np.array_equal(masks["strongly_nil_clean"], diesl):
        bad = int((masks["strongly_nil_clean"] != diesl).argmax())
        raise RingAxiomError(
            f"{R.label}: Diesl's criterion and the idempotent search disagree at {bad}"
        )
    unit_regular = masks["unit_regular"]
    if not unit_regular.all():
        w = int(unit_regular.argmin())
        if (_mul_many(R, _mul_many(R, w, x), w) == w).any():
            raise RingAxiomError(f"{R.label}: regularity and unit-regularity disagree at {w}")
    if not group.all():
        w = int(group.argmin())
        sq = _mul_many(R, w, w)
        if (_mul_many(R, sq, x) == w).any() and (_mul_many(R, x, sq) == w).any():
            raise RingAxiomError(
                f"{R.label}: strong regularity and its power index m = 1 disagree at {w}")
    masks.update(regular=unit_regular.copy(), strongly_regular=group,
                 strongly_pi_regular=group[caches.cycle_start])
    return masks


def classify(R: Ring, cap: int = CLASSIFY_CAP) -> PropertyReport:
    """Classify every ring-level flag, with least-index witnesses.

    A flag holds when it holds at every element; a false flag's witness is
    the least element index at which it fails.  The element flags come from
    the whole-ring masks of ``_element_masks``, and the witness is the first
    False in the mask.  Those masks read x - e in the row blocks of
    ``kernel._row_blocks`` for each idempotent e (up to ROW_BLOCK // n rows
    of the op table when the ring has one, and above TABLE_LIMIT one row at
    a time from ``kernel._mul_many``, in O(n * |g|) memory for a ring with
    radices), one row g*R per generator g of the unit group, and one row for
    each re-verified least False.  The flags are reported in
    ``_ELEMENT_DECIDERS`` order, then NI and reduced.
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
