"""Number-theoretic closed forms for the (unit-)regularity of Z_n and Z_nG.

`closed_forms` is the one list of which closed form decides which
`classify` flag: `cli.fast_verdicts` reports it next to the brute-force
flags, and `harness._check_instance` cross-checks the falsifier's Z_n and
Z_nG instances against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .groups import FiniteGroup


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, exponent) pairs, primes increasing."""

    n: int
    factors: tuple

    def reconstruct(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out


def factorize(n: int) -> Factorization:
    """Trial-division factorization; inputs stay small here."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = n
    factors = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(n).factors)


def zn_unit_regular(n: int) -> bool:
    """Z_n is unit-regular exactly when n is squarefree."""
    return is_squarefree(n)


def zng_unit_regular(n: int, G: FiniteGroup) -> bool:
    """Z_nG unit-regular: n squarefree and every element order coprime to n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return is_squarefree(n) and all(gcd(n, k) == 1 for k in G.element_orders)


def connell_regular_zn(n: int, G: FiniteGroup) -> bool:
    """Regularity of Z_nG by Connell's criterion (I. G. Connell, "On the
    group ring", Canad. J. Math. 15 (1963)): for a finite group G, RG is
    regular iff R is regular and |G|*1 is a unit of R.  Over R = Z_n that is
    n squarefree and gcd(n, |G|) = 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return is_squarefree(n) and gcd(n, G.order) == 1


def closed_forms(n: int, G: FiniteGroup | None = None) -> list:
    """The closed forms that decide a flag of Z_n (G None) or of Z_nG, as
    (source, flag, test, verdict) tuples: Lemma 4.4 for Z_n, Theorem 4.5 and
    Connell's criterion for Z_nG."""
    if G is None:
        return [("Lemma 4.4", "unit_regular", "squarefree", zn_unit_regular(n))]
    return [
        ("Theorem 4.5", "unit_regular", "coprimality", zng_unit_regular(n, G)),
        ("Connell", "regular", "Connell", connell_regular_zn(n, G)),
    ]
