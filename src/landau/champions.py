"""Champions N_ρ for the cost ℓ, and the benefit functional around them.

For x > 4 put ρ = x/log x.  The champion N_ρ = ∏_{p ≤ x} p^{α_p} takes each
exponent as large as the corner slopes allow: raising p^{k−1} to p^k pays
ℓ-cost p^k − p^{k−1} (just p for k = 1, as ℓ(p⁰) = 0) and gains log p, so
α_p = max{ k : slope(p, k) ≤ ρ }.  Setting n = ℓ(N) gives g(n) = N, and
ben(M) = ℓ(M) − ℓ(N) − ρ·log(M/N) ≥ 0 measures how far any M is from
champion-hood, prime by prime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .arith import (
    LOG_TIE_EPS,
    DomainError,
    FactoredInteger,
    PrimeContext,
    corner_slope,
    ell,
    primes_between,
)
from .gtable import LandauTable


@dataclass(frozen=True)
class ChampionRecord:
    """N_ρ with its defining x, ρ = x/log x, n = ℓ(N), and boundary-tie audit."""

    x: float
    rho: float
    N: FactoredInteger
    n: int
    tie_flags: tuple[int, ...]

    def payload(self) -> dict:
        return {
            "x": self.x,
            "rho": self.rho,
            "n": self.n,
            "factors": [[p, a] for p, a in self.N.factors],
            "tie_flags": list(self.tie_flags),
        }

    # built once per champion for benefit_by_prime, which runs once per candidate
    @cached_property
    def _factor_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.N.factors)

    @cached_property
    def _zero_terms(self) -> dict[int, float]:
        return dict.fromkeys((p for p, _ in self.N.factors), 0.0)


def _exponent_with_tie(p: int, rho: float) -> tuple[int, bool]:
    lp = math.log(p)
    k, tie = 0, False
    while True:
        s = corner_slope(p, k + 1, lp)
        if s >= rho + LOG_TIE_EPS:
            return k, tie
        tie = tie or s > rho - LOG_TIE_EPS  # boundary tie: larger exponent wins
        k += 1


def build_champion(ctx: PrimeContext, x: float) -> ChampionRecord:
    """N_ρ at ρ = x/log x, over all primes p ≤ x."""
    if not x > 4:
        raise DomainError(f"x must exceed 4, got {x}")
    rho = x / math.log(x)
    fs, ties = [], []
    for p in primes_between(ctx, 0, x):
        e, tie = _exponent_with_tie(p, rho)
        if tie:
            ties.append(p)
        if e:
            fs.append((p, e))
    N = FactoredInteger(fs)
    return ChampionRecord(x=float(x), rho=rho, N=N, n=ell(N), tie_flags=tuple(ties))


def benefit(champ: ChampionRecord, M: FactoredInteger) -> float:
    """ben(M) = ℓ(M) − ℓ(N) − ρ·log(M/N); 0 at M = N, else ≥ 0."""
    return ell(M) - champ.n - champ.rho * (M.log_value - champ.N.log_value)


def _prime_term(rho: float, p: int, a: int, b: int) -> float:
    """p's term in ben(M) for p^a ∥ N, p^b ∥ M: ℓ(p^b) − ℓ(p^a) − ρ(b − a)·log p."""
    return ((p**b if b else 0) - (p**a if a else 0)) - rho * (b - a) * math.log(p)


def benefit_by_prime(champ: ChampionRecord, M: FactoredInteger) -> dict[int, float]:
    """ben(M) as one _prime_term per prime of N and M, ascending; each is ≥ 0.
    Where N and M share p's exponent the term is exactly +0.0, so it is
    computed only for the (p, e) pairs that one factor list has and the other
    lacks."""
    own, alphas, betas = champ._factor_set, {}, {}
    for p, e in own.symmetric_difference(M.factors):
        (alphas if (p, e) in own else betas)[p] = e
    terms = champ._zero_terms.copy()
    top = next(reversed(terms), 0)
    for p in sorted(alphas.keys() | betas.keys()):
        terms[p] = _prime_term(champ.rho, p, alphas.get(p, 0), betas.get(p, 0))
    # primes new in M were appended after N's; restore the order if one is smaller
    if any(p < top for p in betas.keys() - alphas.keys()):
        terms = dict(sorted(terms.items()))
    return terms


def verify_membership_in_G(champ: ChampionRecord, table: LandauTable) -> bool:
    """True iff g(n) = N at n = ℓ(N) — the computable face of champion-hood."""
    return table.g(champ.n) == champ.N
