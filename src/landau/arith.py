"""Prime sieving and factorization, the cost ℓ, exact factored arithmetic.

ℓ is additive with ℓ(p^k) = p^k for k ≥ 1 and ℓ(1) = 0.  Everything downstream
(g(n) tables, champions, swap neighborhoods) keeps integers in factored form:
values overflow 64 bits near n ≈ 90, so sizes are compared through cached
natural logs with an exact big-integer fallback when the logs nearly tie.
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import starmap

import numpy as np

# Below this log gap a comparison is decided by exact expansion.  The same
# slack decides corner-slope ties in champions and is the tolerance of the
# eq. 5.2 check in windows, but there it bounds the float error only while
# log N < 2¹³ (x below about 8·10³): ben(M) = ℓ(M) − n − ρ·(log M − log N)
# rounds by about ρ·ulp(log N), which is 1.7e-11 at x = 1009, 2.0e-9 at
# x = 10007 and 2.7e-8 at x = 40009.  Past 2¹³ the verdicts rest on the
# margin (m − n) − ben(g(m)) instead: over every window value other than N it
# is at least 0.19 up to x = 40009 (α = 0.45 to x = 10007, then 0.4), and at
# M = N ben is exactly 0.  The largest
# float logs compared are the g-table DP's cells: each is a sum of at most
# k positive rounded terms e·log p, k the number of primes the DP relaxes, so
# its error stays below about k·2⁻⁵²·log g(n).  At n = 10⁴ that is
# 70·2⁻⁵²·315 ≈ 4.9e-12; at TABLE_GUARD = 2·10⁵ it is 263·2⁻⁵²·1643 ≈ 9.6e-11,
# so two cells compared still sit well inside the margin.
# FactoredInteger.log_value is an fsum, correct to about one ulp.
LOG_TIE_EPS = 1e-9
# largest sieve limit: at 10⁸ the 5 761 455 primes take 46 MB packed, and
# `landau constants --limit 100000000` peaks at 76 MB RSS in about 3 s
# (2 vCPU, CPython 3.11).  prime_gaps._nearest_in needs distinct corner slopes
# within this reach: raising it means checking that again (see CHANGES.md)
SIEVE_GUARD = 10**8
# largest trial divisor factorize tries: about a second of trial division; a
# cofactor that outlasts it is neither below 10¹⁴ nor proven prime
TRIAL_DIVISION_GUARD = 10**7


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class OutOfRangeError(ValueError):
    """Query beyond the range a context or table was built for."""


class BudgetError(RuntimeError):
    """Enumeration would exceed its configured work budget."""


class FactoredInteger:
    """A positive integer as a tuple of (prime, exponent) pairs.

    Immutable; primes strictly increasing, exponents ≥ 1, the integer 1 is the
    empty tuple.  The plain value is only materialized on demand.
    """

    __slots__ = ("factors", "log_value", "_value")

    def __init__(self, factors=()):
        fs = tuple((operator.index(p), operator.index(e)) for p, e in factors)
        prev = 1
        for p, e in fs:
            if p < 2 or e < 1:
                raise DomainError(f"bad factor {p}^{e}")
            if p <= prev:
                raise DomainError("primes must be strictly increasing")
            prev = p
        self.factors = fs
        self.log_value = math.fsum(e * math.log(p) for p, e in fs)
        self._value = None

    @classmethod
    def _trusted(cls, factors: tuple, log_terms) -> "FactoredInteger":
        """For factors the program derived from checked ones: no validation.
        log_terms are floats whose exact sum is Σ e·log p; fsum rounds that sum
        correctly, so log_value equals what __init__ computes, bit for bit."""
        self = cls.__new__(cls)
        self.factors = factors
        self.log_value = math.fsum(log_terms)
        self._value = None
        return self

    def value(self) -> int:
        """Exact integer value (arbitrary precision, cached)."""
        if self._value is None:
            v = 1
            for p, e in self.factors:
                v *= p**e
            self._value = v
        return self._value

    def __eq__(self, other):
        return isinstance(other, FactoredInteger) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __lt__(self, other):
        if not isinstance(other, FactoredInteger):
            return NotImplemented
        return compare_factored(self, other) < 0

    def __gt__(self, other):
        if not isinstance(other, FactoredInteger):
            return NotImplemented
        return compare_factored(self, other) > 0

    def __str__(self):
        if not self.factors:
            return "1"
        return "·".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)

    def __repr__(self):
        return f"FactoredInteger({self})"


@dataclass(frozen=True)
class PrimeContext:
    """All primes ≤ limit, increasing, packed as int64: an element reads back
    as a Python int, and np.frombuffer views the whole store without a copy."""

    limit: int
    primes: array


def sieve_primes(limit: int) -> PrimeContext:
    """Segmented sieve of Eratosthenes: every prime ≤ limit, increasing.

    Each 1 MB segment mask appends its primes to one array('q') as raw int64
    bytes, 8 bytes a prime: at 10⁷ the store is 5.1 MiB and tracemalloc's peak
    6.6 MiB, where a list of Python ints took 26 MiB.  One odd-only mask to
    10⁷ with its index array would add about 9 MB at peak for about 5% less
    time."""
    if limit < 2:
        raise DomainError(f"no primes below 2 (limit={limit})")
    if limit > SIEVE_GUARD:
        raise BudgetError(f"sieve limit {limit} exceeds guard {SIEVE_GUARD}")
    root = math.isqrt(limit)
    base_primes = sieve_primes(root).primes if root >= 2 else []

    primes = array("q")
    seg = 1 << 20
    for lo in range(2, limit + 1, seg):
        hi = min(lo + seg, limit + 1)
        mask = np.ones(hi - lo, dtype=bool)
        for p in base_primes:
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                mask[start - lo :: p] = False
        primes.frombytes((np.flatnonzero(mask) + lo).astype(np.int64).tobytes())
    return PrimeContext(limit=limit, primes=primes)


def prime_count(ctx: PrimeContext, x) -> int:
    """π(x) = #{p ≤ x} for real x up to the sieve limit: the one place that
    checks a prime interval against the sieve."""
    if x != x:
        raise DomainError("π(x) undefined for x = nan")
    if x > ctx.limit:
        raise OutOfRangeError(f"x={x} exceeds sieve limit {ctx.limit}")
    return bisect_right(ctx.primes, x)


def primes_between(ctx: PrimeContext, lo, hi) -> list[int]:
    """The primes counted by π(hi) − π(lo): lo < p ≤ hi, increasing, as a list."""
    return ctx.primes[prime_count(ctx, lo) : prime_count(ctx, hi)].tolist()


def _proven_prime(n: int) -> bool:
    """True when Miller–Rabin proves n prime.  Tried only from 2³², below
    which trial division is quick, up to 3.3·10²⁴, below which the first 13
    prime bases are exact (Sorenson and Webster, Math. Comp. 86, 2017)."""
    if not 1 << 32 <= n < 3_317_044_064_679_887_385_961_981:
        return False
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n − 1 = d·2^s with d odd
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        y = pow(a, (n - 1) >> s, n)
        if y != 1 and all(pow(y, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n ≥ 1 as (p, e) pairs, primes ascending.

    Trial division; a large cofactor that Miller–Rabin proves prime ends the
    search at once, and one with no factor up to TRIAL_DIVISION_GUARD is
    refused.
    """
    if n < 1:
        raise DomainError(f"cannot factorize n={n}")
    fs = []
    d = 2
    proven = _proven_prime(n)
    while not proven and d * d <= n:
        if d > TRIAL_DIVISION_GUARD:
            raise BudgetError(f"no factor of {n} up to {TRIAL_DIVISION_GUARD}, and not proven prime")
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            fs.append((d, e))
            proven = _proven_prime(n)
        d += 1 if d == 2 else 2
    if n > 1:
        fs.append((n, 1))
    return fs


def ell(M: FactoredInteger) -> int:
    """ℓ(M) = Σ p^e over the factorization of M; ℓ(1) = 0."""
    return sum(starmap(pow, M.factors))


def corner_slope(p: int, k: int, lp: float) -> float:
    """(ℓ(p^k) − ℓ(p^{k−1})) / lp, lp = log p, ℓ(p⁰) = 0: the slope of p^{k−1} → p^k."""
    return p / lp if k == 1 else (p**k - p ** (k - 1)) / lp


def compare_factored(A: FactoredInteger, B: FactoredInteger) -> int:
    """Exact ordering of two factored integers: −1, 0, or 1.

    Logs decide unless they agree within LOG_TIE_EPS, where arbitrary
    precision takes over — near-ties are real once values clear 64 bits.
    """
    if A is B:
        return 0
    d = A.log_value - B.log_value
    if abs(d) >= LOG_TIE_EPS:
        return -1 if d < 0 else 1
    a, b = A.value(), B.value()
    return (a > b) - (a < b)
