"""Landau's g(n) by exact DP over prime powers, plus oracle and derived sequences.

g(n) = max lcm of the partitions of n = max{ M : ℓ(M) ≤ n }.  The DP walks the
primes in increasing order over one float64 row of logs: after prime p,
logs[j] is the log of the largest M with ℓ(M) ≤ j built from primes ≤ p.  Each
prime updates the whole row with numpy, one shifted maximum per power p^e ≤ n,
and stores the winning exponent per budget in a uint8 choice row.  Rows stay
monotone in j, so budget slack never needs a separate pass.

Floats decide a cell only when its best candidate beats the runner-up by at
least LOG_TIE_EPS; every other cell is settled in exact big integers, whose
values come from walking back the stored choice rows.  Every prime ≤ √n is
relaxed; a larger prime is relaxed only when the current row shows that it
can raise some cell, and choice rows are kept only for the primes relaxed.
One backtrack over the primes relaxed, largest first, reads off the
exponents of g(n) for every n at once.  The table keeps them as runs: the
increase points, where some exponent changes, and one value per run between
them, so increase points and γ(n) need no comparison.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arith import (
    LOG_TIE_EPS,
    BudgetError,
    DomainError,
    FactoredInteger,
    OutOfRangeError,
    PrimeContext,
    factorize,
    primes_between,
    sieve_primes,
)

BRUTE_FORCE_LIMIT = 35
TABLE_GUARD = 200_000  # memory guard on n_max: landau_g refuses larger tables


class CacheParseError(ValueError):
    """A table cache file failed to parse; the message names the line."""


@dataclass(frozen=True)
class LandauTable:
    """g(1..n_max) as runs: g(n) = runs[i] for starts[i] ≤ n < starts[i+1]."""

    n_max: int
    starts: list[int]  # the increase points, starts[0] = 1
    runs: list[FactoredInteger]

    def g(self, n: int) -> FactoredInteger:
        if not 1 <= n <= self.n_max:
            raise OutOfRangeError(f"n={n} outside table range [1, {self.n_max}]")
        return self.runs[bisect_right(self.starts, n) - 1]


@dataclass(frozen=True)
class IncreasePoints:
    """The n_k with g(n_k) > g(n_k − 1), plus consecutive gaps."""

    points: list[int]
    gaps: list[int]


@dataclass(frozen=True)
class GapStatistics:
    histogram: dict[int, int]
    min_gap: int
    mean_gap: float


def brute_force_g(n: int) -> FactoredInteger:
    """Maximum lcm over all partitions of n, by exhaustive enumeration.

    Parts equal to 1 never change an lcm, so only parts ≥ 2 are enumerated,
    in non-increasing order.
    """
    if n < 1:
        raise DomainError(f"g undefined for n={n}")
    if n > BRUTE_FORCE_LIMIT:
        raise OutOfRangeError(
            f"brute force capped at n={BRUTE_FORCE_LIMIT}; partition count explodes"
        )
    best = 1

    def rec(remaining: int, max_part: int, acc: int) -> None:
        nonlocal best
        if acc > best:
            best = acc
        for m in range(min(max_part, remaining), 1, -1):
            rec(remaining - m, m, math.lcm(acc, m))

    rec(n, n, 1)
    return FactoredInteger(factorize(best))


def _costs(p: int, n: int) -> list[int]:
    """ℓ(p^e) for e = 0, 1, … while p^e ≤ n, indexed by e; ℓ(p⁰) = 0."""
    cs, c = [0], p
    while c <= n:
        cs.append(c)
        c *= p
    return cs


def _exact(primes: list[int], choice: list[np.ndarray], k: int) -> int:
    """Exact value of budget k over `primes`, walked back through their choice rows."""
    v = 1
    for p, row in zip(reversed(primes), reversed(choice)):
        e = int(row[k])
        if e:
            c = p**e
            v *= c
            k -= c
    return v


def _relax_prime(logs, p: int, primes: list[int], choice: list[np.ndarray]):
    """Relax the row `logs` with every power of p; returns the new row.

    Appends p to `primes` and its uint8 row of winning exponents to `choice`.
    A cell whose best and second-best candidates lie within LOG_TIE_EPS is
    settled by expanding every candidate within LOG_TIE_EPS of the best exactly.
    """
    n = len(logs) - 1
    lp = math.log(p)
    costs = _costs(p, n)
    best = logs.copy()
    second = np.full(n + 1, -np.inf)
    row = np.zeros(n + 1, dtype=np.uint8)
    for e, c in enumerate(costs[1:], 1):
        cand = logs[:-c] + e * lp
        b, s = best[c:], second[c:]
        np.maximum(s, np.minimum(cand, b), out=s)
        row[c:][cand > b] = e
        np.maximum(b, cand, out=b)
    for j in np.flatnonzero(best - second < LOG_TIE_EPS).tolist():
        top, win = best[j], None
        for e, c in enumerate(costs):
            if c > j:
                break
            cand = logs[j - c] + e * lp
            if cand > top - LOG_TIE_EPS:
                v = _exact(primes, choice, j - c) * p**e
                if win is None or v > win[0]:
                    win = (v, e, cand)
        _, row[j], best[j] = win
    primes.append(p)
    choice.append(row)
    return best


def _relax(ctx: PrimeContext, n_max: int):
    """Float logs of g(0..n_max), the primes relaxed, and their choice rows.

    One pass over the primes ≤ n_max, ascending.  Every prime ≤ √n_max is
    relaxed.  A larger prime q fits a budget only as q¹, so it raises no cell
    when gain = min over j ≥ q of logs[j] − logs[j − q] is ≥ log q + eps; then
    q is skipped, with every later prime q' with log q' ≤ gain − eps.  A skip
    is final.  Relaxing any later prime is a max-plus update that includes the
    zero-cost option, so it keeps logs[j] − logs[j − q] ≥ log q + eps, up to a
    float error of about 10⁻¹¹, far below eps.  And the row is nondecreasing,
    so the least gain only grows with q.
    """
    eps = LOG_TIE_EPS
    ps = primes_between(ctx, 0, n_max)
    root = math.isqrt(n_max)
    logs = np.zeros(n_max + 1)
    primes: list[int] = []
    choice: list[np.ndarray] = []
    i = 0
    while i < len(ps):
        q = ps[i]
        if q > root:
            gain = float(np.min(logs[q:] - logs[:-q]))
            if gain >= math.log(q) + eps:
                i = bisect_right(ps, gain - eps, lo=i + 1, key=math.log)
                continue
        logs = _relax_prime(logs, q, primes, choice)
        i += 1
    return logs, primes, choice


def landau_g(ctx: PrimeContext, n_max: int) -> LandauTable:
    """Exact table of g(1..n_max) by DP over prime powers.

    Requires ctx.limit ≥ n_max: any prime p in an optimal M has ℓ(p^k) = p^k ≤ n.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    if n_max > TABLE_GUARD:
        raise BudgetError(f"n_max={n_max} exceeds guard {TABLE_GUARD}")

    _, primes, choice = _relax(ctx, n_max)

    # walk every budget back at once, largest prime first; afterwards
    # choice[i][n] is the exponent of primes[i] in g(n)
    k = np.arange(n_max + 1)
    fresh = np.zeros(n_max + 1, dtype=bool)  # fresh[n]: g(n) > g(n − 1)
    fresh[1] = True
    for p, row in zip(reversed(primes), reversed(choice)):
        row[:] = row[k]
        k -= np.array(_costs(p, n_max))[row]
        fresh[2:] |= row[2:] != row[1:-1]

    starts = np.flatnonzero(fresh)
    heads = np.zeros((len(starts), len(choice)), dtype=np.uint8)
    for i, row in enumerate(choice):
        heads[:, i] = row[starts]
    rows, cols = np.nonzero(heads)  # row-major, so primes ascend within a row
    ps = [primes[c] for c in cols.tolist()]
    es = heads[rows, cols].tolist()
    cuts = np.searchsorted(rows, np.arange(len(starts) + 1)).tolist()
    distinct = [FactoredInteger(zip(ps[a:b], es[a:b])) for a, b in zip(cuts, cuts[1:])]
    return LandauTable(n_max=n_max, starts=starts.tolist(), runs=distinct)


def increase_points(table: LandauTable) -> IncreasePoints:
    """n_1 = 1 by convention, then every n ≥ 2 with g(n) > g(n−1)."""
    pts = list(table.starts)
    return IncreasePoints(points=pts, gaps=[b - a for a, b in zip(pts, pts[1:])])


def gamma(table: LandauTable, n: int) -> int:
    """γ(n) = number of increase points ≤ n (n_1 = 1 counted)."""
    if n < 1:
        raise DomainError(f"gamma undefined for n={n}")
    if n > table.n_max:
        raise OutOfRangeError(f"n={n} beyond table n_max={table.n_max}")
    return bisect_right(table.starts, n)


def gap_statistics(points: IncreasePoints) -> GapStatistics:
    """Exact histogram of consecutive n_{k+1} − n_k, with min and mean."""
    if len(points.points) < 2:
        raise DomainError("need at least two increase points")
    gaps = points.gaps
    hist = dict(sorted(Counter(gaps).items()))
    return GapStatistics(histogram=hist, min_gap=min(gaps), mean_gap=sum(gaps) / len(gaps))


# ---------------------------------------------------------------------------
# table cache: one line per n, `n,p1^e1 p2^e2 ...` (primes ascending), `n,1`
# for g(n) = 1; UTF-8, LF.  The reader trusts no line: it rebuilds the table by
# the DP and refuses a file that differs from it by one byte.


def factor_token(factors) -> str:
    """(p, e) pairs as `p1^e1 p2^e2 ...`, or `1` for none: the cache line body."""
    return " ".join(f"{p}^{e}" for p, e in factors) if factors else "1"


def _cache_lines(table: LandauTable) -> list[bytes]:
    return [f"{n},{factor_token(table.g(n).factors)}\n".encode() for n in range(1, table.n_max + 1)]


def write_table_cache(table: LandauTable, path) -> None:
    Path(path).write_bytes(b"".join(_cache_lines(table)))


def read_table_cache(path) -> LandauTable:
    """g(1..n), n the file's line count, by the DP; the file must be exactly
    what write_table_cache writes for that table, or CacheParseError names the
    first line that differs.  n past TABLE_GUARD is refused by landau_g."""
    lines = Path(path).read_bytes().splitlines(keepends=True)
    if not lines:
        raise CacheParseError("line 1: cache file is empty")
    n = len(lines)
    table = landau_g(sieve_primes(max(n, 3)), n)
    for i, (got, want) in enumerate(zip(lines, _cache_lines(table)), 1):
        if got != want:
            raise CacheParseError(f"line {i}: {got!r} differs from the DP's {want!r}")
    return table
