"""Prime-difference sets E(x, α), the sieve factors f and h, and the constants
around the lower bound |E| ≥ C₂·x^α.

E collects P − Q over primes Q ∈ (x − x^α, x] and P ∈ (x, x + x^α]; r(d)
counts the pairs at each difference, exactly, with numpy bincounts over
blocks of Q.  f(d) = ∏_{p|d, p>2} (p−1)/(p−2) and its Möbius companion
h(n) = Σ_{a|n} μ(a) f²(n/a) are exact rationals over the primes from
arith.factorize, one d at a time.  Over a whole range, one multiplicative
sieve gives every f(n) as an integer ratio: the sieve-bound rows read it, and
Σ_{n≤x} f²(n) ≤ (8/3)x is checked with no floating point at all, the squares
summed per shared denominator in int64 blocks, then in Python ints.  The
Selberg condition predicates and the short-interval hypothesis flags are
exact inequalities on sieved counts.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .arith import (
    BudgetError,
    DomainError,
    OutOfRangeError,
    PrimeContext,
    corner_slope,
    factorize,
    prime_count,
    primes_between,
    sieve_primes,
)

C1_EXACT = Fraction(27, 16384)  # ≥ the published safe constant 0.00164
C1_SAFE = 0.00164
PAIR_BUDGET = 10**9  # difference_set's pairs: about 5 s at 2.3·10⁸ pairs/s (numpy bincount; CPython 3.11, 2 vCPU)
_PAIR_BLOCK_CELLS = 1 << 20  # differences formed at once in difference_set (8 MB of int64)
_ROW_BLOCK = 1 << 16  # rows of num² grouped at once in sum_f_squared_check
SAMPLE_BUDGET = 10**6  # exceptional_measure_scan's grid points: about 7 µs each at ξ = 10⁴ to 10⁶ (CPython 3.11, 2 vCPU)
# sum_f_squared_check's terms f²(n): 1.6 s at 10⁶, 5.0 s at 2·10⁶, 11 s at 3·10⁶
# and 88 s at 10⁷, as the lcm merge and the final gcd grow with the exact
# denominator (CPython 3.11, 2 vCPU)
TERM_BUDGET = 2 * 10**6


@dataclass(frozen=True)
class GapReport:
    """One (x, α, ε) run: the difference set with its counts and predicates."""

    x: float
    alpha: float
    epsilon: float
    E: tuple[int, ...]
    r: dict[int, int]
    hyp31: bool
    hyp32: bool
    selberg: tuple[bool, bool, bool]  # c21, c22, c23, as selberg_conditions returns them
    c2: float

    @property
    def lower_bound_holds(self) -> bool:
        return len(self.E) >= self.c2 * self.x**self.alpha

    def payload(self) -> dict:
        return {
            "x": self.x,
            "alpha": self.alpha,
            "epsilon": self.epsilon,
            "E": list(self.E),
            "r": {str(d): self.r[d] for d in sorted(self.r)},
            "hyp31": self.hyp31,
            "hyp32": self.hyp32,
            "selberg": list(self.selberg),
            "c2": self.c2,
            "lower_bound_holds": self.lower_bound_holds,
        }


def difference_set(ctx: PrimeContext, x: float, alpha: float) -> tuple[list[int], dict[int, int]]:
    """Exact E and r(d) over the two prime windows, up to PAIR_BUDGET pairs.

    Each block of Q forms P − Q for every P, at most _PAIR_BLOCK_CELLS
    differences at once, and np.bincount adds them into one int64 count per
    difference.  E is ascending and r's keys follow it, as Python ints.
    """
    lo, mid, hi, w = _prime_windows(ctx, x, alpha)
    if not x - w > 1:
        raise DomainError(f"x − x^α = {x - w} must exceed 1")
    if (mid - lo) * (hi - mid) > PAIR_BUDGET:
        raise BudgetError(f"{mid - lo}·{hi - mid} prime pairs exceed the budget of {PAIR_BUDGET}")
    if lo == mid or mid == hi:
        return [], {}
    primes, packed = ctx.primes, _packed(ctx)
    Q, P = packed[lo:mid], packed[mid:hi]
    low = primes[mid] - primes[mid - 1]  # every P exceeds every Q, so the differences start here
    span = primes[hi - 1] - primes[lo] - low + 1
    counts = np.zeros(span, dtype=np.int64)
    rows = max(1, _PAIR_BLOCK_CELLS // (hi - mid))
    for i in range(0, mid - lo, rows):
        diffs = P[None, :] - (Q[i : i + rows, None] + low)
        counts += np.bincount(diffs.ravel(), minlength=span)
    seen = np.flatnonzero(counts)
    E = (seen + low).tolist()
    return E, dict(zip(E, counts[seen].tolist()))


def _packed(ctx: PrimeContext) -> np.ndarray:
    """ctx.primes as an int64 numpy view, with no copy."""
    return np.frombuffer(ctx.primes, dtype=np.int64)


def f_factor(d: int) -> Fraction:
    """f(d) = ∏_{p|d, p>2} (p−1)/(p−2), exact."""
    if d < 1:
        raise DomainError(f"f undefined for d={d}")
    return math.prod((Fraction(p - 1, p - 2) for p, _ in factorize(d) if p > 2), start=Fraction(1))


def h_convolution(n: int) -> Fraction:
    """h(n) = Σ_{a|n} μ(a) f²(n/a), exact; vanishes unless n is odd squarefree.

    Only squarefree divisors a contribute, so the sum runs over subsets of the
    distinct primes of n with sign (−1)^|subset|.
    """
    if n < 1:
        raise DomainError(f"h undefined for n={n}")
    ps = [p for p, _ in factorize(n)]
    total = Fraction(0)
    for r in range(len(ps) + 1):
        for sub in combinations(ps, r):
            total += (-1) ** r * f_factor(n // math.prod(sub)) ** 2
    return total


def _f_sieve(ctx: PrimeContext, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """int32 arrays with f(n) = num[n]/den[n] for 1 ≤ n ≤ limit, by one
    multiplicative sieve over the odd primes of ctx; both stay ≤ n, so int32
    holds them below 2³¹.  The ratio is not reduced.

    Each odd p ≤ √limit multiplies its slice of multiples.  An n ≤ limit has
    at most one prime factor above √limit, so those primes go by cofactor j
    instead: one fancy-indexed multiply at j·P over the primes P ≤ limit/j,
    where no index repeats.
    """
    num, den = np.ones((2, limit + 1), dtype=np.int32)
    root = math.isqrt(limit)
    for p in primes_between(ctx, 2, root):
        num[p::p] *= p - 1
        den[p::p] *= p - 2
    large = _packed(ctx)[prime_count(ctx, max(root, 2)) : prime_count(ctx, limit)]
    for j in range(1, limit // (root + 1) + 1):
        P = large[: np.searchsorted(large, limit // j, side="right")]
        num[j * P] *= P - 1
        den[j * P] *= P - 2
    return num, den


def _square_sums(num: np.ndarray, den: np.ndarray) -> dict[int, int]:
    """Σ num[n]² per distinct den[n] over 1 ≤ n < len(num), as Python ints.

    numpy sorts each block of rows by den and sums its squares in int64; a
    block of `rows` rows keeps rows·limit² < 2⁶³, as num ≤ n ≤ limit.
    """
    limit = len(num) - 1
    rows = min(_ROW_BLOCK, ((1 << 63) - 1) // (limit * limit))
    groups: dict[int, int] = {}
    for lo in range(1, limit + 1, rows):
        a, b = num[lo : lo + rows].astype(np.int64), den[lo : lo + rows]
        order = np.argsort(b, kind="stable")
        b = b[order]
        starts = np.flatnonzero(np.concatenate(([True], b[1:] != b[:-1])))
        sums = np.add.reduceat((a * a)[order], starts)
        for d, sq in zip(b[starts].tolist(), sums.tolist()):
            groups[d] = groups.get(d, 0) + sq
    return groups


def sum_f_squared_check(limit: int) -> tuple[Fraction, bool, float]:
    """Σ_{n≤limit} f²(n) exactly, the ≤ (8/3)·limit verdict, and the ratio.

    f(n) = num[n]/den[n] comes from _f_sieve, and _square_sums adds num² into
    one total per distinct den.  The (L, S) pairs, each standing for S/L²,
    merge pairwise over the lcm of their L, in Python ints; the result does
    not depend on the order of the groups.  Only the final S/L² is reduced to
    a Fraction.
    """
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    if limit >= 1 << 31:
        raise OutOfRangeError(f"limit must be below 2^31, got {limit}")
    if limit > TERM_BUDGET:
        raise BudgetError(f"{limit} terms exceed the budget of {TERM_BUDGET}")
    # the sieve's size guard refuses before the arrays exist, and its primes
    # are not held through the exact sum, which sets peak memory
    pairs = list(_square_sums(*_f_sieve(sieve_primes(max(limit, 2)), limit)).items())
    while len(pairs) > 1:
        merged = []
        for (la, sa), (lb, sb) in zip(pairs[::2], pairs[1::2]):
            g = math.gcd(la, lb)
            ma, mb = lb // g, la // g  # la·ma = lb·mb = lcm(la, lb)
            merged.append((la * ma, sa * ma * ma + sb * mb * mb))
        if len(pairs) % 2:
            merged.append(pairs[-1])
        pairs = merged
    L, S = pairs[0]
    total = Fraction(S, L * L)
    return total, total <= Fraction(8, 3) * limit, float(total / limit)


def euler_products(ctx: PrimeContext, limit: int) -> tuple[float, float]:
    """Partial products over odd primes ≤ limit, ascending:
    ∏(1 − 1/(p−1)²)  and  ∏(1 + (2p−3)/(p(p−2)²))."""
    if limit < 3:
        raise DomainError(f"limit must be >= 3, got {limit}")
    twin_style = 1.0
    fsq_density = 1.0
    # a memoryview slice reads the packed primes as ints without copying them
    for p in memoryview(ctx.primes)[prime_count(ctx, 2) : prime_count(ctx, limit)]:
        twin_style *= 1 - 1 / (p - 1) ** 2
        fsq_density *= 1 + (2 * p - 3) / (p * (p - 2) ** 2)
    return twin_style, fsq_density


def _prime_windows(ctx: PrimeContext, x: float, alpha: float) -> tuple[int, int, int, float]:
    """(lo, mid, hi, x^α): ctx.primes[lo:mid] are the primes in (x − x^α, x]
    and ctx.primes[mid:hi] those in (x, x + x^α]."""
    _check_alpha(alpha)
    if not x > 1:
        raise DomainError(f"x must exceed 1, got {x}")
    w = x**alpha
    return prime_count(ctx, x - w), prime_count(ctx, x), prime_count(ctx, x + w), w


def hypothesis_31_32(
    ctx: PrimeContext, x: float, alpha: float, epsilon: float
) -> tuple[bool, bool]:
    """π(x+x^α) − π(x) ≥ (1−ε)x^α/log x, and the mirror below x."""
    lo, mid, hi, w = _prime_windows(ctx, x, alpha)
    expected = (1 - epsilon) * w / math.log(x)
    return hi - mid >= expected, mid - lo >= expected


def _slope_reach(x: float) -> tuple[float, float]:
    """ρ = x/log x, and the bound B = ρ + √x past which no corner slope matters
    to c23 at x.  For x ≥ e such a slope lies more than √x ≥ √x/log⁴x from ρ;
    below e, the 2² slope 2/log 2 ≤ B is already nearer than the margin."""
    rho = x / math.log(x)
    return rho, rho + math.sqrt(x)


def _corner_slopes(ctx: PrimeContext, bound: float) -> list[tuple[float, int, int]]:
    """Every corner slope s = (Q^k − Q^{k−1})/log Q ≤ bound with k ≥ 2, as
    (s, Q, k) tuples sorted by s, then Q, then k.

    The Q² slope grows with Q, so the walk stops at the first Q past the
    bound B; as that slope is ≥ Q and ≥ Q²/(2 log Q), every Q that matters
    is ≤ √(2B·log B), which ctx must cover.
    """
    # two square roots keep the gate finite near x = 1.7e308, where 2B·log B overflows
    prime_count(ctx, math.sqrt(2 * bound) * math.sqrt(math.log(bound)))
    slopes = []
    for q in ctx.primes:
        lq = math.log(q)
        k = 2
        while (s := corner_slope(q, k, lq)) <= bound:
            slopes.append((s, q, k))
            k += 1
        if k == 2:  # Q²'s slope already passes the bound, and so does every later Q's
            break
    slopes.sort()
    return slopes


def _nearest_in(slopes: list[tuple[float, int, int]], x: float) -> tuple[int, int, float]:
    """nearest_slope at x from a _corner_slopes list built for a bound ≥ B(x),
    skipping slopes above B(x).  The slopes are distinct up to B = 1.53·10¹⁴,
    where the gate √(2B·log B) reaches SIEVE_GUARD (3 135 224 of them, checked
    on a sieve to 10⁸; see CHANGES.md), so the nearest is ρ's neighbour below
    or above it; at equal distance the least (Q, k) wins."""
    rho, bound = _slope_reach(x)
    i = bisect_left(slopes, (rho,))  # slopes[:i] lie below ρ
    near = [(abs(rho - s), q, k) for s, q, k in slopes[max(i - 1, 0) : i + 1] if s <= bound]
    dist, q, k = min(near, default=(math.inf, 0, 0))
    return q, k, dist


def nearest_slope(ctx: PrimeContext, x: float) -> tuple[int, int, float]:
    """The prime power Q^k (k ≥ 2) whose corner slope (Q^k − Q^{k−1})/log Q is
    closest to x/log x; returns (Q, k, distance).

    Only slopes ≤ B = x/log x + √x matter (_slope_reach); ctx must hold
    every Q they need (_corner_slopes).
    """
    if not x > 1:
        raise DomainError(f"x must exceed 1, got {x}")
    return _nearest_in(_corner_slopes(ctx, _slope_reach(x)[1]), x)


def _slope_margin(x: float) -> float:
    """c23's margin √x/log⁴x."""
    return math.sqrt(x) / math.log(x) ** 4


def slope_separated(ctx: PrimeContext, x: float) -> bool:
    """c23: every corner slope (Q^k − Q^{k−1})/log Q, k ≥ 2, lies at least
    √x/log⁴x away from x/log x."""
    return nearest_slope(ctx, x)[2] >= _slope_margin(x)


def _count_conditions(ctx: PrimeContext, x: float, alpha: float, epsilon: float) -> tuple[bool, bool]:
    """c21 and c22 of selberg_conditions."""
    lo, mid, hi, w = _prime_windows(ctx, x, alpha)
    expected = w / math.log(x)
    return abs(hi - mid - expected) <= epsilon * expected, abs(mid - lo - expected) <= epsilon * expected


def selberg_conditions(
    ctx: PrimeContext, x: float, alpha: float, epsilon: float
) -> tuple[bool, bool, bool]:
    """The three Selberg condition predicates at (x, α, ε):

    c21: |π(x+x^α) − π(x) − x^α/log x| ≤ ε·x^α/log x
    c22: the mirror below x
    c23: |x/log x − (Q^k − Q^{k−1})/log Q| ≥ √x/log⁴x over all Q^k, k ≥ 2
    """
    return (*_count_conditions(ctx, x, alpha, epsilon), slope_separated(ctx, x))


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < 1:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")


def _check_epsilon(epsilon: float) -> None:
    if not 0 <= epsilon < 1:
        raise DomainError(f"epsilon must be in [0, 1), got {epsilon}")


def exceptional_measure_scan(
    ctx: PrimeContext, xi: float, alpha: float, epsilon: float, samples: int
) -> float:
    """Fraction of an even grid on [ξ, ξ + ξ/log ξ] where the conjunction of
    the three Selberg conditions fails — reported, never asserted against the
    asymptotic measure bound."""
    if samples < 10:
        raise DomainError(f"samples must be >= 10, got {samples}")
    if samples > SAMPLE_BUDGET:
        raise BudgetError(f"{samples} samples exceed the budget of {SAMPLE_BUDGET}")
    _check_epsilon(epsilon)
    _check_alpha(alpha)
    if not xi > 1:
        raise DomainError(f"xi must exceed 1, got {xi}")
    xi_hi = xi + xi / math.log(xi)
    prime_count(ctx, xi_hi + xi_hi**alpha)  # refuses a scan past the sieve up front

    def point(i):
        return xi + (xi_hi - xi) * i / (samples - 1)

    # B(t) falls, then rises: B'(t) = (log t − 1)/log²t + 1/(2√t) is > 0 from e on,
    # and grows on (1, e], where its first term's derivative (2 − log t)/(t·log³t)
    # is ≥ 1/e and its second's is under 1/4 in size; so the largest B is at an end
    slopes = _corner_slopes(ctx, max(_slope_reach(point(i))[1] for i in (0, samples - 1)))
    failures = 0
    for t in map(point, range(samples)):
        c21, c22 = _count_conditions(ctx, t, alpha, epsilon)
        if not (c21 and c22 and _nearest_in(slopes, t)[2] >= _slope_margin(t)):
            failures += 1
    return failures / samples


def lower_bound_constant(alpha: float, epsilon: float) -> tuple[Fraction, float]:
    """C₁ = 27/16384 exactly, and C₂ = 0.00164·α⁴(1−ε)⁴ with the published
    safe constant."""
    if not 0 < alpha <= 1:
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    _check_epsilon(epsilon)
    return C1_EXACT, C1_SAFE * alpha**4 * (1 - epsilon) ** 4


def sieve_bound_report(
    ctx: PrimeContext, x: float, alpha: float
) -> list[tuple[int, int, float, bool]]:
    """Per-d rows (d, r(d), (32/(3α²))·(|A|/log²x)·f(d), holds) over E(x, α);
    |A| is the exact count of integers in (x − x^α, x].

    f(d) = num[d]/den[d] from _f_sieve on ctx, which covers max(E) ≤ 2x^α ≤
    x + x^α.  int/int division rounds correctly, as float(Fraction) does, so
    each bound is the same float as scale·float(f_factor(d))."""
    E, r = difference_set(ctx, x, alpha)
    size_A = math.floor(x) - math.floor(x - x**alpha)
    scale = (32 / (3 * alpha**2)) * size_A / math.log(x) ** 2
    num, den = _f_sieve(ctx, max(E, default=0))
    bounds = [scale * (a / b) for a, b in zip(num[E].tolist(), den[E].tolist())]
    return [(d, r[d], bound, r[d] <= bound) for d, bound in zip(E, bounds)]


def build_gap_report(
    ctx: PrimeContext, x: float, alpha: float, epsilon: float
) -> GapReport:
    c2 = lower_bound_constant(alpha, epsilon)[1]  # refuses a bad ε before the pair loop
    E, r = difference_set(ctx, x, alpha)
    hyp31, hyp32 = hypothesis_31_32(ctx, x, alpha, epsilon)
    return GapReport(
        x=float(x),
        alpha=alpha,
        epsilon=epsilon,
        E=tuple(E),
        r=r,
        hyp31=hyp31,
        hyp32=hyp32,
        selberg=selberg_conditions(ctx, x, alpha, epsilon),
        c2=c2,
    )
