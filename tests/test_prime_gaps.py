import math
import random
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau import prime_gaps
from landau.arith import (
    SIEVE_GUARD,
    BudgetError,
    DomainError,
    OutOfRangeError,
    corner_slope,
    factorize,
    prime_count,
    primes_between,
    sieve_primes,
)
from landau.champions import build_champion
from landau.prime_gaps import (
    C1_EXACT,
    build_gap_report,
    difference_set,
    euler_products,
    exceptional_measure_scan,
    f_factor,
    h_convolution,
    hypothesis_31_32,
    lower_bound_constant,
    nearest_slope,
    selberg_conditions,
    sieve_bound_report,
    slope_separated,
    sum_f_squared_check,
)

# ---------------------------------------------------------------- E(x, α)


def test_difference_set_example(ctx_million):
    E, r = difference_set(ctx_million, 100, 0.5)
    assert E == [4, 6, 10, 12]
    assert r == {4: 1, 6: 1, 10: 1, 12: 1}
    # pair count factors as the product of the two window counts
    assert sum(r.values()) == (prime_count(ctx_million, 110) - prime_count(ctx_million, 100)) * (
        prime_count(ctx_million, 100) - prime_count(ctx_million, 90)
    )


def test_difference_set_empty_window(ctx_million):
    # (114.1, 120] and (120, 125.9] contain no primes at all
    E, r = difference_set(ctx_million, 120, 0.37)
    assert E == [] and r == {}


def test_difference_set_guards(ctx_small):
    with pytest.raises(OutOfRangeError):
        difference_set(ctx_small, 10**4, 0.5)
    with pytest.raises(DomainError):
        difference_set(ctx_small, 2, 0.9)


def test_difference_set_pair_budget():
    # 37 054 · 35 748 ≈ 1.32·10⁹ prime pairs: refused before the loop
    ctx = sieve_primes(1_600_000)
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        difference_set(ctx, 10**6, 0.95)
    assert time.perf_counter() - start < 0.5


def test_difference_set_context_independent(ctx_million):
    other = sieve_primes(150_000)
    assert difference_set(ctx_million, 10**5, 0.45) == difference_set(other, 10**5, 0.45)


def test_difference_set_bounds(ctx_million):
    E, r = difference_set(ctx_million, 10**5, 0.45)
    assert E == sorted(r)
    assert all(r[d] >= 1 for d in E)
    assert all(0 < d <= 2 * (10**5) ** 0.45 for d in E)


def difference_set_by_loop(ctx, x, alpha):
    """Reference: every pair of the two windows, one dict update each."""
    w = x**alpha
    r = {}
    for p in primes_between(ctx, x, x + w):
        for q in primes_between(ctx, x - w, x):
            r[p - q] = r.get(p - q, 0) + 1
    return sorted(r), dict(sorted(r.items()))


def assert_same_pairs(got, want):
    (E, r), (want_E, want_r) = got, want
    assert E == want_E and r == want_r
    assert list(r) == list(want_r)  # keys ascending, as E
    assert all(type(d) is int for d in E)
    assert all(type(d) is int and type(n) is int for d, n in r.items())


@settings(deadline=None, max_examples=150)
@given(
    x=st.floats(min_value=2, max_value=2 * 10**4),
    alpha=st.floats(min_value=0.05, max_value=0.7),
    cells=st.sampled_from([1, 5, 64, prime_gaps._PAIR_BLOCK_CELLS]),
)
def test_difference_set_matches_double_loop(ctx_million, x, alpha, cells):
    # small blocks of cells put one row of Q, or a few, in each bincount
    with mock.patch.object(prime_gaps, "_PAIR_BLOCK_CELLS", cells):
        if not x - x**alpha > 1:
            with pytest.raises(DomainError):
                difference_set(ctx_million, x, alpha)
            return
        assert_same_pairs(difference_set(ctx_million, x, alpha), difference_set_by_loop(ctx_million, x, alpha))


def test_difference_set_matches_double_loop_at_scale(ctx_million):
    for x, alpha in ((10**5, 0.45), (9 * 10**5, 0.45), (5 * 10**5, 0.7)):
        want = difference_set_by_loop(ctx_million, x, alpha)
        assert_same_pairs(difference_set(ctx_million, x, alpha), want)
        with mock.patch.object(prime_gaps, "_PAIR_BLOCK_CELLS", 1000):
            assert_same_pairs(difference_set(ctx_million, x, alpha), want)


# ---------------------------------------------------------------- f and h


def test_f_examples():
    assert f_factor(1) == 1
    assert f_factor(3) == 2
    assert f_factor(15) == Fraction(8, 3)
    assert f_factor(7) == Fraction(6, 5)
    assert f_factor(12) == 2  # only the odd prime 3 counts
    with pytest.raises(DomainError):
        f_factor(0)


def test_h_examples():
    assert h_convolution(3) == 3
    assert h_convolution(2) == 0
    assert h_convolution(9) == 0
    for k in range(1, 8):
        assert h_convolution(2**k) == 0
    for p in (3, 5, 7, 11, 13):
        assert h_convolution(p) == Fraction(2 * p - 3, (p - 2) ** 2)
        assert h_convolution(p**2) == 0
    with pytest.raises(DomainError):
        h_convolution(0)


def test_h_multiplicative():
    rng = random.Random(42)
    pairs = 0
    while pairs < 200:
        m, n = rng.randint(1, 1000), rng.randint(1, 1000)
        if math.gcd(m, n) == 1:
            assert h_convolution(m * n) == h_convolution(m) * h_convolution(n)
            pairs += 1


def test_h_inverts_to_f_squared():
    for n in range(1, 2001):
        total = sum(h_convolution(a) for a in range(1, n + 1) if n % a == 0)
        assert total == f_factor(n) ** 2


# ---------------------------------------------------------------- Σ f²


def test_sum_f_squared_small():
    s, holds, ratio = sum_f_squared_check(1)
    assert s == 1 and holds
    with pytest.raises(DomainError):
        sum_f_squared_check(0)
    s, holds, _ = sum_f_squared_check(10)
    # 16 + 2·(4/3)² + (6/5)² with f(5)=f(10)=4/3, f(7)=6/5
    assert s == Fraction(4724, 225)
    assert holds


def test_sum_f_squared_matches_f_factor():
    # 16385 reaches past the first block of 2^14 terms
    for limit in (500, 16385):
        s, _, _ = sum_f_squared_check(limit)
        assert s == sum(f_factor(n) ** 2 for n in range(1, limit + 1))


def sum_f_squared_by_fractions(limit):
    """Reference: one reduced Fraction f²(n) per n from a multiplicative sieve
    of num and den, added pairwise."""
    num, den = np.ones((2, limit + 1), dtype=np.int64)
    for p in sieve_primes(max(limit, 2)).primes:
        if 2 < p <= limit:
            num[p::p] *= p - 1
            den[p::p] *= p - 2
    terms = [Fraction(a * a, b * b) for a, b in zip(num[1:].tolist(), den[1:].tolist())]
    while len(terms) > 1:
        paired = [terms[i] + terms[i + 1] for i in range(0, len(terms) - 1, 2)]
        if len(terms) % 2:
            paired.append(terms[-1])
        terms = paired
    total = terms[0]
    return total, total <= Fraction(8, 3) * limit, float(total / limit)


def assert_same_as_fraction_sum(limit):
    s, holds, ratio = sum_f_squared_check(limit)
    want_s, want_holds, want_ratio = sum_f_squared_by_fractions(limit)
    assert s == want_s and (s.numerator, s.denominator) == (want_s.numerator, want_s.denominator)
    assert holds is want_holds
    assert ratio.hex() == want_ratio.hex()


def test_sum_f_squared_equals_fraction_sum():
    # both sides of the 2^14 block edges, and past the second
    for limit in (1, 2, 3, 10, 16383, 16384, 16385, 32769):
        assert_same_as_fraction_sum(limit)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=3000))
def test_sum_f_squared_equals_fraction_sum_property(limit):
    assert_same_as_fraction_sum(limit)


def _refuse(*args, **kwargs):
    raise AssertionError("reached before the range check")


class _NoArrays:
    def __getattr__(self, name):
        return _refuse


def test_sum_f_squared_refuses_int32_overflow(monkeypatch):
    # refused before any array or sieve is built; the term budget, lifted
    # here, would refuse both limits first
    monkeypatch.setattr(prime_gaps, "TERM_BUDGET", 1 << 32)
    monkeypatch.setattr(prime_gaps, "np", _NoArrays())
    monkeypatch.setattr(prime_gaps, "sieve_primes", _refuse)
    with pytest.raises(OutOfRangeError):
        sum_f_squared_check(2**31)
    with pytest.raises(AssertionError):
        sum_f_squared_check(2**31 - 1)  # the last limit int32 holds gets past


def test_sum_f_squared_refuses_past_sieve_guard(monkeypatch):
    monkeypatch.setattr(prime_gaps, "TERM_BUDGET", 1 << 32)
    monkeypatch.setattr(prime_gaps, "np", _NoArrays())
    with pytest.raises(BudgetError, match="sieve limit"):
        sum_f_squared_check(SIEVE_GUARD + 1)


def test_sum_f_squared_term_budget(monkeypatch):
    start = time.perf_counter()
    for limit in (prime_gaps.TERM_BUDGET + 1, 10**8, 2**31 - 1):
        with pytest.raises(BudgetError, match="terms exceed"):
            sum_f_squared_check(limit)
    assert time.perf_counter() - start < 0.5
    # refused before any array or sieve is built, and the boundary itself runs
    monkeypatch.setattr(prime_gaps, "TERM_BUDGET", 1000)
    assert sum_f_squared_check(1000) == sum_f_squared_by_fractions(1000)
    monkeypatch.setattr(prime_gaps, "np", _NoArrays())
    monkeypatch.setattr(prime_gaps, "sieve_primes", _refuse)
    with pytest.raises(BudgetError):
        sum_f_squared_check(1001)


def f_sieve_by_slices(ctx, limit):
    """Reference: one slice multiply per odd prime ≤ limit."""
    num, den = np.ones((2, limit + 1), dtype=np.int32)
    for p in ctx.primes:
        if 2 < p <= limit:
            num[p::p] *= p - 1
            den[p::p] *= p - 2
    return num, den


def test_f_sieve_matches_slice_loop():
    # every square k² and its neighbours move √limit across a prime
    ctx = sieve_primes(10**5)
    limits = [*range(401), *(k * k + d for k in range(2, 101) for d in (-1, 0, 1)), 10**5]
    for limit in limits:
        num, den = prime_gaps._f_sieve(ctx, limit)
        want_num, want_den = f_sieve_by_slices(ctx, limit)
        assert num.dtype == den.dtype == np.int32
        assert np.array_equal(num, want_num) and np.array_equal(den, want_den), limit


def square_sums_by_dict(num, den):
    """Reference: num[n]² added into one Python int per den[n], n by n."""
    groups = {}
    for a, b in zip(num[1:].tolist(), den[1:].tolist()):
        groups[b] = groups.get(b, 0) + a * a
    return groups


@pytest.mark.parametrize("rows", [1, 7, 256])
def test_square_sums_across_row_blocks(monkeypatch, rows):
    monkeypatch.setattr(prime_gaps, "_ROW_BLOCK", rows)
    for limit in (1, 2, 255, 256, 257, 3000):
        num, den = prime_gaps._f_sieve(sieve_primes(max(limit, 2)), limit)
        assert prime_gaps._square_sums(num, den) == square_sums_by_dict(num, den)
        assert_same_as_fraction_sum(limit)


def test_sum_f_squared_large():
    for limit in (10**3, 10**4):
        s, holds, ratio = sum_f_squared_check(limit)
        assert holds
        assert 2.4 <= ratio <= 8 / 3


# ---------------------------------------------------------------- Euler products


def test_euler_products_tiny(ctx_small):
    assert euler_products(ctx_small, 3) == (0.75, 2.0)


def test_euler_products_million(ctx_million):
    twin_style, fsq_density = euler_products(ctx_million, 10**6)
    assert twin_style == pytest.approx(0.6602, abs=1e-3)
    assert twin_style < 2 / 3
    assert fsq_density == pytest.approx(2.63985, abs=1e-3)


def test_euler_products_guards(ctx_small):
    with pytest.raises(DomainError):
        euler_products(ctx_small, 2)
    with pytest.raises(OutOfRangeError):
        euler_products(ctx_small, 10**5)


# ---------------------------------------------------------------- predicates


def test_hypothesis_31_32_example(ctx_million):
    assert hypothesis_31_32(ctx_million, 100, 0.5, 0.5) == (True, False)
    # ε ≥ 1 makes the threshold nonpositive
    assert hypothesis_31_32(ctx_million, 100, 0.5, 1.5) == (True, True)


def test_selberg_example(ctx_million):
    assert selberg_conditions(ctx_million, 100, 0.5, 0.5) == (False, False, True)
    assert selberg_conditions(ctx_million, 100, 0.5, 10)[:2] == (True, True)


def test_nearest_slope_at_100(ctx_million):
    q, k, dist = nearest_slope(ctx_million, 100)
    # 42/log 7 ≈ 21.584 sits 0.131 from ρ = 21.715; the margin is ≈ 0.0222
    assert (q, k) == (7, 2)
    assert dist == pytest.approx(0.131, abs=1e-3)
    assert dist >= math.sqrt(100) / math.log(100) ** 4


def nearest_slope_over_integers(x):
    # independent oracle: test every integer q for primality, stop at the
    # first q whose Q² slope passes the bound
    rho = x / math.log(x)
    bound = rho + math.sqrt(x)
    best = (0, 0, math.inf)
    q = 2
    while (q * q - q) / math.log(q) <= bound:
        if factorize(q) == [(q, 1)]:
            k = 2
            while (s := (q**k - q ** (k - 1)) / math.log(q)) <= bound:
                if abs(rho - s) < best[2]:
                    best = (q, k, abs(rho - s))
                k += 1
        q += 1
    return best


def scan_grid(xi, samples):
    xi_hi = xi + xi / math.log(xi)
    return [xi + (xi_hi - xi) * i / (samples - 1) for i in range(samples)]


def test_nearest_slope_matches_integer_loop(ctx_million):
    rng = random.Random(23)
    xs = [1 + 1e-6, 1.01, 1.5, 4, 16, 100, 10**6]
    xs += [rng.uniform(1, 10**6) for _ in range(40)]
    xs += [10 ** rng.uniform(0, 6) for _ in range(40)]
    grid = scan_grid(10**4, 200)[::4]
    # x/log x falls on (1, e), and its slope gaps outgrow √x as x nears 1
    near_one = [1 + 10 ** rng.uniform(-4, math.log10(math.e - 1)) for _ in range(20)]
    for x in xs + grid + near_one:
        assert nearest_slope(ctx_million, x) == nearest_slope_over_integers(x), x
    # the scan's way: one list for the largest bound, each point bisected into it
    sides, cut = set(), 0
    for points in (grid, near_one):
        slopes = prime_gaps._corner_slopes(ctx_million, max(prime_gaps._slope_reach(t)[1] for t in points))
        for x in points:
            q, k, dist = nearest_slope_over_integers(x)
            assert prime_gaps._nearest_in(slopes, x) == (q, k, dist), x
            rho, bound = prime_gaps._slope_reach(x)
            sides.add(corner_slope(q, k, math.log(q)) > rho)
            cut += any(bound < s and abs(rho - s) < dist for s, _, _ in slopes)
    assert sides == {False, True}  # the nearest slope lies below ρ at some points, above at others
    assert cut > 0  # and somewhere a nearer slope lies past B(x), which the walk never reaches


def test_corner_slopes_are_distinct_at_the_sieves_reach():
    # _nearest_in reads only ρ's two neighbours, which needs distinct slopes;
    # the largest list a sieve to 10⁶ allows holds no two equal
    ctx = sieve_primes(10**6)
    reach = lambda b: math.sqrt(2 * b) * math.sqrt(math.log(b))  # the gate in _corner_slopes
    lo, hi = 1e10, 1e11
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if reach(mid) <= ctx.limit else (lo, mid)
    slopes = prime_gaps._corner_slopes(ctx, lo)
    assert len(slopes) > 40_000
    assert all(a[0] < b[0] for a, b in zip(slopes, slopes[1:]))
    with pytest.raises(OutOfRangeError):
        prime_gaps._corner_slopes(ctx, hi)


def test_scan_bound_from_the_grid_ends_covers_every_point(monkeypatch, ctx_million):
    # B(t) = t/log t + √t falls, then rises, so its largest value on a grid
    # is at the first or last point
    rng = random.Random(29)
    cases = [(1 + 10 ** rng.uniform(-6, -1), rng.randint(10, 300)) for _ in range(20)]
    cases += [(rng.uniform(1.1, math.e), rng.randint(10, 300)) for _ in range(20)]
    cases += [(10 ** rng.uniform(0.5, 8), rng.randint(10, 300)) for _ in range(20)]
    bounds_asked, corner_slopes = [], prime_gaps._corner_slopes

    def recording_slopes(ctx, bound):
        bounds_asked.append(bound)
        return corner_slopes(ctx, bound)

    monkeypatch.setattr(prime_gaps, "_corner_slopes", recording_slopes)
    for xi, samples in cases:
        bounds = [prime_gaps._slope_reach(t)[1] for t in scan_grid(xi, samples)]
        assert max(bounds) <= max(bounds[0], bounds[-1]), (xi, samples)
        if 1 + 1e-4 < xi < 10**5:  # the scan itself lists its slopes up to that bound
            bounds_asked.clear()
            exceptional_measure_scan(ctx_million, xi, 0.45, 0.5, samples)
            assert bounds_asked == [max(bounds)], (xi, samples)


def test_nearest_slope_sieve_boundary():
    # at x = 100 every Q that matters is ≤ √(2B·log B) ≈ 14.81
    with pytest.raises(OutOfRangeError):
        nearest_slope(sieve_primes(14), 100)
    assert nearest_slope(sieve_primes(15), 100) == nearest_slope_over_integers(100)


def test_nearest_slope_past_sieve_guard_refused(ctx_million):
    # near 1, ρ = x/log x ≈ 10¹⁵ needs Q up to about 2.6·10⁸; near the float
    # limit, Q up to about 1.8·10¹⁵⁴: both are refused before any walk
    for x in (1 + 1e-15, 1.7e308):
        start = time.perf_counter()
        with pytest.raises(OutOfRangeError):
            nearest_slope(ctx_million, x)
        assert time.perf_counter() - start < 0.5


def test_scan_sieves_nothing(monkeypatch, ctx_million):
    calls = []

    def counting_sieve(limit):
        calls.append(limit)
        return sieve_primes(limit)

    monkeypatch.setattr(prime_gaps, "sieve_primes", counting_sieve)
    exceptional_measure_scan(ctx_million, 10**4, 0.45, 0.9, 200)
    assert calls == []  # every grid point reads the caller's sieve


def test_scan_lists_slopes_once(monkeypatch, ctx_million):
    calls = 0

    def counting_slope(p, k, lp):
        nonlocal calls
        calls += 1
        return corner_slope(p, k, lp)

    monkeypatch.setattr(prime_gaps, "corner_slope", counting_slope)
    counts = []
    for samples in (20, 200):
        calls = 0
        exceptional_measure_scan(ctx_million, 10**4, 0.45, 0.9, samples)
        counts.append(calls)
    assert counts[0] == counts[1] > 0  # the slopes are listed once, not per grid point


def test_slope_separated_is_selberg_c23(ctx_million):
    for x in (13, 16, 100, 256, 1328, 10**5):
        expected = nearest_slope(ctx_million, x)[2] >= math.sqrt(x) / math.log(x) ** 4
        assert slope_separated(ctx_million, x) is expected
        assert selberg_conditions(ctx_million, x, 0.45, 0.5)[2] is expected
    assert not slope_separated(ctx_million, 16)  # the slope of 2³, 4/log 2, is ρ = 16/log 16
    assert slope_separated(ctx_million, 13)  # nearest slope 3², distance 0.394, margin 0.083


def test_scan_deterministic(ctx_million):
    a = exceptional_measure_scan(ctx_million, 10**5, 0.4, 0.9, 100)
    b = exceptional_measure_scan(ctx_million, 10**5, 0.4, 0.9, 100)
    assert a == b
    assert 0.0 <= a <= 1.0


def test_scan_trivial_epsilon(ctx_million):
    # with ε = 10 the two count predicates hold at every grid point
    xi = 10**5
    xi_hi = xi + xi / math.log(xi)
    for i in range(10):
        t = xi + (xi_hi - xi) * i / 9
        c21, c22, _ = selberg_conditions(ctx_million, t, 0.8, 10)
        assert c21 and c22


def test_scan_counts_failures(ctx_small):
    # half of this grid fails a Selberg condition; recount it point by point
    xi, alpha, epsilon, samples = 1000, 0.4, 0.5, 10
    fraction = exceptional_measure_scan(ctx_small, xi, alpha, epsilon, samples)
    xi_hi = xi + xi / math.log(xi)
    grid = [xi + (xi_hi - xi) * i / (samples - 1) for i in range(samples)]
    failures = sum(not all(selberg_conditions(ctx_small, t, alpha, epsilon)) for t in grid)
    assert fraction == failures / samples == 0.5


def test_scan_fraction_is_a_recount_of_selberg_conditions(ctx_million):
    rng = random.Random(25)
    cases = []
    for lo, hi in ((1.001, math.e), (math.e, 100), (100, 10**5)):
        for _ in range(8):
            cases.append((rng.uniform(lo, hi), rng.uniform(0.2, 0.8), rng.uniform(0, 0.99), rng.randint(10, 200)))
    # with ε = 0.9 the prime counts hold at grid points where c23 alone fails
    cases += [(xi, 0.45, 0.9, 200) for xi in (12, 14, 15, 16, 40, 100, 1000)]
    for xi, alpha, epsilon, samples in cases:
        conditions = [selberg_conditions(ctx_million, t, alpha, epsilon) for t in scan_grid(xi, samples)]
        failures = sum(not all(c) for c in conditions)
        assert exceptional_measure_scan(ctx_million, xi, alpha, epsilon, samples) == failures / samples, xi
        if epsilon == 0.9:
            assert (True, True, False) in conditions, xi


def test_scan_sample_budget(ctx_million, monkeypatch):
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        exceptional_measure_scan(ctx_million, 10**4, 0.45, 0.9, 10**8)
    assert time.perf_counter() - start < 0.5
    monkeypatch.setattr(prime_gaps, "SAMPLE_BUDGET", 200)
    assert 0 <= exceptional_measure_scan(ctx_million, 10**4, 0.45, 0.9, 200) <= 1
    with pytest.raises(BudgetError):
        exceptional_measure_scan(ctx_million, 10**4, 0.45, 0.9, 201)


def test_scan_guards(ctx_million, ctx_small):
    with pytest.raises(DomainError):
        exceptional_measure_scan(ctx_million, 10**5, 0.4, 0.9, 9)
    for epsilon in (-0.1, 1.0, 1.5):
        with pytest.raises(DomainError):
            exceptional_measure_scan(ctx_million, 10**5, 0.4, epsilon, 10)
    # the scan interval [ξ, ξ + ξ/log ξ] needs log ξ > 0
    for xi in (1.0, 0.5, -3):
        with pytest.raises(DomainError):
            exceptional_measure_scan(ctx_million, xi, 0.4, 0.9, 10)
    with pytest.raises(OutOfRangeError):
        exceptional_measure_scan(ctx_small, 10**4, 0.4, 0.9, 10)


NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        lambda ctx: exceptional_measure_scan(ctx, 1000, -0.4, 0.5, 10),
        lambda ctx: exceptional_measure_scan(ctx, NAN, 0.4, 0.5, 10),
        lambda ctx: difference_set(ctx, 1000, -0.4),
        lambda ctx: difference_set(ctx, NAN, 0.45),
        lambda ctx: sieve_bound_report(ctx, 1000, -0.4),
        lambda ctx: hypothesis_31_32(ctx, 1000, -0.4, 0.5),
        lambda ctx: hypothesis_31_32(ctx, NAN, 0.4, 0.5),
        lambda ctx: selberg_conditions(ctx, 1000, -0.4, 0.5),
        lambda ctx: selberg_conditions(ctx, NAN, 0.4, 0.5),
        lambda ctx: nearest_slope(ctx, NAN),
        lambda ctx: build_champion(ctx, NAN),
    ],
)
def test_alpha_and_nan_x_refused(ctx_small, call):
    # each of these returned a wrong answer or looped until it overflowed
    with pytest.raises(DomainError):
        call(ctx_small)


# ---------------------------------------------------------------- constants


def test_c1_exact_exceeds_published():
    assert C1_EXACT == Fraction(27, 16384)
    assert C1_EXACT >= Fraction(164, 100000)


def test_lower_bound_constant_examples():
    c1, c2 = lower_bound_constant(1, 0)
    assert c1 == Fraction(27, 16384)
    assert c2 == 0.00164
    assert lower_bound_constant(0.5, 0.5)[1] == pytest.approx(6.40625e-6, rel=1e-12)
    with pytest.raises(DomainError):
        lower_bound_constant(0, 0)
    with pytest.raises(DomainError):
        lower_bound_constant(0.5, 1)


# ---------------------------------------------------------------- sieve bound / report


def test_sieve_bound_example(ctx_million):
    rows = sieve_bound_report(ctx_million, 100, 0.5)
    assert [d for d, *_ in rows] == [4, 6, 10, 12]
    d, rd, bound, holds = rows[0]
    assert (d, rd, holds) == (4, 1, True)
    assert bound == pytest.approx(20.1186, abs=1e-3)


def test_sieve_bound_full_scan(ctx_million):
    assert all(holds for *_, holds in sieve_bound_report(ctx_million, 10**5, 0.45))


def test_sieve_bound_rows_match_f_factor():
    # the sieve's num/den and the exact Fraction round to the same float
    ctx = sieve_primes(10**6 + 10**4)
    for x in (10**3, 10**4, 10**5, 10**6):
        for alpha in (0.3, 0.45, 0.6):
            E, r = difference_set(ctx, x, alpha)
            size_A = math.floor(x) - math.floor(x - x**alpha)
            scale = (32 / (3 * alpha**2)) * size_A / math.log(x) ** 2
            want = []
            for d in E:
                bound = scale * float(f_factor(d))
                want.append((d, r[d], bound, r[d] <= bound))
            assert sieve_bound_report(ctx, x, alpha) == want, (x, alpha)


def test_sieve_bound_empty_difference_set(ctx_small):
    # (8.74, 10] holds no prime, so E(10, 0.1) is empty
    assert difference_set(ctx_small, 10, 0.1) == ([], {})
    assert sieve_bound_report(ctx_small, 10, 0.1) == []


def test_gap_report_refuses_epsilon_before_pairs(ctx_million, monkeypatch):
    monkeypatch.setattr(prime_gaps, "difference_set", _refuse)
    with pytest.raises(DomainError):
        build_gap_report(ctx_million, 10**5, 0.45, 1.5)


def test_gap_report(ctx_million):
    rep = build_gap_report(ctx_million, 10**5, 0.45, 0.5)
    assert rep.E == tuple(sorted(rep.r))
    assert all(rep.r[d] >= 1 for d in rep.E)
    assert rep.hyp31 and rep.hyp32
    assert rep.lower_bound_holds  # |E| ≥ C₂·x^α given the hypotheses
    payload = rep.payload()
    assert set(payload) == {
        "x",
        "alpha",
        "epsilon",
        "E",
        "r",
        "hyp31",
        "hyp32",
        "selberg",
        "c2",
        "lower_bound_holds",
    }
    assert payload["selberg"] == [True, True, True]
    assert payload["r"] == {str(d): rep.r[d] for d in rep.E}
