import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from landau import arith
from landau.arith import (
    LOG_TIE_EPS,
    SIEVE_GUARD,
    BudgetError,
    DomainError,
    FactoredInteger,
    OutOfRangeError,
    compare_factored,
    corner_slope,
    ell,
    factorize,
    prime_count,
    primes_between,
    sieve_primes,
)

POOL = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]


def trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def flat_sieve(limit):
    # independent one-shot sieve, no segmentation
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).tolist()


def random_factored(rng, cap=2**63):
    fs = []
    v = 1
    for p in sorted(rng.sample(POOL, rng.randint(1, 6))):
        e = rng.randint(1, 3)
        if v * p**e >= cap:
            break
        v *= p**e
        fs.append((p, e))
    return FactoredInteger(fs), v


# ---------------------------------------------------------------- sieve


def test_sieve_small():
    assert list(sieve_primes(10).primes) == [2, 3, 5, 7]
    assert list(sieve_primes(2).primes) == [2]


def test_sieve_rejects_empty_domain():
    with pytest.raises(DomainError):
        sieve_primes(1)


class _NoArrays:
    def __getattr__(self, name):
        raise AssertionError("reached numpy before the size guard")


def test_sieve_refuses_limit_past_guard(monkeypatch):
    monkeypatch.setattr(arith, "np", _NoArrays())
    with pytest.raises(BudgetError):
        sieve_primes(SIEVE_GUARD + 1)
    with pytest.raises(AssertionError):
        sieve_primes(SIEVE_GUARD)  # the guard itself gets past


def test_sieve_against_trial_division():
    assert list(sieve_primes(10**4).primes) == trial_division_primes(10**4)


def test_sieve_million_against_second_implementation(ctx_million):
    assert len(ctx_million.primes) == 78498
    assert list(ctx_million.primes) == flat_sieve(10**6)


def test_sieve_prefix_consistency(ctx_million, ctx_small):
    assert list(ctx_small.primes) == [p for p in ctx_million.primes if p <= 10**4]


def test_sieve_packs_int64_that_read_back_as_ints(ctx_million):
    for ctx in (*map(sieve_primes, range(2, 2001)), sieve_primes(10**4), ctx_million):
        assert ctx.primes.typecode == "q"
        assert all(type(p) is int for p in ctx.primes)
        assert list(ctx.primes) == flat_sieve(ctx.limit), ctx.limit


def test_sieve_peak_memory_at_ten_million():
    # 664 579 primes: 5.1 MiB packed, 26 MiB as a list of Python ints
    tracemalloc.start()
    try:
        ctx = sieve_primes(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ctx.primes) == 664_579 and ctx.primes[-1] == 9_999_991
    assert peak < 12 * 2**20


# ---------------------------------------------------------------- prime_count


def test_prime_count_examples(ctx_small):
    assert prime_count(ctx_small, 10) == 4
    assert prime_count(ctx_small, 1.5) == 0
    assert prime_count(ctx_small, 1000) == 168
    assert prime_count(ctx_small, 1000) == len(trial_division_primes(1000))


def test_prime_count_out_of_range(ctx_small):
    with pytest.raises(OutOfRangeError):
        prime_count(ctx_small, 10**4 + 1)


def test_nan_bound_refused(ctx_small):
    # nan compares false with every prime, so bisect alone returns a count
    nan = float("nan")
    for call in (
        lambda: prime_count(ctx_small, nan),
        lambda: primes_between(ctx_small, nan, 10),
        lambda: primes_between(ctx_small, 2, nan),
    ):
        with pytest.raises(DomainError):
            call()


CTX_1000 = sieve_primes(1000)
BOUND = st.one_of(st.integers(-50, 1000), st.floats(-50, 1000))


@given(BOUND, BOUND)
@example(-7, 1000)  # negative lo, hi at the sieve limit
@example(500, 500)
@example(997, 2)
@example(996.5, 997)
def test_primes_between_is_the_filter(lo, hi):
    assert primes_between(CTX_1000, lo, hi) == [p for p in CTX_1000.primes if lo < p <= hi]


def test_primes_between_returns_a_list_of_ints():
    # callers take combinations, dict keys, [::-1] and bisect with a key of it
    for lo, hi in ((0, 1000), (100, 200), (7, 7), (990, 1000)):
        got = primes_between(CTX_1000, lo, hi)
        assert type(got) is list and all(type(p) is int for p in got)


@given(BOUND, st.floats(1000, 1e9, exclude_min=True))
@example(-1, 1001)
def test_primes_between_refuses_past_limit(lo, hi):
    with pytest.raises(OutOfRangeError):
        primes_between(CTX_1000, lo, hi)


# ---------------------------------------------------------------- factorize


def assert_factorization(n, fs):
    assert math.prod(p**e for p, e in fs) == n
    assert all(e >= 1 for _, e in fs)
    assert all(p < q for (p, _), (q, _) in zip(fs, fs[1:]))


def test_factorize_small_n():
    primes = set(flat_sieve(10**4))
    for n in range(1, 10**4 + 1):
        fs = factorize(n)
        assert_factorization(n, fs)
        assert all(p in primes for p, _ in fs)


def test_factorize_large_n():
    mersenne = 2**61 - 1  # prime
    assert factorize(mersenne) == [(mersenne, 1)]
    assert factorize(6 * mersenne) == [(2, 1), (3, 1), (mersenne, 1)]
    semiprime = 999_979 * 999_983  # 12 digits, two 6-digit prime factors
    assert factorize(semiprime) == [(999_979, 1), (999_983, 1)]
    for n in (mersenne, 6 * mersenne, semiprime, 2**40 * 3**5):
        assert_factorization(n, factorize(n))
    with pytest.raises(DomainError):
        factorize(0)


def test_unproven_large_cofactor_refused():
    # 2⁸⁹ − 1 is prime, but past the Miller–Rabin range and far past trial division
    with pytest.raises(BudgetError):
        factorize(2**89 - 1)


# ---------------------------------------------------------------- FactoredInteger / ell


def test_factored_validation():
    with pytest.raises(DomainError):
        FactoredInteger([(3, 1), (2, 1)])  # out of order
    with pytest.raises(DomainError):
        FactoredInteger([(2, 0)])  # exponent < 1
    with pytest.raises(DomainError):
        FactoredInteger([(1, 2)])
    # a float prime or exponent is refused, not truncated to an int
    for factors in ([(2, 1.5), (3.9, 1)], [(2.0, 1)], [(2, 1.0)]):
        with pytest.raises(TypeError):
            FactoredInteger(factors)
    assert FactoredInteger([(np.int64(2), np.int32(3))]).value() == 8


def test_factored_value_and_log():
    M = FactoredInteger([(2, 2), (3, 1), (5, 1), (7, 1)])
    assert M.value() == 420
    assert math.isclose(M.log_value, math.log(420), rel_tol=1e-12)
    assert str(M) == "2^2·3·5·7"
    assert str(FactoredInteger()) == "1"


def test_ell_examples():
    assert ell(FactoredInteger()) == 0
    assert ell(FactoredInteger([(2, 2), (3, 1), (5, 1)])) == 12
    assert ell(FactoredInteger([(2, 2), (3, 1)])) == 7


def test_corner_slope_is_the_ell_step_per_log():
    # ℓ(p^k) − ℓ(p^{k−1}) over log p, with ℓ(p⁰) = 0
    for p in (2, 3, 7, 101):
        lp = math.log(p)
        assert corner_slope(p, 1, lp) == p / lp
        for k in (2, 3, 5):
            want = ell(FactoredInteger([(p, k)])) - ell(FactoredInteger([(p, k - 1)]))
            assert corner_slope(p, k, lp) == want / lp


@st.composite
def coprime_pair(draw):
    chosen = draw(st.lists(st.sampled_from(POOL), unique=True, max_size=8))
    sides = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    exps = draw(st.lists(st.integers(1, 4), min_size=len(chosen), max_size=len(chosen)))
    a = sorted((p, e) for p, s, e in zip(chosen, sides, exps) if s)
    b = sorted((p, e) for p, s, e in zip(chosen, sides, exps) if not s)
    return FactoredInteger(a), FactoredInteger(b)


@given(coprime_pair())
def test_ell_additive_on_coprime(pair):
    A, B = pair
    assert ell(FactoredInteger(sorted(A.factors + B.factors))) == ell(A) + ell(B)


# ---------------------------------------------------------------- compare_factored


def test_compare_examples():
    twelve = FactoredInteger([(2, 2), (3, 1)])
    fifteen = FactoredInteger([(3, 1), (5, 1)])
    sixty = FactoredInteger([(2, 2), (3, 1), (5, 1)])
    assert compare_factored(twelve, fifteen) == -1
    assert compare_factored(sixty, sixty) == 0
    assert compare_factored(FactoredInteger([(3, 5)]), FactoredInteger([(2, 8)])) == -1


def test_compare_same_object_skips_arithmetic():
    A = FactoredInteger([(2, 40), (3, 7), (101, 2)])
    assert compare_factored(A, A) == 0
    assert A._value is None


def test_ordering_operators_follow_compare():
    twelve = FactoredInteger([(2, 2), (3, 1)])
    fifteen = FactoredInteger([(3, 1), (5, 1)])
    assert twelve < fifteen and fifteen > twelve
    assert not twelve < FactoredInteger([(2, 2), (3, 1)])
    assert max([twelve, fifteen, twelve]) is fifteen
    assert min([fifteen, twelve]) is twelve
    with pytest.raises(TypeError):
        twelve < 15


def test_compare_matches_exact_values_on_random_pairs():
    rng = random.Random(42)
    for _ in range(1000):
        A, a = random_factored(rng)
        B, b = random_factored(rng)
        assert compare_factored(A, B) == (a > b) - (a < b)


def test_compare_near_tie_falls_back_to_exact():
    # 2^34 and 2^34 + 1 = 5·137·953·26317 differ in log by ~6e-11 < LOG_TIE_EPS
    A = FactoredInteger([(2, 34)])
    B = FactoredInteger([(5, 1), (137, 1), (953, 1), (26317, 1)])
    assert B.value() == 2**34 + 1
    assert abs(A.log_value - B.log_value) < LOG_TIE_EPS
    assert compare_factored(A, B) == -1
    assert compare_factored(B, A) == 1
