import hashlib
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau import arith, gtable
from landau.arith import (
    LOG_TIE_EPS,
    BudgetError,
    DomainError,
    OutOfRangeError,
    compare_factored,
    ell,
    sieve_primes,
)
from landau.gtable import (
    CacheParseError,
    brute_force_g,
    gamma,
    gap_statistics,
    increase_points,
    landau_g,
    read_table_cache,
    write_table_cache,
)

# ---------------------------------------------------------------- brute force


def test_brute_force_examples():
    assert brute_force_g(2).value() == 2
    assert brute_force_g(3).value() == 3
    assert brute_force_g(5).value() == 6
    assert brute_force_g(7).value() == 12


def test_brute_force_guard():
    with pytest.raises(OutOfRangeError):
        brute_force_g(36)
    with pytest.raises(DomainError):
        brute_force_g(0)


# ---------------------------------------------------------------- DP table


def test_dp_matches_oracle_to_30(table_10k):
    for n in range(1, 31):
        assert table_10k.g(n) == brute_force_g(n)


def test_dp_examples(table_10k):
    assert table_10k.g(1).value() == 1
    assert table_10k.g(10).value() == 30
    assert table_10k.g(19).value() == 420


def test_table_monotone(table_10k):
    runs = table_10k.runs
    assert table_10k.starts[0] == 1 and len(runs) == len(table_10k.starts)
    assert all(compare_factored(a, b) < 0 for a, b in zip(runs, runs[1:]))


def test_table_feasibility(table_10k):
    assert all(ell(table_10k.g(n)) <= n for n in range(1, table_10k.n_max + 1))


def test_dp_guards(ctx_small, table_10k):
    with pytest.raises(OutOfRangeError):
        landau_g(ctx_small, 10**4 + 1)  # prime context too small
    with pytest.raises(DomainError):
        landau_g(ctx_small, 0)
    big = sieve_primes(200_001)
    with pytest.raises(BudgetError):
        landau_g(big, 200_001)
    # a context past the guard changes nothing below it
    assert landau_g(big, 50) == landau_g(ctx_small, 50)


def _sha256_of_cache(table, path):
    write_table_cache(table, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_dp_matches_frozen_tables(tmp_path, ctx_small, table_10k):
    # digests of the cache files the chain-based DP wrote (2 517 243 bytes at 10⁴)
    assert _sha256_of_cache(table_10k, tmp_path / "a") == (
        "f1203a972a66d4b41822308f46d4e0815db2a601643f5fa76901137cfecae558"
    )
    assert (tmp_path / "a").stat().st_size == 2_517_243
    assert _sha256_of_cache(landau_g(ctx_small, 5000), tmp_path / "b") == (
        "3168e69de09e127bd35a8b2f5f95d592a71e4debe16070cf71e3841d9c0e5b42"
    )


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=35))
def test_dp_matches_oracle_property(n):
    table = landau_g(sieve_primes(max(n, 2)), n)
    assert table.g(n) == brute_force_g(n)


@pytest.mark.parametrize("eps", [0.05, 0.3])
def test_near_tie_repair_keeps_table(monkeypatch, ctx_small, eps):
    # a wide tie band sends thousands of cells through exact repair
    reference = landau_g(ctx_small, 3000)
    walks = []

    def counting_exact(primes, choice, k):
        walks.append(k)
        return exact(primes, choice, k)

    exact = gtable._exact
    monkeypatch.setattr(gtable, "_exact", counting_exact)
    monkeypatch.setattr(gtable, "LOG_TIE_EPS", eps)
    assert landau_g(ctx_small, 3000) == reference
    assert len(walks) > 2000  # two or more exact candidates per repaired cell


def test_skipped_primes_change_nothing(ctx_small):
    # relaxing every prime ≤ n, none skipped, gives the same row bit for bit
    n = 3000
    logs, every, choice = np.zeros(n + 1), [], []
    for p in ctx_small.primes[: bisect_right(ctx_small.primes, n)]:
        logs = gtable._relax_prime(logs, p, every, choice)
    got, relaxed, _ = gtable._relax(ctx_small, n)
    assert np.array_equal(got, logs)
    small = every[: bisect_right(every, math.isqrt(n))]
    assert relaxed[: len(small)] == small
    assert len(relaxed) < len(every) == 430


def test_dp_log_error_far_below_tie_eps(ctx_small, table_10k):
    logs = gtable._relax(ctx_small, 10**4)[0]
    err = max(
        abs(logs[n] - math.log(table_10k.g(n).value())) for n in range(1, 10**4 + 1)
    )
    assert err < 1e-3 * LOG_TIE_EPS


def test_g50_known_value(table_10k):
    assert table_10k.g(50).value() == 180180  # 2^2·3^2·5·7·11·13


def test_smaller_dp_is_a_prefix(ctx_small, table_10k):
    # every size a test builds, plus an increase point near 5000 and one before it
    nk = table_10k.starts[bisect_right(table_10k.starts, 5000) - 1]
    for m in (1, 2, 5, 7, 8, 10, 12, 29, 30, 48, 50, 100, 200, 500, 2000, 3000, nk, nk - 1):
        t = landau_g(ctx_small, m)
        assert t.starts == [s for s in table_10k.starts if s <= m], m
        assert all(t.g(n) == table_10k.g(n) for n in range(1, m + 1)), m
    with pytest.raises(OutOfRangeError):
        landau_g(ctx_small, 100).g(101)


# ---------------------------------------------------------------- increase points / gamma


def test_increase_points_small(ctx_small, table_10k):
    # first six increase points; g(8)=15 > g(7)=12 makes 8 the seventh
    assert increase_points(landau_g(ctx_small, 7)).points == [1, 2, 3, 4, 5, 7]
    assert increase_points(landau_g(ctx_small, 8)).points == [1, 2, 3, 4, 5, 7, 8]
    assert increase_points(landau_g(ctx_small, 1)).points == [1]
    assert increase_points(landau_g(ctx_small, 12)).points == [1, 2, 3, 4, 5, 7, 8, 9, 10, 12]
    # the oracle values behind the n_max=12 list
    assert [table_10k.g(n).value() for n in range(8, 13)] == [15, 20, 30, 30, 60]


def test_increase_points_are_exactly_the_increases(table_10k):
    ip = increase_points(table_10k)
    expected = [1] + [
        n
        for n in range(2, table_10k.n_max + 1)
        if compare_factored(table_10k.g(n), table_10k.g(n - 1)) > 0
    ]
    assert ip.points == expected
    assert ip.gaps == [b - a for a, b in zip(ip.points, ip.points[1:])]


def test_increase_points_and_gamma_make_no_comparison(monkeypatch, table_10k):
    # the DP hands over its increase points; nothing compares values again
    def refuse(a, b):
        raise AssertionError("compare_factored called")

    monkeypatch.setattr(arith, "compare_factored", refuse)
    points = increase_points(table_10k).points
    assert points[:10] == [1, 2, 3, 4, 5, 7, 8, 9, 10, 12]
    assert [gamma(table_10k, n) for n in (1, 7, 11, 10**4)] == [1, 6, 9, len(points)]


def test_champion_ell_at_increase_points(ctx_small, table_10k):
    # n_1 = 1 is a convention point (ℓ(1) = 0), so the property starts at n_2
    for nk in increase_points(landau_g(ctx_small, 30)).points:
        if nk >= 2:
            assert ell(table_10k.g(nk)) == nk


def test_gamma_examples(table_10k):
    assert gamma(table_10k, 7) == 6
    assert gamma(table_10k, 1) == 1
    assert gamma(table_10k, 6) == 5


def test_gamma_consistency(ctx_small):
    t = landau_g(ctx_small, 500)
    ip = increase_points(t)
    assert gamma(t, t.n_max) == len(ip.points)
    for n in range(1, 501):
        nk = ip.points[gamma(t, n) - 1]
        assert nk <= n
        assert (nk == n) == (n in ip.points)


def test_gamma_matches_increase_points(ctx_small):
    t = landau_g(ctx_small, 2000)
    points = increase_points(t).points
    assert all(gamma(t, n) == bisect_right(points, n) for n in range(1, 2001))


def test_gamma_out_of_range(ctx_small, table_10k):
    with pytest.raises(OutOfRangeError):
        gamma(landau_g(ctx_small, 10), 11)
    with pytest.raises(DomainError):
        gamma(table_10k, 0)


# ---------------------------------------------------------------- gap statistics


def test_gap_statistics_examples(ctx_small):
    stats = gap_statistics(increase_points(landau_g(ctx_small, 7)))
    assert stats.histogram == {1: 4, 2: 1}
    assert stats.min_gap == 1

    two = increase_points(landau_g(ctx_small, 2))
    assert gap_statistics(two).histogram == {1: 1}

    stats3000 = gap_statistics(increase_points(landau_g(ctx_small, 3000)))
    assert stats3000.min_gap == 1


def test_gap_statistics_needs_two_points(ctx_small):
    with pytest.raises(DomainError):
        gap_statistics(increase_points(landau_g(ctx_small, 1)))


# ---------------------------------------------------------------- cache


def test_cache_round_trip(tmp_path, ctx_small):
    t = landau_g(ctx_small, 200)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_table_cache(t, p1)
    back = read_table_cache(p1)
    assert back == t
    write_table_cache(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_cache_format(tmp_path, ctx_small):
    write_table_cache(landau_g(ctx_small, 5), tmp_path / "t")
    text = (tmp_path / "t").read_text()
    assert text == "1,1\n2,2^1\n3,3^1\n4,2^2\n5,2^1 3^1\n"


def test_cache_parse_errors(tmp_path):
    bad = tmp_path / "bad"
    bad.write_text("1,1\n2,2^1\n4,2^2\n")  # line 3 claims n=4
    with pytest.raises(CacheParseError, match="line 3"):
        read_table_cache(bad)
    bad.write_text("1,1\n2,nonsense\n")
    with pytest.raises(CacheParseError, match="line 2"):
        read_table_cache(bad)
    bad.write_text("")
    with pytest.raises(CacheParseError):
        read_table_cache(bad)
    # a new run must exceed the last, or it would pose as an increase point
    bad.write_text("1,1\n2,2^1\n3,3^1\n4,2^1\n")  # g(4) = 2 < g(3) = 3
    with pytest.raises(CacheParseError, match="line 4"):
        read_table_cache(bad)
    bad.write_text("1,1\n2,2^1\n3,02^1\n")  # a new body, but the same value
    with pytest.raises(CacheParseError, match="line 3"):
        read_table_cache(bad)


def test_cache_refuses_well_formed_wrong_value(tmp_path, ctx_small):
    # a line that parses and increases g is still not g: the DP decides
    bad = tmp_path / "g_table_30.csv"
    write_table_cache(landau_g(ctx_small, 29), bad)
    with bad.open("a") as f:
        f.write("30,2^40\n")
    with pytest.raises(CacheParseError, match="line 30"):
        read_table_cache(bad)
