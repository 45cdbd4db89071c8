"""End-to-end acceptance gate: one test per criterion, one printed verdict line each.

Every check here is an exact identity, an oracle comparison, or a pinned
numeric constant with an explicit tolerance; runtime budgets are asserted
where the contract pins them.  Two criteria are expected to fail and are
left failing on purpose rather than weakened: the swap-window construction
provably undershoots the true table at small x (criterion 5), and the
stated multiplicative upper bound on prime-ratio products is false on
valid instances (criterion 10).  Both are documented in the README.
"""

import math
import random
import subprocess
import sys
import time
from bisect import bisect_right
from fractions import Fraction

from landau.arith import FactoredInteger, compare_factored, sieve_primes
from landau.champions import (
    benefit,
    benefit_by_prime,
    build_champion,
    verify_membership_in_G,
)
from landau.gtable import (
    brute_force_g,
    gap_statistics,
    increase_points,
    landau_g,
)
from landau.prime_gaps import (
    C1_EXACT,
    C1_SAFE,
    build_gap_report,
    euler_products,
    f_factor,
    h_convolution,
    lower_bound_constant,
    sum_f_squared_check,
)
from landau.windows import (
    check_ordering_by_d,
    verify_window_against_dp,
    window_g,
)


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    return ok


# ---------------------------------------------------------------- 1: oracle


def test_criterion_01_dp_matches_partition_oracle(ctx_small):
    start = time.perf_counter()
    table = landau_g(ctx_small, 30)
    bad = [
        n
        for n in range(1, 31)
        if table.g(n).value() != brute_force_g(n).value()
    ]
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60.0
    assert _verdict(
        1, ok, f"g(n) equals the partition oracle on 1..30 ({elapsed:.2f}s)"
    )


# ---------------------------------------------------------------- 2: prefix


def test_criterion_02_first_increase_points(table_10k):
    prefix = increase_points(table_10k).points[:6]
    ok = prefix == [1, 2, 3, 4, 5, 7]
    assert _verdict(2, ok, f"first six increase points are {prefix}")


# ---------------------------------------------------------------- 3: members


def test_criterion_03_champion_membership_sweep(ctx_small, champion_sweep):
    start = time.perf_counter()
    table = landau_g(ctx_small, max(c.n for c in champion_sweep))
    bad = [int(c.x) for c in champion_sweep if not verify_membership_in_G(c, table)]
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 300.0
    assert _verdict(
        3,
        ok,
        f"g(ell(N)) = N for all {len(champion_sweep)} champions, "
        f"primes 5..199 ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------- 4: benefit


def _random_M(rng, primes):
    fs = sorted(rng.sample(primes, rng.randint(1, 8)))
    cap = lambda p: int(math.log(10**4) / math.log(p))
    return FactoredInteger([(p, rng.randint(1, min(4, cap(p)))) for p in fs])


def test_criterion_04_exponent_cap_and_benefit_paths(ctx_small, champion_sweep):
    small_primes = [p for p in ctx_small.primes if p <= 300]
    rng = random.Random(42)
    cap_ok = all(
        p**a <= int(c.x) for c in champion_sweep for p, a in c.N.factors
    )
    worst_gap, worst_ben = 0.0, 0.0
    for c in champion_sweep:
        for _ in range(1000):
            M = _random_M(rng, small_primes)
            direct = benefit(c, M)
            by_prime = sum(benefit_by_prime(c, M).values())
            worst_gap = max(worst_gap, abs(direct - by_prime))
            worst_ben = min(worst_ben, direct)
    ok = cap_ok and worst_gap <= 1e-9 and worst_ben >= -1e-9
    assert _verdict(
        4,
        ok,
        f"p^a <= x in every champion; benefit paths agree to {worst_gap:.2e} "
        f"on 1000 random M per champion, min benefit {worst_ben:.2e}",
    )


# ---------------------------------------------------------------- 5: windows


def test_criterion_05_window_reproduction(ctx_million, table_10k):
    start = time.perf_counter()
    mismatches, parts = {}, []
    ok = True
    for x in (13, 31, 101):
        rep = window_g(build_champion(ctx_million, x), 0.45, ctx_million)
        n, hi = rep.champion.n, rep.champion.n + int(2 * x**0.45)
        mism = verify_window_against_dp(rep, table_10k)
        ordering = check_ordering_by_d(rep)
        bound = all(
            benefit(rep.champion, table_10k.g(m)) <= (m - n) + 1e-9
            for m in range(n, hi + 1)
        )
        dp_points = [
            m
            for m in range(n, hi + 1)
            if compare_factored(table_10k.g(m), table_10k.g(m - 1)) > 0
        ]
        points_match = dp_points == [n + d for d in rep.d_sequence]
        ok = ok and not mism and ordering and bound and points_match
        mismatches[x] = len(mism)
        parts.append(
            f"x={x}: {len(mism)} mismatches, ordering={ordering}, "
            f"benefit bound={bound}, increase points match={points_match}"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    assert _verdict(5, ok, "; ".join(parts) + f" ({elapsed:.1f}s)")


# ---------------------------------------------------------------- 6: products


def test_criterion_06_euler_products(ctx_million):
    start = time.perf_counter()
    twin_style, fsq_density = euler_products(ctx_million, 10**6)
    elapsed = time.perf_counter() - start
    ok = (
        abs(twin_style - 0.6602) <= 1e-3
        and abs(fsq_density - 2.63985) <= 1e-3
        and elapsed < 10.0
    )
    assert _verdict(
        6,
        ok,
        f"odd-prime products to 10^6: {twin_style:.5f} (target 0.6602), "
        f"{fsq_density:.5f} (target 2.63985) ({elapsed:.2f}s)",
    )


# ---------------------------------------------------------------- 7: f and h


def _divisors(n, spf):
    divs = [1]
    while n > 1:
        p, k = spf[n], 0
        while n % p == 0:
            n //= p
            k += 1
        divs = [d * p**e for d in divs for e in range(k + 1)]
    return divs


def test_criterion_07_f_squared_sum_and_moebius_identity():
    sum_ok = all(sum_f_squared_check(x)[1] for x in (10**3, 10**4, 10**5))

    limit = 10**4
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    h_cache: dict[int, Fraction] = {}
    identity_ok = True
    for n in range(1, limit + 1):
        total = Fraction(0)
        for a in _divisors(n, spf):
            if a not in h_cache:
                h_cache[a] = h_convolution(a)
            total += h_cache[a]
        if total != f_factor(n) ** 2:
            identity_ok = False
            break
    ok = sum_ok and identity_ok
    assert _verdict(
        7,
        ok,
        "sum of f^2 stays under (8/3)x for x in {10^3,10^4,10^5} "
        f"(exact rationals); divisor sums of h rebuild f^2 up to {limit}",
    )


# ---------------------------------------------------------------- 8: constants


def test_criterion_08_constant_arithmetic():
    checks = [
        Fraction(27, 16384) >= Fraction(164, 100000),
        C1_EXACT == Fraction(27, 16384),
        C1_SAFE == 0.00164,
        lower_bound_constant(1.0, 0.0) == (Fraction(27, 16384), 0.00164),
        math.isclose(
            lower_bound_constant(0.45, 0.5)[1],
            0.00164 * 0.45**4 * 0.5**4,
            rel_tol=1e-12,
        ),
        lower_bound_constant(0.5, 0.9)[1]
        == 0.00164 * 0.5**4 * (1 - 0.9) ** 4,
    ]
    ok = all(checks)
    assert _verdict(
        8, ok, "27/16384 >= 0.00164 exactly; C2 = 0.00164 a^4 (1-e)^4 spot checks"
    )


# ---------------------------------------------------------------- 9: gap sets


def _difference_identities(ctx, rep):
    lo = bisect_right(ctx.primes, rep.x - rep.x**rep.alpha)
    mid = bisect_right(ctx.primes, rep.x)
    hi = bisect_right(ctx.primes, rep.x + rep.x**rep.alpha)
    pair_count = (mid - lo) * (hi - mid)
    return (
        list(rep.E) == sorted(rep.r)
        and all(d > 0 and d % 2 == 0 for d in rep.E)
        and all(v >= 1 for v in rep.r.values())
        and sum(rep.r.values()) == pair_count
        and all(d < 2 * rep.x**rep.alpha for d in rep.E)
    )


def test_criterion_09_conditional_gap_lower_bound(ctx_million):
    reports = [
        build_gap_report(ctx_million, x, 0.45, 0.5) for x in (100, 1000, 10**5)
    ]
    identities_ok = all(_difference_identities(ctx_million, r) for r in reports)
    rep = reports[-1]
    threshold = rep.c2 * rep.x**rep.alpha
    conditional_ok = (not (rep.hyp31 and rep.hyp32)) or len(rep.E) >= threshold
    ok = identities_ok and conditional_ok
    assert _verdict(
        9,
        ok,
        f"x=10^5: hyp31={rep.hyp31}, hyp32={rep.hyp32}, |E|={len(rep.E)}, "
        f"C2*x^a={threshold:.5f}; count identities exact on all reports",
    )


# ---------------------------------------------------------------- 10: ratios


def test_criterion_10_prime_ratio_bracket():
    from landau.windows import lemma51_bounds

    rng = random.Random(42)
    failures = 0
    for _ in range(1000):
        x = rng.uniform(10, 1000)
        k = rng.randint(1, 6)
        b = sorted(rng.uniform(0.5 * x, x) for _ in range(k))
        a = sorted(rng.uniform(x * (1 + 1e-9), 1.5 * x) for _ in range(k))
        lower, product, upper = lemma51_bounds(x, a, b)
        if not (
            lower <= product * (1 + 1e-12) and product <= upper * (1 + 1e-12)
        ):
            failures += 1
    ok = failures == 0
    assert _verdict(
        10,
        ok,
        f"(x+D)/x <= prod a_i/b_i <= exp(D/x) held on "
        f"{1000 - failures}/1000 random valid instances",
    )


# ---------------------------------------------------------------- 11: gaps


def test_criterion_11_small_increase_gaps(ctx_small):
    stats = gap_statistics(increase_points(landau_g(ctx_small, 3000)))
    twos = stats.histogram.get(2, 0)
    ok = stats.min_gap == 1 and twos > 0
    assert _verdict(
        11,
        ok,
        f"table to 3000: min increase gap {stats.min_gap}, "
        f"gap 2 occurs {twos} times",
    )


# ---------------------------------------------------------------- 12: CLI


CLI_INVOCATIONS = [
    ("g", "--n", "50"),
    ("table", "--to", "40"),
    ("increase-points", "--to", "40"),
    ("gamma", "--n", "60"),
    ("champion", "--x", "13"),
    ("window", "--x", "13", "--alpha", "0.45"),
    ("gaps", "--x", "100", "--alpha", "0.5", "--epsilon", "0.5"),
    ("constants", "--limit", "1000"),
    ("scan", "--xi", "1000", "--alpha", "0.4", "--epsilon", "0.9", "--samples", "10"),
]


def test_criterion_12_cli_determinism():
    unstable = []
    for invocation in CLI_INVOCATIONS:
        cmd = [sys.executable, "-m", "landau", *invocation, "--format", "json"]
        outputs = {
            subprocess.run(cmd, capture_output=True).stdout for _ in range(3)
        }
        if len(outputs) != 1:
            unstable.append(invocation[0])
    ok = not unstable
    assert _verdict(
        12,
        ok,
        f"all {len(CLI_INVOCATIONS)} commands byte-identical across three runs"
        + (f" (unstable: {unstable})" if unstable else ""),
    )
