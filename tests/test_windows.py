import math
import random
from dataclasses import replace
from itertools import combinations

import pytest

from landau.arith import BudgetError, DomainError, FactoredInteger, OutOfRangeError, ell
from landau.champions import benefit, build_champion
from landau.gtable import brute_force_g, increase_points, landau_g
from landau.windows import (
    assemble_report,
    check_ordering_by_d,
    enumerate_B,
    eq52_bound_holds,
    lemma51_bounds,
    surrounding_primes,
    verify_window_against_dp,
    window_checks,
    window_g,
)


@pytest.fixture(scope="module")
def rep13(ctx_million):
    return window_g(build_champion(ctx_million, 13), 0.45, ctx_million)


@pytest.fixture(scope="module")
def rep31(ctx_million):
    return window_g(build_champion(ctx_million, 31), 0.45, ctx_million)


@pytest.fixture(scope="module")
def rep100(ctx_million):
    return window_g(build_champion(ctx_million, 100), 0.45, ctx_million)


@pytest.fixture(scope="module")
def rep101(ctx_million):
    return window_g(build_champion(ctx_million, 101), 0.45, ctx_million)


# ---------------------------------------------------------------- prime windows


def test_surrounding_primes_examples(ctx_million):
    assert surrounding_primes(ctx_million, 13, 0.45) == (
        [13, 11, 7, 5, 3, 2],
        [17, 19, 23],
    )
    assert surrounding_primes(ctx_million, 100, 0.5) == (
        [97, 89, 83, 79, 73, 71, 67, 61],
        [101, 103, 107, 109, 113, 127, 131, 137, 139],
    )
    # the window [x - 4x^a, x] clips below 2 at tiny x
    assert surrounding_primes(ctx_million, 5, 0.2) == ([5, 3, 2], [7])


def test_surrounding_primes_guards(ctx_small, ctx_million):
    with pytest.raises(DomainError):
        surrounding_primes(ctx_million, 13, 0.0)
    with pytest.raises(OutOfRangeError):
        surrounding_primes(ctx_small, 9990, 0.45)  # 9990 + 4*9990^0.45 > 10^4


# ---------------------------------------------------------------- enumeration


def test_enumerate_B_x13(ctx_million, rep13):
    # empty swap first, then by swap count and lexicographic (P, Q)
    assert [(c.P_list, c.Q_list, c.d) for c in rep13.candidates] == [
        ((), (), 0),
        ((17,), (11,), 6),
        ((17,), (13,), 4),
        ((19,), (13,), 6),
    ]
    assert [c.value.value() for c in rep13.candidates] == [60060, 92820, 78540, 87780]


def test_enumerate_B_x5(ctx_million):
    champ = build_champion(ctx_million, 5)
    cands = enumerate_B(champ, 0.2, ctx_million)
    assert [(c.value.value(), c.d) for c in cands] == [(60, 0), (84, 2)]


def test_enumerate_B_trivial(ctx_million):
    # 2x^a = 3.59 < P_1 - Q_1 = 11 - 7, so no swap fits
    champ = build_champion(ctx_million, 7)
    cands = enumerate_B(champ, 0.3, ctx_million)
    assert [(c.value, c.d) for c in cands] == [(champ.N, 0)]


def test_enumerate_B_alpha_domain(ctx_million):
    champ = build_champion(ctx_million, 13)
    with pytest.raises(DomainError):
        enumerate_B(champ, 0.5, ctx_million)
    with pytest.raises(DomainError):
        enumerate_B(champ, 0.0, ctx_million)


def test_enumerate_B_budget(ctx_million):
    champ = build_champion(ctx_million, 10**5)
    with pytest.raises(BudgetError):
        enumerate_B(champ, 0.49, ctx_million)


def test_candidate_invariants(rep13, rep31, rep100, rep101):
    for rep in (rep13, rep31, rep100, rep101):
        champ, x = rep.champion, rep.champion.x
        w = 4 * x**rep.alpha
        exps = dict(champ.N.factors)
        for c in rep.candidates:
            assert len(c.P_list) == len(c.Q_list)
            assert all(x < p <= x + w for p in c.P_list)
            assert all(x - w <= q <= x and exps.get(q) == 1 for q in c.Q_list)
            assert c.d == sum(c.P_list) - sum(c.Q_list) == ell(c.value) - champ.n
            assert 0 <= c.d <= 2 * x**rep.alpha
            num, den = math.prod(c.P_list), math.prod(c.Q_list)
            assert c.value.value() * den == champ.N.value() * num
        # enumerate_B keeps no seen-set: distinct (P, Q) must give distinct values
        assert len({c.value for c in rep.candidates}) == len(rep.candidates)


def swap_by_dict(N, P, Q):
    """M = N·∏P/∏Q built from scratch: the construction enumerate_B replaces."""
    merged = dict(N.factors)
    for q in Q:
        del merged[q]
    for p in P:
        merged[p] = 1
    return FactoredInteger(sorted(merged.items()))


@pytest.mark.parametrize("x, alpha", [(13, 0.45), (31, 0.45), (101, 0.45), (1009, 0.45), (10007, 0.4)])
def test_derived_candidates_equal_dict_swaps(ctx_million, x, alpha):
    champ = build_champion(ctx_million, x)
    cands = enumerate_B(champ, alpha, ctx_million)
    # order and d: the empty swap, then every (P, Q) with 0 ≤ d ≤ 2x^α by
    # swap count, then lexicographically
    qs_desc, ps = surrounding_primes(ctx_million, x, alpha)
    exps = dict(champ.N.factors)
    qs = sorted(q for q in qs_desc if exps.get(q) == 1)
    expected = [((), (), 0)]
    for r in range(1, min(len(ps), len(qs)) + 1):
        if sum(ps[:r]) - sum(qs[-r:]) > 2 * x**alpha:
            break
        expected += [
            (P, Q, sum(P) - sum(Q))
            for P in combinations(ps, r)
            for Q in combinations(qs, r)
            if 0 <= sum(P) - sum(Q) <= 2 * x**alpha
        ]
    assert [(c.P_list, c.Q_list, c.d) for c in cands] == expected
    # values: the same factors and, bit for bit, the same log
    for c in cands:
        want = swap_by_dict(champ.N, c.P_list, c.Q_list)
        assert c.value.factors == want.factors
        assert c.value.log_value == want.log_value


def test_enumerate_B_refuses_prime_above_x(ctx_million):
    champ = build_champion(ctx_million, 13)
    N = FactoredInteger([*champ.N.factors, (17, 1)])
    with pytest.raises(DomainError):
        enumerate_B(replace(champ, N=N, n=ell(N)), 0.45, ctx_million)


# ---------------------------------------------------------------- window values


def test_window_values_x13(rep13):
    n = rep13.champion.n
    assert n == 43
    assert rep13.d_sequence == [0, 4, 6]
    values = {m: fi.value() for m, fi in rep13.window_g.items()}
    assert values == {43: 60060, 44: 60060, 45: 60060, 46: 60060,
                      47: 78540, 48: 78540, 49: 92820}


def test_window_values_x5(ctx_million):
    rep = window_g(build_champion(ctx_million, 5), 0.2, ctx_million)
    assert {m: fi.value() for m, fi in rep.window_g.items()} == {12: 60, 13: 60, 14: 84}
    # the top of this tiny window is real: g(14) = 84 by the partition oracle
    assert brute_force_g(14).value() == 84


def test_window_monotone_and_cost_bounds(rep13, rep31, rep100, rep101):
    for rep in (rep13, rep31, rep100, rep101):
        n, x = rep.champion.n, rep.champion.x
        ms = sorted(rep.window_g)
        assert ms == list(range(n, n + math.floor(2 * x**rep.alpha) + 1))
        assert rep.window_g[n] == rep.champion.N
        for a, b in zip(ms, ms[1:]):
            assert rep.window_g[b].value() >= rep.window_g[a].value()
        for m in ms:
            assert n <= ell(rep.window_g[m]) <= n + 2 * x**rep.alpha


def test_window_g_at_offsets_is_slice_max(rep13, rep31, rep100, rep101):
    for rep in (rep13, rep31, rep100, rep101):
        n = rep.champion.n
        for d in rep.d_sequence:
            if d <= max(rep.window_g) - n:
                best = max(c.value.value() for c in rep.by_d[d])
                assert rep.window_g[n + d].value() == best


# ---------------------------------------------------------------- checks


def test_ordering_by_d(rep13, rep100):
    assert check_ordering_by_d(rep13)
    assert check_ordering_by_d(rep100)
    # max(B_4) = 78540 < min(B_6) = 87780 is the binding comparison
    assert max(c.value.value() for c in rep13.by_d[4]) == 78540
    assert min(c.value.value() for c in rep13.by_d[6]) == 87780


def test_ordering_trivial(ctx_million):
    rep = window_g(build_champion(ctx_million, 7), 0.3, ctx_million)
    assert check_ordering_by_d(rep)


def test_eq52_bound(rep13, rep31, rep100, rep101):
    for rep in (rep13, rep31, rep100, rep101):
        assert eq52_bound_holds(rep)


def test_eq52_bound_equals_check_at_every_m(rep13, rep101):
    def every_m(rep):
        n = rep.champion.n
        return all(benefit(rep.champion, fi) <= m - n + 1e-9 for m, fi in rep.window_g.items())

    reps = [rep13, rep101]
    for rep in (rep13, rep101):
        # the candidate with the largest d at every m (one run), and only
        # from its own m on (a run that starts late)
        top = max(rep.candidates, key=lambda c: c.d)
        n = rep.champion.n
        reps.append(replace(rep, window_g=dict.fromkeys(rep.window_g, top.value)))
        reps.append(replace(rep, window_g={
            m: top.value if m - n >= top.d else fi for m, fi in rep.window_g.items()
        }))
    assert [eq52_bound_holds(r) for r in reps] == [every_m(r) for r in reps]
    assert [eq52_bound_holds(r) for r in reps] == [True, True, False, True, False, True]


@pytest.mark.parametrize("x", [1009, 10007])
def test_eq52_slack_dwarfs_the_float_error(ctx_million, x):
    """The verdict needs no tolerance: ben rounds by about ρ·ulp(log N), which
    passes LOG_TIE_EPS at x = 10007, but (m − n) − ben(g(m)) stays a million
    times larger over every window value other than N."""
    champ = build_champion(ctx_million, x)
    rep = window_g(champ, 0.45, ctx_million)
    n, error = champ.n, champ.rho * math.ulp(champ.N.log_value)
    slack = min(m - n - benefit(champ, fi) for m, fi in rep.window_g.items() if fi != champ.N)
    assert slack > 10**6 * error


# ---------------------------------------------------------------- DP comparison


def test_dp_match_x100_x101(rep100, rep101, table_10k):
    assert verify_window_against_dp(rep100, table_10k) == []
    assert verify_window_against_dp(rep101, table_10k) == []
    assert window_checks(rep101, table_10k) == {
        "ordering": True, "dp_match": True, "eq52": True,
    }


def test_exponent_bump_beats_swaps_at_small_x(rep13, rep31, table_10k):
    """At x = 13 and 31 the true g raises the exponent of 2 inside the window,
    which no equal-count prime swap can express; the verifier must say so."""
    mism13 = verify_window_against_dp(rep13, table_10k)
    assert [(m, r) for m, _, _, r in mism13] == [
        (47, "value"), (47, "structure"),
        (48, "value"), (48, "structure"),
        (49, "value"), (49, "structure"),
    ]
    # g(47) = 2^3*3*5*7*11*13 = 2N: cost 2^3 - 2^2 = 4 fits the 2*13^0.45 window
    assert table_10k.g(47).value() == 2 * rep13.champion.N.value() == 120120
    assert mism13[0][1].value() == 78540  # best swap candidate falls short

    mism31 = verify_window_against_dp(rep31, table_10k)
    assert [(m, r) for m, _, _, r in mism31] == [
        (180, "value"), (180, "structure"),
        (181, "value"), (181, "structure"),
    ]
    assert table_10k.g(180).value() == 2 * rep31.champion.N.value()


def test_dp_mismatch_negative_control(ctx_million, rep101, table_10k):
    # dropping a whole slice from a clean window must surface as mismatches
    pruned = [c for c in rep101.candidates if c.d != 2]
    broken = assemble_report(rep101.champion, rep101.alpha, pruned)
    assert verify_window_against_dp(broken, table_10k)


def test_dp_table_too_small(ctx_small, rep13):
    with pytest.raises(OutOfRangeError):
        verify_window_against_dp(rep13, landau_g(ctx_small, 48))


def test_window_increase_points_match_offsets(rep13, rep31, rep101, table_10k):
    # even where swap values fall short, g's jump positions are {n + d_i}
    points = increase_points(table_10k).points
    for rep in (rep13, rep31, rep101):
        n, top = rep.champion.n, max(rep.window_g)
        expected = [n + d for d in rep.d_sequence if n + d <= top]
        assert [m for m in points if n <= m <= top] == expected


# ---------------------------------------------------------------- JSON payload


def test_window_payload_schema(rep13, table_10k):
    payload = rep13.payload(window_checks(rep13, table_10k))
    assert set(payload) == {"x", "alpha", "n", "d_sequence", "window", "checks"}
    assert payload["x"] == 13 and payload["n"] == 43
    assert payload["d_sequence"] == [0, 4, 6]
    assert [e["m"] for e in payload["window"]] == list(range(43, 50))
    assert all(e["d"] == e["m"] - 43 for e in payload["window"])
    assert payload["window"][0]["factors"] == [[2, 2], [3, 1], [5, 1], [7, 1], [11, 1], [13, 1]]
    assert payload["checks"] == {"ordering": True, "dp_match": False, "eq52": True}


# ---------------------------------------------------------------- ratio bounds


def test_lemma51_examples():
    lower, product, upper = lemma51_bounds(10, [11, 12], [9, 10])
    assert (lower, upper) == (1.4, math.exp(0.4))
    assert product == pytest.approx(132 / 90)
    assert lower <= product <= upper

    lower, product, upper = lemma51_bounds(10, [11], [10])
    assert (lower, product) == (1.1, 1.1)
    assert upper == pytest.approx(math.exp(0.1))


def test_lemma51_domain():
    with pytest.raises(DomainError):
        lemma51_bounds(10, [11, 12], [9])
    with pytest.raises(DomainError):
        lemma51_bounds(10, [12, 11], [9, 10])
    with pytest.raises(DomainError):
        lemma51_bounds(10, [11, 12], [10, 9])
    with pytest.raises(DomainError):
        lemma51_bounds(8, [11, 12], [9, 10])  # max(b) > x
    with pytest.raises(DomainError):
        lemma51_bounds(11, [11, 12], [9, 10])  # min(a) <= x


def test_lemma51_stated_upper_bound_fails():
    # the exp(delta/x) cap is not a theorem: b_i below x push the product past it
    lower, product, upper = lemma51_bounds(100, [101], [97])
    assert lower <= product
    assert product > upper


def test_lemma51_property_sweep():
    """1000 random valid instances: the lower bound always holds, and so do
    the two provable caps exp(delta/min b) and x/(x - delta); the stated
    exp(delta/x) cap fails on a measurable fraction."""
    rng = random.Random(42)
    upper_failures = 0
    for _ in range(1000):
        x = rng.uniform(10, 1000)
        k = rng.randint(1, 6)
        b = sorted(rng.uniform(0.5 * x, x) for _ in range(k))
        a = sorted(rng.uniform(x * (1 + 1e-9), 1.5 * x) for _ in range(k))
        lower, product, upper = lemma51_bounds(x, a, b)
        delta = sum(a) - sum(b)
        assert lower <= product * (1 + 1e-12)
        assert product <= math.exp(delta / b[0]) * (1 + 1e-12)
        if delta < x:
            assert product <= x / (x - delta) * (1 + 1e-12)
        if product > upper:
            upper_failures += 1
    assert upper_failures > 0
