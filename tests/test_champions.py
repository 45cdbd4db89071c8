import math
import random
from dataclasses import replace

import pytest

from landau.arith import DomainError, FactoredInteger, OutOfRangeError, ell
from landau.champions import benefit, benefit_by_prime, build_champion, verify_membership_in_G
from landau.gtable import landau_g
from landau.windows import enumerate_B

PRIMES_300 = [p for p in range(2, 300) if all(p % d for d in range(2, int(p**0.5) + 1))]


def random_M(rng):
    # champion-scale candidates: each prime power capped at 10^4 so the
    # float evaluation stays within the 1e-9 agreement tolerance
    fs = sorted(rng.sample(PRIMES_300, rng.randint(1, 8)))
    cap = lambda p: int(math.log(10**4) / math.log(p))
    return FactoredInteger([(p, rng.randint(1, min(4, cap(p)))) for p in fs])


# ---------------------------------------------------------------- construction


def test_build_champion_examples(ctx_small):
    c5 = build_champion(ctx_small, 5)
    assert (c5.N.value(), c5.n) == (60, 12)
    c7 = build_champion(ctx_small, 7)
    assert (c7.N.value(), c7.n) == (420, 19)
    c13 = build_champion(ctx_small, 13)
    assert (c13.N.value(), c13.n) == (60060, 43)
    assert c13.N.factors == ((2, 2), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1))


def test_build_champion_guards(ctx_small):
    with pytest.raises(DomainError):
        build_champion(ctx_small, 4)
    with pytest.raises(OutOfRangeError):
        build_champion(ctx_small, 10**4 + 10)


def test_champion_structure(champion_sweep):
    for c in champion_sweep:
        assert c.rho > 2 / math.log(2)
        # every p ≤ x present with α_p ≥ 1, and p^{α_p} ≤ x exactly
        assert [p for p, _ in c.N.factors] == [q for q in PRIMES_300 if q <= c.x] or c.x > 300
        for p, a in c.N.factors:
            assert a >= 1
            assert p**a <= c.x
        assert c.n == ell(c.N)


def test_prime_x_ties_at_top(champion_sweep):
    # ρ = x/log x hits the k=1 corner of p = x exactly, so a prime x is flagged
    for c in champion_sweep:
        assert int(c.x) in c.tie_flags


def test_payload_schema(ctx_small):
    c13 = build_champion(ctx_small, 13)
    assert c13.payload() == {
        "x": 13.0,
        "rho": 13 / math.log(13),
        "n": 43,
        "factors": [[2, 2], [3, 1], [5, 1], [7, 1], [11, 1], [13, 1]],
        "tie_flags": [13],
    }


# ---------------------------------------------------------------- benefit


def test_benefit_examples(ctx_small):
    c5 = build_champion(ctx_small, 5)
    M30 = FactoredInteger([(2, 1), (3, 1), (5, 1)])
    M120 = FactoredInteger([(2, 3), (3, 1), (5, 1)])
    assert benefit(c5, c5.N) == 0.0
    assert benefit(c5, M30) == pytest.approx(10 - 12 - c5.rho * math.log(0.5), abs=1e-12)
    assert benefit(c5, M30) == pytest.approx(0.153383, abs=1e-6)
    assert benefit(c5, M120) == pytest.approx(1.846617, abs=1e-6)


def test_benefit_paths_agree(champion_sweep):
    rng = random.Random(42)
    for c in champion_sweep[::6]:
        for _ in range(100):
            M = random_M(rng)
            assert sum(benefit_by_prime(c, M).values()) == pytest.approx(
                benefit(c, M), abs=1e-9
            )


def test_benefit_terms_nonnegative(ctx_small):
    rng = random.Random(7)
    for x in (5, 13, 101):
        c = build_champion(ctx_small, x)
        for _ in range(1000):
            M = random_M(rng)
            terms = benefit_by_prime(c, M)
            assert all(t >= -1e-9 for t in terms.values())
            assert benefit(c, M) >= -1e-9


def benefit_by_prime_every_prime(champ, M):
    """The per-prime formula evaluated at every prime of N and M, ascending."""
    alphas = dict(champ.N.factors)
    betas = dict(M.factors)
    terms = {}
    for p in sorted(alphas.keys() | betas.keys()):
        a, b = alphas.get(p, 0), betas.get(p, 0)
        la = p**a if a else 0
        lb = p**b if b else 0
        terms[p] = (lb - la) - champ.rho * (b - a) * math.log(p)
    return terms


def with_exp(N, p, e):
    """N with the exponent of p set to e; e = 0 drops p."""
    fs = dict(N.factors) | {p: e}
    return FactoredInteger(sorted((q, k) for q, k in fs.items() if k))


def assert_same_terms(champ, M):
    got, want = benefit_by_prime(champ, M), benefit_by_prime_every_prime(champ, M)
    # keys in order, and floats bit for bit (hex tells +0.0 from −0.0)
    assert [(p, t.hex()) for p, t in got.items()] == [(p, t.hex()) for p, t in want.items()]


def test_benefit_terms_bit_identical_on_swaps(ctx_million):
    for x in (13, 31, 101, 1009):
        champ = build_champion(ctx_million, x)
        for c in enumerate_B(champ, 0.45, ctx_million):
            assert_same_terms(champ, c.value)


def test_benefit_terms_bit_identical_on_exponent_changes(ctx_small):
    for x in (5, 13, 101, 997):
        champ = build_champion(ctx_small, x)
        N = champ.N
        for p, a in N.factors[:3] + N.factors[-2:]:
            assert_same_terms(champ, with_exp(N, p, a + 1))  # raise
            assert_same_terms(champ, with_exp(N, p, a - 1))  # lower (drops when a = 1)
            assert_same_terms(champ, with_exp(N, p, 0))  # drop
        assert_same_terms(champ, with_exp(N, ctx_small.primes[len(N.factors) + 1], 2))  # new prime
        assert_same_terms(champ, FactoredInteger())


def test_benefit_terms_bit_identical_with_prime_between(ctx_small):
    # an N with gaps, so M's new primes land between N's and after them
    N = FactoredInteger([(2, 3), (5, 1), (11, 2), (13, 1)])
    champ = replace(build_champion(ctx_small, 13), N=N, n=ell(N))
    for M in (
        with_exp(N, 7, 1),
        with_exp(with_exp(N, 3, 2), 17, 1),
        with_exp(with_exp(N, 13, 0), 3, 1),
        FactoredInteger([(3, 1), (7, 2), (19, 1)]),
    ):
        assert_same_terms(champ, M)
        assert list(benefit_by_prime(champ, M)) == sorted(dict(N.factors) | dict(M.factors))
    rng = random.Random(11)
    for _ in range(300):
        assert_same_terms(champ, random_M(rng))


# ---------------------------------------------------------------- membership


def test_membership_examples(ctx_small, table_10k):
    assert verify_membership_in_G(build_champion(ctx_small, 5), table_10k)
    assert verify_membership_in_G(build_champion(ctx_small, 7), table_10k)
    assert verify_membership_in_G(build_champion(ctx_small, 199), table_10k)


def test_membership_sweep(champion_sweep, table_10k):
    assert all(verify_membership_in_G(c, table_10k) for c in champion_sweep)


def test_membership_needs_table(ctx_small):
    with pytest.raises(OutOfRangeError):
        verify_membership_in_G(build_champion(ctx_small, 199), landau_g(ctx_small, 100))


# ---------------------------------------------------------------- attainment


def test_attain_property_all_primes_to_199(ctx_small, table_10k):
    # every prime p ≤ 199 is the largest prime factor of some g(n): g(2) = 2,
    # g(3) = 3, and for p ≥ 5 the champion at x = p, which is g(ℓ(N))
    assert [table_10k.g(n).factors[-1][0] for n in (2, 3)] == [2, 3]
    for p in [q for q in PRIMES_300 if 5 <= q <= 199]:
        assert table_10k.g(build_champion(ctx_small, p).n).factors[-1][0] == p
