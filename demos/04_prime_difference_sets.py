"""
Prime differences across a point, and how many there are
========================================================

E(x, alpha) collects the differences p - q between primes q in
(x - x^alpha, x] and p in (x, x + x^alpha]; r(d) counts the pairs
realizing each difference.  A sieve bound caps r(d) by a singular-series
factor f(d), and two short-interval hypotheses decide whether the
lower bound |E| >= C2·x^alpha applies.
"""

from landau import (
    build_gap_report,
    difference_set,
    f_factor,
    hypothesis_31_32,
    exceptional_measure_scan,
    sieve_bound_report,
    sieve_primes,
)

ctx = sieve_primes(10**6)

# a small, fully printable case
E, r = difference_set(ctx, 100, 0.5)
print("x = 100, alpha = 0.5:")
print(f"  E = {E}")
print(f"  r = {r}")
print("  differences are even (odd primes on both sides) and below 2·x^alpha")

# f(d) weighs the odd prime divisors of d; it is exactly 1 on powers of 2
print("\nsingular-series factor on the first even d:")
for d in (2, 4, 6, 8, 10, 12, 14):
    print(f"  f({d:2d}) = {f_factor(d)}")

# the sieve cap on r(d) at a larger x: observed counts vs. the bound
print("\nx = 10^5, alpha = 0.45: observed r(d) against the sieve cap")
rows = sieve_bound_report(ctx, 10**5, 0.45)
for d, count, cap, ok in rows[:8]:
    print(f"  d = {d:3d}: r = {count:2d}, cap = {cap:8.3f}, within = {ok}")
print(f"  all {len(rows)} differences within the cap: {all(row[3] for row in rows)}")

# the two hypotheses hold at this x, so the conditional lower bound applies
h31, h32 = hypothesis_31_32(ctx, 10**5, 0.45, 0.5)
rep = build_gap_report(ctx, 10**5, 0.45, 0.5)
print(f"\nhypotheses at x = 10^5: hyp31 = {h31}, hyp32 = {h32}")
threshold = rep.c2 * (10**5) ** 0.45
print(f"  |E| = {len(rep.E)} >= C2·x^alpha = {threshold:.5f}: {len(rep.E) >= threshold}")

# how often do the Selberg conditions fail along [xi, xi + xi/log xi]?
frac = exceptional_measure_scan(ctx, 10**4, 0.45, 0.9, samples=200)
print(f"\nfraction of sampled x in [xi, xi + xi/log xi] failing the Selberg conditions "
      f"at xi = 10^4: {frac:.3f}")
