"""
The numeric constants, and one bound that fails
===============================================

Everything quantitative in the difference-set machinery reduces to a few
constants: two Euler products over odd primes, an exact (8/3)x cap on the
partial sums of f^2, and the pair C1 = 27/16384, C2 = 0.00164·a^4(1-e)^4.
The last section exhibits a stated ratio inequality that is simply false,
together with the weaker versions that do hold.
"""

import math
import random
from fractions import Fraction

from landau import (
    euler_products,
    f_factor,
    h_convolution,
    lemma51_bounds,
    lower_bound_constant,
    nearest_slope,
    sieve_primes,
    sum_f_squared_check,
)

ctx = sieve_primes(10**6)

# two Euler products over odd primes, evaluated as partial products
twin_style, fsq_density = euler_products(ctx, 10**6)
print("Euler products over odd primes p <= 10^6:")
print(f"  prod (1 - 1/(p-1)^2)          = {twin_style:.6f}   (limit 0.6602...)")
print(f"  prod (1 + 1/(p-2) + ...)      = {fsq_density:.6f}   (limit 2.63985...)")

# partial sums of f^2 stay under (8/3)x — checked in exact rationals
# (the exact fractions grow enormous denominators; print only the smallest)
total10, _, _ = sum_f_squared_check(10)
print(f"\nsum of f(n)^2 for n <= 10, exactly: {total10}")
print("sum of f(n)^2 for n <= x, divided by x (cap 8/3 = 2.66667):")
for x in (10, 10**3, 10**5):
    _, ok, ratio = sum_f_squared_check(x)
    print(f"  x = {x:6d}: sum/x = {ratio:.5f}  under the cap = {ok}")

# h is the Moebius companion of f^2: divisor sums of h rebuild f^2 exactly
n = 105
hsum = sum(h_convolution(a) for a in (1, 3, 5, 7, 15, 21, 35, 105))
print(f"\nn = 105: sum of h over divisors = {hsum} = f(105)^2 = {f_factor(105)**2}")

# the constant pair: C1 exactly, then C2 for a few parameter choices
c1, c2_base = lower_bound_constant(1.0, 0.0)
print(f"\nC1 = {c1} = {float(c1):.8f} >= 0.00164: "
      f"{Fraction(27, 16384) >= Fraction(164, 100000)}")
for alpha, eps in ((1.0, 0.0), (0.45, 0.5), (0.5, 0.9)):
    print(f"  C2(alpha={alpha}, eps={eps}) = {lower_bound_constant(alpha, eps)[1]:.3e}")

# slope separation: the nearest competing corner slope to x = 100
p, k, margin = nearest_slope(ctx, 100)
print(f"\nnearest corner slope to x = 100: prime {p}, exponent {k}, "
      f"margin {margin:.5f} vs sqrt(x)/log^4(x) = {10 / math.log(100)**4:.5f}")

# ratio products of primes across x: the lower bound always holds, but the
# often-stated cap exp(D/x) does not — b_i below x push the product past it
print("\nratio bracket on 200 random instances (seed 7):")
rng = random.Random(7)
low_ok = cap_ok = min_b_ok = 0
for _ in range(200):
    x = rng.uniform(10, 1000)
    k = rng.randint(1, 6)
    b = sorted(rng.uniform(0.5 * x, x) for _ in range(k))
    a = sorted(rng.uniform(x * (1 + 1e-9), 1.5 * x) for _ in range(k))
    lower, product, upper = lemma51_bounds(x, a, b)
    delta = sum(a) - sum(b)
    low_ok += lower <= product * (1 + 1e-12)
    cap_ok += product <= upper * (1 + 1e-12)
    min_b_ok += product <= math.exp(delta / b[0]) * (1 + 1e-12)
print(f"  (x+D)/x <= product   : {low_ok}/200")
print(f"  product <= exp(D/x)  : {cap_ok}/200   <-- fails; not a theorem")
print(f"  product <= exp(D/min b): {min_b_ok}/200   (the cap that does hold)")
one = lemma51_bounds(100, [101], [97])
print(f"  counterexample x=100, a=(101,), b=(97,): product {one[1]:.6f} "
      f"> exp(D/x) = {one[2]:.6f}")
