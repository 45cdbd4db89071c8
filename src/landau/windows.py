"""Swap neighborhoods of a champion: the candidate set B, its slices B_d, and
g reproduced on [n, n + 2x^α] without touching the DP.

Near a champion N (built at x, with n = ℓ(N)), every g(m) for m up to
n + 2x^α has the form M = N·(P₁…P_r)/(Q₁…Q_r): equally many primes swapped
in just above x and out just below x, each Q having exponent 1 in N, with
d = ℓ(M) − ℓ(N) = ΣP − ΣQ ≤ 2x^α.  Collecting those M into B and slicing by
d gives g(n + d) = max B_d and makes the window's increase points exactly
{n + d : B_d ≠ ∅}.

Candidates are derived from N's factor list: M keeps N's (p, e) pairs
outside the Q's and appends the P's, and its log is N's exact log sum
corrected by the 2r swapped terms, so a candidate costs no factor checks
and no log over the primes it shares with N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .arith import (
    LOG_TIE_EPS,
    BudgetError,
    DomainError,
    FactoredInteger,
    PrimeContext,
    primes_between,
)
from .champions import ChampionRecord, benefit
from .gtable import LandauTable

CANDIDATE_BUDGET = 10**7


@dataclass(frozen=True)
class SwapCandidate:
    """One M = N·∏P/∏Q with |P| = |Q| and d = ΣP − ΣQ."""

    P_list: tuple[int, ...]
    Q_list: tuple[int, ...]
    d: int
    value: FactoredInteger


@dataclass(frozen=True)
class WindowReport:
    champion: ChampionRecord
    alpha: float
    candidates: list[SwapCandidate]
    by_d: dict[int, list[SwapCandidate]]
    window_g: dict[int, FactoredInteger]
    d_sequence: list[int]

    def payload(self, checks: dict) -> dict:
        n = self.champion.n
        return {
            "x": self.champion.x,
            "alpha": self.alpha,
            "n": n,
            "d_sequence": self.d_sequence,
            "window": [
                {"m": m, "factors": [[p, e] for p, e in fi.factors], "d": m - n}
                for m, fi in sorted(self.window_g.items())
            ],
            "checks": checks,
        }


def surrounding_primes(
    ctx: PrimeContext, x: float, alpha: float
) -> tuple[list[int], list[int]]:
    """Primes in [x − 4x^α, x] descending and (x, x + 4x^α] ascending."""
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    w = 4 * x**alpha
    ps = primes_between(ctx, x, x + w)
    return primes_between(ctx, math.ceil(x - w) - 1, x)[::-1], ps


def _exact_parts(terms: list[float]) -> list[float]:
    """A few floats with the same exact sum as terms: each is fsum's correctly
    rounded value of what the earlier ones leave over (usually two in all)."""
    parts: list[float] = []
    while rest := math.fsum([*terms, *(-t for t in parts)]):
        parts.append(rest)
    return parts


def _drop(seq: tuple, cuts: list[int]) -> tuple:
    """seq without the entries at the ascending positions cuts."""
    out, lo = (), 0
    for i in cuts:
        out += seq[lo:i]
        lo = i + 1
    return out + seq[lo:]


def enumerate_B(
    champ: ChampionRecord, alpha: float, ctx: PrimeContext
) -> list[SwapCandidate]:
    """All swap candidates with 0 ≤ d ≤ 2x^α, the empty swap included.

    Enumeration is by increasing swap count r, then lexicographic in
    (P_list, Q_list); a combinatorial budget refuses runs that would generate
    more than 10⁷ candidates.
    """
    if not 0 < alpha < 0.5:
        raise DomainError(f"alpha must be in (0, 1/2), got {alpha}")
    x = champ.x
    qs_desc, ps = surrounding_primes(ctx, x, alpha)
    fs = champ.N.factors
    if ps and fs and fs[-1][0] >= ps[0]:
        raise DomainError(f"champion has the prime {fs[-1][0]} above x = {x}")
    pos = {p: i for i, (p, e) in enumerate(fs) if e == 1}
    qs = sorted(q for q in qs_desc if q in pos)
    d_max = 2 * x**alpha

    # feasible swap counts: the cheapest r-swap uses the r smallest P's
    # against the r largest Q's, and that floor grows with r
    r_max = 0
    while (
        r_max < min(len(ps), len(qs))
        and sum(ps[: r_max + 1]) - sum(qs[-(r_max + 1) :]) <= d_max
    ):
        r_max += 1
    total = sum(math.comb(len(ps), r) * math.comb(len(qs), r) for r in range(r_max + 1))
    if total > CANDIDATE_BUDGET:
        raise BudgetError(f"window would enumerate {total} candidates (> {CANDIDATE_BUDGET})")

    # M's factors: N's without the Q's, then (p, 1) for each P, still sorted
    # because every P exceeds N's primes and combinations yields P ascending.
    # log M: the parts of N's exact log sum, less the Q terms, plus the P
    # logs, which add up exactly to M's own terms.
    terms = [e * math.log(p) for p, e in fs]
    n_parts = _exact_parts(terms)
    p_logs = {p: math.log(p) for p in ps}

    # distinct (P, Q) give distinct M: P sets differ in the primes above x, Q
    # sets in the primes at most x removed from N, so no candidate repeats
    out = [SwapCandidate(P_list=(), Q_list=(), d=0, value=champ.N)]
    for r in range(1, r_max + 1):
        max_q_sum = sum(qs[-r:])
        for P in combinations(ps, r):
            sp = sum(P)
            if sp - max_q_sum > d_max:
                continue
            for Q in combinations(qs, r):
                d = sp - sum(Q)
                if 0 <= d <= d_max:
                    cuts = [pos[q] for q in Q]
                    value = FactoredInteger._trusted(
                        _drop(fs, cuts) + tuple((p, 1) for p in P),
                        [*n_parts, *(-terms[i] for i in cuts), *(p_logs[p] for p in P)],
                    )
                    out.append(SwapCandidate(P_list=P, Q_list=Q, d=d, value=value))
    return out


def assemble_report(
    champ: ChampionRecord, alpha: float, candidates: list[SwapCandidate]
) -> WindowReport:
    """Slice candidates into B_d and roll g over [n, n + ⌊2x^α⌋]."""
    by_d: dict[int, list[SwapCandidate]] = {}
    for c in candidates:
        by_d.setdefault(c.d, []).append(c)
    d_sequence = sorted(by_d)

    n = champ.n
    width = math.floor(2 * champ.x**alpha)
    window: dict[int, FactoredInteger] = {}
    running = champ.N
    for m in range(n, n + width + 1):
        if m - n in by_d:
            running = max(running, max(c.value for c in by_d[m - n]))
        window[m] = running

    return WindowReport(
        champion=champ,
        alpha=alpha,
        candidates=candidates,
        by_d=by_d,
        window_g=window,
        d_sequence=d_sequence,
    )


def window_g(champ: ChampionRecord, alpha: float, ctx: PrimeContext) -> WindowReport:
    return assemble_report(champ, alpha, enumerate_B(champ, alpha, ctx))


def check_ordering_by_d(report: WindowReport) -> bool:
    """max B_d < min B_{d′} for every nonempty d < d′ (consecutive suffices)."""
    seq, by_d = report.d_sequence, report.by_d
    return all(
        max(c.value for c in by_d[a]) < min(c.value for c in by_d[b])
        for a, b in zip(seq, seq[1:])
    )


def eq52_bound_holds(report: WindowReport) -> bool:
    """ben(g(m)) ≤ m − n throughout the window (float slack LOG_TIE_EPS)."""
    n, prev = report.champion.n, None
    for m, fi in sorted(report.window_g.items()):
        # m − n grows along a run of one value, so the run's first m binds
        if fi is not prev and not benefit(report.champion, fi) <= m - n + LOG_TIE_EPS:
            return False
        prev = fi
    return True


def verify_window_against_dp(report: WindowReport, table: LandauTable) -> list[tuple]:
    """Every window m where the swap construction and the DP disagree, plus
    every DP value that breaks the equal-count swap shape; empty when sound.

    Entries are (m, window_value, dp_value, reason) with reason "value" or
    "structure".  Only table.g(m) is read, so any g(m) provider serves.
    """
    champ = report.champion
    x = champ.x
    w = 4 * x**report.alpha

    mismatches = []
    alphas = dict(champ.N.factors)
    for m in sorted(report.window_g):
        wv, dpv = report.window_g[m], table.g(m)
        if wv != dpv:
            mismatches.append((m, wv, dpv, "value"))
        betas = dict(dpv.factors)
        added = [p for p in betas if p not in alphas]
        removed = [q for q in alphas if q not in betas]
        ok = len(added) == len(removed)
        ok = ok and all(betas[p] == 1 and x < p <= x + w for p in added)
        ok = ok and all(alphas[q] == 1 and x - w <= q <= x for q in removed)
        ok = ok and all(betas[p] == alphas[p] for p in betas if p in alphas)
        if not ok:
            mismatches.append((m, wv, dpv, "structure"))
    return mismatches


def window_checks(report: WindowReport, table: LandauTable) -> dict[str, bool]:
    return {
        "ordering": check_ordering_by_d(report),
        "dp_match": not verify_window_against_dp(report, table),
        "eq52": eq52_bound_holds(report),
    }


def lemma51_bounds(
    x: float, a_list: list[float], b_list: list[float]
) -> tuple[float, float, float]:
    """Δ = Σ(a_i − b_i); returns ((x+Δ)/x, ∏ a_i/b_i, exp(Δ/x)).

    Requires b_1 ≤ … ≤ b_k ≤ x < a_1 ≤ … ≤ a_k (both lists ascending).  The
    caller asserts the bracket; this only evaluates the three quantities.
    """
    k = len(a_list)
    if k == 0 or len(b_list) != k:
        raise DomainError("a_list and b_list must be nonempty and equally long")
    if any(a2 < a1 for a1, a2 in zip(a_list, a_list[1:])) or any(
        b2 < b1 for b1, b2 in zip(b_list, b_list[1:])
    ):
        raise DomainError("a_list and b_list must be nondecreasing")
    if not b_list[-1] <= x < a_list[0]:
        raise DomainError(f"need max(b) ≤ x < min(a), got x={x}")
    delta = sum(a_list) - sum(b_list)
    product = math.prod(a / b for a, b in zip(a_list, b_list))
    return (x + delta) / x, product, math.exp(delta / x)
