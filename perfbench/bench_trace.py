"""Span tracing of landau's public functions, installed from outside the package.

`Tracer.install()` replaces every module attribute that *is* one of the traced
functions (so `from .gtable import landau_g` aliases in other modules are
caught too) with a wrapper that records a span: name, start, end, parent and
the request it belongs to.  Self time of a span is its duration minus the
time covered by its child spans.  `Tracer.uninstall()` restores the originals,
so untraced passes run the unmodified functions.

Per-call hooks add work counts at the same boundaries.  Counts marked
*computed* are derived from the call's inputs and repeat exactly from run to
run; the others are read from the call's result.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from itertools import combinations

# counts derived from a call's inputs (or a file's size), not read from the program
COMPUTED_COUNTS = (
    "gtable.landau_g.cells",
    "windows.enumerate_B.pairs_tried",
    "prime_gaps.sum_f_squared_check.terms",
    "gtable.write_table_cache.bytes",
    "gtable.read_table_cache.bytes",
    "prime_gaps.euler_products.primes",
)


def dp_cells(primes, n_max: int) -> int:
    """Σ over prime powers c ≤ n_max of (n_max − c + 1): the (budget, power)
    pairs a full prime-power DP to n_max relaxes."""
    total = 0
    for p in primes[: bisect_right(primes, n_max)]:
        c = p
        while c <= n_max:
            total += n_max - c + 1
            c *= p
    return total


def swap_pairs(champ, alpha: float, ctx) -> int:
    """(P, Q) pairs in the swap search space of a champion, the empty swap
    counted once: every P-tuple whose sum can stay within 2x^α against the
    largest Q's, times all Q-tuples of the same size."""
    x = champ.x
    w = 4 * x**alpha
    primes = ctx.primes
    exps = dict(champ.N.factors)
    qs = [
        q
        for q in primes[bisect_left(primes, math.ceil(x - w)) : bisect_right(primes, x)]
        if exps.get(q) == 1
    ]
    ps = primes[bisect_right(primes, x) : bisect_right(primes, x + w)]
    d_max = 2 * x**alpha
    r_max = 0
    while r_max < min(len(ps), len(qs)) and sum(ps[: r_max + 1]) - sum(qs[-(r_max + 1) :]) <= d_max:
        r_max += 1
    total = 1
    for r in range(1, r_max + 1):
        max_q_sum = sum(qs[-r:])
        n_p = sum(1 for P in combinations(ps, r) if sum(P) - max_q_sum <= d_max)
        total += n_p * math.comb(len(qs), r)
    return total


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _add(stats, key, v):
    stats[key] = stats.get(key, 0) + v


def _count(key):
    return lambda stats, args, kwargs, out: _add(stats, key, 1)


def _odd_primes_upto(ctx, limit):
    return bisect_right(ctx.primes, limit) - (1 if ctx.primes and ctx.primes[0] == 2 else 0)


# (module, function) -> per-call hook(stats, args, kwargs, result) adding counts, or None
LAYERS = {
    ("arith", "sieve_primes"): lambda s, a, k, out: _add(s, "arith.sieve_primes.primes", len(out.primes)),
    ("arith", "compare_factored"): _count("arith.compare_factored.calls"),
    ("gtable", "landau_g"): lambda s, a, k, out: _add(
        s, "gtable.landau_g.cells", dp_cells(_arg(a, k, 0, "ctx").primes, _arg(a, k, 1, "n_max"))
    ),
    ("gtable", "increase_points"): lambda s, a, k, out: _add(s, "gtable.increase_points.points", len(out.points)),
    ("gtable", "gamma"): None,
    ("gtable", "write_table_cache"): lambda s, a, k, out: _add(
        s, "gtable.write_table_cache.bytes", os.stat(_arg(a, k, 1, "path")).st_size
    ),
    ("gtable", "read_table_cache"): lambda s, a, k, out: _add(
        s, "gtable.read_table_cache.bytes", os.stat(_arg(a, k, 0, "path")).st_size
    ),
    ("champions", "build_champion"): _count("champions.build_champion.calls"),
    ("champions", "benefit_by_prime"): None,
    ("champions", "verify_membership_in_G"): None,
    ("windows", "enumerate_B"): lambda s, a, k, out: (
        _add(s, "windows.enumerate_B.pairs_tried", swap_pairs(a[0], _arg(a, k, 1, "alpha"), _arg(a, k, 2, "ctx"))),
        _add(s, "windows.enumerate_B.kept", len(out)),
    ),
    ("windows", "assemble_report"): None,
    ("windows", "check_ordering_by_d"): None,
    ("windows", "eq52_bound_holds"): None,
    ("windows", "verify_window_against_dp"): None,
    ("prime_gaps", "sum_f_squared_check"): lambda s, a, k, out: _add(
        s, "prime_gaps.sum_f_squared_check.terms", _arg(a, k, 0, "limit")
    ),
    ("prime_gaps", "euler_products"): lambda s, a, k, out: _add(
        s, "prime_gaps.euler_products.primes", _odd_primes_upto(a[0], _arg(a, k, 1, "limit"))
    ),
    ("prime_gaps", "difference_set"): lambda s, a, k, out: _add(s, "prime_gaps.difference_set.pairs", sum(out[1].values())),
    ("prime_gaps", "exceptional_measure_scan"): None,
    ("prime_gaps", "selberg_conditions"): _count("prime_gaps.selberg_conditions.calls"),
    ("prime_gaps", "nearest_slope"): _count("prime_gaps.nearest_slope.calls"),
    ("cli", "main"): None,
}


class Tracer:
    """Records spans around the functions in LAYERS while installed.

    `stats` accumulates self time (`<layer>.s`) and counts for the current
    pass; `begin_pass()` clears it.
    `spans` holds the (id, name, start, end, parent_id, request) tuples of
    the first pass only, which keeps memory flat over long runs.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []
        self.stats: dict[str, float] = {}
        self.request = None
        self._passes = 0
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def begin_pass(self) -> None:
        self.stats = {}
        self._passes += 1

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself (a request)."""
        self._push(name)
        try:
            yield
        finally:
            self._pop()

    def _push(self, name):
        sid = -1
        if self._passes <= 1:
            sid = len(self.spans)
            self.spans.append(None)  # placeholder, filled on exit
        self._stack.append([name, time.perf_counter(), 0.0, sid])

    def _pop(self):
        name, start, child, sid = self._stack.pop()
        end = time.perf_counter()
        dur = end - start
        key = name + ".s"
        self.stats[key] = self.stats.get(key, 0.0) + dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        if sid >= 0:
            self.spans[sid] = (sid, name, start, end, parent[3] if parent else -1, self.request)

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            tracer._push(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._pop()
            if hook is not None:
                hook(tracer.stats, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        homes = {m: importlib.import_module(f"{self.package.__name__}.{m}") for m, _ in LAYERS}
        modules = [self.package, *homes.values()]
        for (mod_name, fn_name), hook in LAYERS.items():
            original = getattr(homes[mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, hook)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
