"""The four benchmark workloads: their sizes, set-up, requests and output
fingerprints.

A pass is one closed-loop sweep over a workload's requests, in an order (and
with sampled query points) drawn from the seed.  Each request returns an
output; `fingerprint` reduces it to a small JSON value that is compared with
`reference.json`, which `make_reference.py` writes from the same requests.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable
from unittest.mock import patch

# g(1..20), OEIS A000793
PUBLISHED_G = (1, 2, 3, 4, 6, 6, 12, 15, 20, 30, 30, 60, 60, 84, 105, 140, 210, 210, 420, 420)
BRUTE_FORCE_MAX = 35
CHILD_TIMEOUT_S = 120
PROBE_REPS = 5  # interpreter start-up probes per traced cli-warm run
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

SIZES = {
    "full": {
        "table": {
            "n": 5000,
            "champion_x": (5, 199),
            "gamma_n": (1, 20, 100, 420, 1000, 2520, 3000, 3333, 4343, 4444, 4999, 5000),
            "gamma_samples": 4,
        },
        "window": {
            "big": ((20011, 0.4), (30011, 0.4), (40009, 0.4), (10007, 0.45)),
            "small": (13, 31, 101),
            "small_alpha": 0.45,
        },
        "sieve": {
            "sieve": 10**7,
            "fsq": 10**5,
            "euler": 10**6,
            "gap_x": (10**5, 10**6),
            "alpha": 0.45,
            "epsilon": 0.5,
            "scan": (10**4, 0.45, 0.9, 200),
        },
        "cli-warm": {
            "n": (2000, 5000, 10_000),
            "other": (
                ("champion", "--x", "1009"),
                ("gaps", "--x", "100000", "--alpha", "0.45", "--epsilon", "0.5"),
                ("constants", "--limit", "1000000"),
                ("scan", "--xi", "10000", "--alpha", "0.45", "--epsilon", "0.9", "--samples", "200"),
                ("window", "--x", "101", "--alpha", "0.45"),
            ),
        },
    },
    "tiny": {
        "table": {
            "n": 600,
            "champion_x": (5, 31),
            "gamma_n": (1, 7, 60, 172, 420, 600),
            "gamma_samples": 4,
        },
        "window": {"big": ((1009, 0.4),), "small": (13, 31), "small_alpha": 0.45},
        "sieve": {
            "sieve": 10**5,
            "fsq": 10**3,
            "euler": 10**4,
            "gap_x": (10**3, 10**4),
            "alpha": 0.45,
            "epsilon": 0.5,
            "scan": (10**3, 0.45, 0.9, 20),
        },
        "cli-warm": {
            "n": (200, 500),
            "other": (
                ("champion", "--x", "101"),
                ("gaps", "--x", "1000", "--alpha", "0.45", "--epsilon", "0.5"),
                ("constants", "--limit", "10000"),
                ("scan", "--xi", "1000", "--alpha", "0.45", "--epsilon", "0.9", "--samples", "20"),
                ("window", "--x", "13", "--alpha", "0.45"),
            ),
        },
    },
}


@dataclass
class Request:
    key: str  # reference key; requests of one kind share the part before '#'
    run: Callable[[], Any]  # returns the output
    fingerprint: Callable[[Any], Any]  # output -> JSON value compared with the reference


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def factor_token(fi) -> str:
    return " ".join(f"{p}^{e}" for p, e in fi.factors) or "1"


def values_digest(pairs) -> str:
    """Digest of (m, FactoredInteger) pairs in a format of the benchmark's own."""
    return sha256("".join(f"{m}:{factor_token(fi)}\n" for m, fi in pairs))


def same(a, b) -> bool:
    """Deep equality; floats agree to 1e-12 relative, everything else exactly."""
    if isinstance(a, float) or isinstance(b, float):
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        return numbers and math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def child_env(root: Path, cache_dir=None) -> dict:
    env = dict(os.environ)
    env.pop("LANDAU_CACHE_DIR", None)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONIOENCODING"] = "utf-8"
    if cache_dir is not None:
        env["LANDAU_CACHE_DIR"] = str(cache_dir)
    return env


def shuffled(rng, items):
    items = list(items)
    if rng is not None:
        rng.shuffle(items)
    return items


class Workload:
    """Base: `setup` builds what every pass shares, `plan` lists one pass."""

    name = ""
    rss_who = "self"  # whose peak resident memory is reported
    warmup_passes = 1  # untimed passes before the timed ones
    calibrate_in_child = False  # requests are child processes: calibrate with a child kernel

    def __init__(self, L, params: dict, root: Path, workdir: Path):
        self.L, self.p, self.root, self.workdir = L, params, root, workdir

    def setup(self, rep: int) -> dict:
        return {}

    def plan(self, state: dict, rng, in_process: bool = False):
        """The requests of one pass, in order (a list or a generator)."""
        raise NotImplementedError

    def request_stats(self, out) -> dict:
        """Layer counts read from one request's output (traced runs only)."""
        return {}

    def trace_probes(self) -> dict:
        return {}


# --------------------------------------------------------------------- table


class TableWorkload(Workload):
    """sieve, DP table, increase points, γ at sampled n, gap statistics,
    champion membership at every prime x in range, and a cache write."""

    name = "table"

    def __init__(self, *a):
        super().__init__(*a)
        self._brute = None

    def _brute_ok(self, table) -> bool:
        if self._brute is None:
            self._brute = [self.L.brute_force_g(n) for n in range(1, BRUTE_FORCE_MAX + 1)]
        m = min(table.n_max, BRUTE_FORCE_MAX)
        return all(table.g(n) == self._brute[n - 1] for n in range(1, m + 1))

    def _table_fp(self, table):
        m = min(table.n_max, len(PUBLISHED_G))
        return {
            "n_max": table.n_max,
            "sha256": values_digest((n, table.g(n)) for n in range(1, table.n_max + 1)),
            "published_prefix_ok": [table.g(n).value() for n in range(1, m + 1)] == list(PUBLISHED_G[:m]),
            "brute_force_ok": self._brute_ok(table),
        }

    def plan(self, state, rng, in_process=False):
        L, n = self.L, self.p["n"]
        lo, hi = self.p["champion_x"]
        st = {}  # outputs later requests of the pass build on
        cache_path = self.workdir / "table_cache.csv"
        cache_path.unlink(missing_ok=True)  # each pass writes a fresh file

        def r_sieve():
            st["ctx"] = L.sieve_primes(n)
            return st["ctx"]

        def r_dp():
            st["table"] = L.landau_g(st["ctx"], n)
            return st["table"]

        def r_points():
            st["points"] = L.increase_points(st["table"])
            return st["points"]

        def r_write():
            L.write_table_cache(st["table"], cache_path)
            return cache_path

        head = [
            Request(f"sieve_primes:{n}", r_sieve, lambda c: {"count": len(c.primes), "last": c.primes[-1]}),
            Request(f"landau_g:{n}", r_dp, self._table_fp),
            Request(
                f"increase_points:{n}",
                r_points,
                lambda ip: {"count": len(ip.points), "sha256": sha256(" ".join(map(str, ip.points)))},
            ),
            Request(
                f"gap_statistics:{n}",
                lambda: L.gap_statistics(st["points"]),
                lambda gs: {
                    "histogram": {str(k): v for k, v in gs.histogram.items()},
                    "min_gap": gs.min_gap,
                    "mean_gap": gs.mean_gap,
                },
            ),
        ]
        gamma_n = self.p["gamma_n"] if rng is None else rng.sample(self.p["gamma_n"], self.p["gamma_samples"])
        middle = [
            Request(f"gamma:{m}", lambda m=m: L.gamma(st["table"], m), lambda v: v) for m in gamma_n
        ]
        for x in range(lo, hi + 1):
            if all(x % d for d in range(2, math.isqrt(x) + 1)):

                def r_champ(x=x):
                    champ = L.build_champion(st["ctx"], x)
                    return champ, L.verify_membership_in_G(champ, st["table"])

                middle.append(
                    Request(
                        f"champion:{x}",
                        r_champ,
                        lambda out: {"n": out[0].n, "N": str(out[0].N), "member": out[1]},
                    )
                )
        tail = [
            Request(
                f"write_table_cache:{n}",
                r_write,
                lambda path: {"bytes": path.stat().st_size, "sha256": sha256(path.read_bytes())},
            )
        ]
        return head + shuffled(rng, middle) + tail


# -------------------------------------------------------------------- window


class WindowWorkload(Workload):
    """Swap windows near large champions with their checks, then small
    windows checked against a DP table."""

    name = "window"

    def setup(self, rep):
        L = self.L
        ctxs = {}
        for x, alpha in self.p["big"]:
            ctxs[x] = L.sieve_primes(math.ceil(x + 4 * x**alpha) + 1)
        a = self.p["small_alpha"]
        for x in self.p["small"]:
            ctxs[x] = L.sieve_primes(max(math.ceil(x + 4 * x**a) + 1, 5))
        return {"ctxs": ctxs}

    def plan(self, state, rng, in_process=False):
        """Yields requests: the benefit requests of a window exist only once
        its build request has run and found the candidates."""
        L, ctxs = self.L, state["ctxs"]
        st = {}

        def big(x, alpha):
            tag = f"{x}:{alpha}"

            def r_build():
                st[tag] = L.window_g(L.build_champion(ctxs[x], x), alpha, ctxs[x])
                return st[tag], {}

            yield Request(f"window_g:{tag}", r_build, self._window_fp)
            rep = st.pop(tag, None)
            if rep is None:
                return  # the build failed and was counted
            checks = [
                Request(f"check_ordering_by_d:{tag}", lambda: L.check_ordering_by_d(rep), bool),
                Request(f"eq52_bound_holds:{tag}", lambda: L.eq52_bound_holds(rep), bool),
            ]
            for i, c in enumerate(rep.candidates):
                checks.append(
                    Request(
                        f"benefit_by_prime:{tag}#{i}",
                        lambda c=c: L.benefit_by_prime(rep.champion, c.value),
                        lambda terms: {
                            "terms": len(terms),
                            "nonnegative": min(terms.values()) >= -1e-9,
                            "sum": math.fsum(terms.values()),
                        },
                    )
                )
            yield from shuffled(rng, checks)

        def small(x, a):
            def r_small():
                rep = L.window_g(L.build_champion(ctxs[x], x), a, ctxs[x])
                top = max(rep.window_g)
                table = L.landau_g(L.sieve_primes(max(top, 3)), top)
                return rep, L.window_checks(rep, table)

            yield Request(f"window_checks:{x}:{a}", r_small, self._window_fp)

        units = [big(x, alpha) for x, alpha in self.p["big"]]
        units += [small(x, self.p["small_alpha"]) for x in self.p["small"]]
        for unit in shuffled(rng, units):
            yield from unit

    @staticmethod
    def _window_fp(out):
        rep, checks = out
        return {
            "n": rep.champion.n,
            "kept": len(rep.candidates),
            "d_sequence": rep.d_sequence,
            "window_sha256": values_digest(sorted(rep.window_g.items())),
            "checks": checks,
        }


# --------------------------------------------------------------------- sieve


class SieveWorkload(Workload):
    """A large sieve, the exact Σf² sum, Euler products, gap and sieve-bound
    reports, and an exceptional-measure scan."""

    name = "sieve"

    def plan(self, state, rng, in_process=False):
        L, p = self.L, self.p
        alpha, eps = p["alpha"], p["epsilon"]
        st = {}  # outputs later requests of the pass build on

        def r_sieve():
            st["ctx"] = L.sieve_primes(p["sieve"])
            return st["ctx"]

        def r_euler_sieve():
            st["euler_ctx"] = L.sieve_primes(p["euler"])
            return st["euler_ctx"]

        def fsq_fp(out):
            total, verdict, ratio = out
            return {
                "sha256": sha256(f"{total.numerator:x}/{total.denominator:x}"),  # hex: no digit limit
                "verdict": verdict,
                "ratio": ratio,
            }

        rest = [
            Request(f"sum_f_squared_check:{p['fsq']}", lambda: L.sum_f_squared_check(p["fsq"]), fsq_fp),
            Request(
                f"euler_products:{p['euler']}",
                lambda: L.euler_products(st["euler_ctx"], p["euler"]),
                list,
            ),
        ]
        for x in p["gap_x"]:
            rest.append(
                Request(
                    f"build_gap_report:{x}:{alpha}:{eps}",
                    lambda x=x: L.build_gap_report(st["ctx"], x, alpha, eps),
                    lambda g: {
                        "sha256": sha256(json.dumps(g.payload(), sort_keys=True)),
                        "lower_bound_holds": g.lower_bound_holds,
                    },
                )
            )
            rest.append(
                Request(
                    f"sieve_bound_report:{x}:{alpha}",
                    lambda x=x: L.sieve_bound_report(st["ctx"], x, alpha),
                    lambda rows: {
                        "rows": len(rows),
                        "holds": sum(r[3] for r in rows),
                        "sha256": sha256(repr(rows)),
                    },
                )
            )
        xi, s_alpha, s_eps, samples = p["scan"]
        rest.append(
            Request(
                f"exceptional_measure_scan:{xi}:{s_alpha}:{s_eps}:{samples}",
                lambda: L.exceptional_measure_scan(st["ctx"], xi, s_alpha, s_eps, samples),
                lambda v: v,
            )
        )
        sieve_fp = lambda c: {"count": len(c.primes), "last": c.primes[-1], "sum": sum(c.primes)}  # noqa: E731
        head = [
            Request(f"sieve_primes:{p['sieve']}", r_sieve, sieve_fp),
            Request(f"sieve_primes:{p['euler']}", r_euler_sieve, sieve_fp),
        ]
        return head + shuffled(rng, rest)


# ------------------------------------------------------------------ cli-warm

TABLE_COMMANDS = {"g", "gamma", "increase-points", "table", "window"}


class CliWarmWorkload(Workload):
    """Sequential `python -m landau` requests against a pre-filled cache.

    In a traced run the same requests go through `landau.cli.main` in
    process, with stdout captured, so the library layers can be traced.
    """

    name = "cli-warm"
    rss_who = "children"
    warmup_passes = 0  # every request is a fresh process; set-up already read the cache
    calibrate_in_child = True

    def mix(self) -> list[tuple[str, ...]]:
        out = []
        for n in self.p["n"]:
            n = str(n)
            out += [("g", "--n", n), ("gamma", "--n", n), ("increase-points", "--to", n)]
            out.append(("table", "--to", n, "--format", "csv"))
        return out + [tuple(a) for a in self.p["other"]]

    def _main(self, argv, cache_dir):
        out, err = io.StringIO(), io.StringIO()
        env = patch.dict(os.environ, {"LANDAU_CACHE_DIR": str(cache_dir)})
        with env, redirect_stdout(out), redirect_stderr(err):
            try:
                rc = self.L.cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue().encode("utf-8")

    def setup(self, rep):
        cache_dir = self.workdir / f"cache-{rep}"
        cache_dir.mkdir(parents=True)
        for n in self.p["n"]:
            self._main(("g", "--n", str(n)), cache_dir)
        for argv in self.p["other"]:
            if argv[0] in TABLE_COMMANDS:
                self._main(argv, cache_dir)
        return {"cache_dir": cache_dir}

    @staticmethod
    def _snapshot(cache_dir):
        if cache_dir is None:
            return {}
        return {p.name: (st.st_size, st.st_mtime_ns) for p in cache_dir.iterdir() for st in [p.stat()]}

    def plan(self, state, rng, in_process=False):
        cache_dir = state["cache_dir"]  # None: no cache, every table is built
        env = child_env(self.root, cache_dir)
        cmd = [sys.executable, "-m", "landau"]

        def run(argv):
            def go():
                before = self._snapshot(cache_dir)
                if in_process:
                    rc, out = self._main(argv, cache_dir)
                else:
                    proc = subprocess.run(
                        cmd + list(argv),
                        env=env,
                        cwd=self.root,
                        stdout=subprocess.PIPE,
                        stderr=subprocess.DEVNULL,
                        timeout=CHILD_TIMEOUT_S,
                    )
                    rc, out = proc.returncode, proc.stdout
                after = self._snapshot(cache_dir)
                changed = sum(1 for k, v in after.items() if before.get(k) != v)
                return rc, out, changed, argv[0] in TABLE_COMMANDS

            return go

        return [
            Request(
                "cli:" + " ".join(argv),
                run(argv),
                lambda o: {"exit": o[0], "bytes": len(o[1]), "sha256": sha256(o[1])},
            )
            for argv in shuffled(rng, self.mix())
        ]

    def request_stats(self, out):
        if out is None:
            return {"cli.main.errors": 1}
        rc, stdout, changed, uses_table = out
        return {
            "cli.stdout.bytes": len(stdout),
            "cli.main.errors": int(rc != 0),
            "gtable.cache.hits": int(uses_table and not changed),
            "gtable.cache.rebuilds": changed,
        }

    def trace_probes(self) -> dict:
        env = child_env(self.root)

        def wall(code):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=CHILD_TIMEOUT_S)
            return time.perf_counter() - t0

        bare = statistics.median(wall("pass") for _ in range(PROBE_REPS))
        imported = statistics.median(wall("import landau") for _ in range(PROBE_REPS))
        return {"cli.interpreter_start_s": bare, "cli.import_s": imported - bare}


WORKLOADS = {w.name: w for w in (TableWorkload, CliWarmWorkload, WindowWorkload, SieveWorkload)}
