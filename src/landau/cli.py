"""Command-line surface: one subcommand per engine, text/JSON/CSV emission.

Exit codes: 0 success, 1 domain error, 2 range/budget error, 64 bad flags.
Every scientific parameter is a flag.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import re
import sys

from .arith import BudgetError, DomainError, FactoredInteger, OutOfRangeError, sieve_primes
from .champions import build_champion
from .gtable import TABLE_GUARD, LandauTable, factor_token, gamma, increase_points, landau_g
from .prime_gaps import (
    C1_SAFE,
    build_gap_report,
    euler_products,
    exceptional_measure_scan,
    lower_bound_constant,
)
from .windows import window_checks, window_g

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_RANGE = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -123 and -1.5 for negative numbers, so `--x -1e3`
        # or `--x -inf` would read as a missing value; every spelling float()
        # takes reaches the flag's domain check instead, as `--x=-1e3` does
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
        )

    # argparse exits 2 on bad flags by default, which collides with the
    # range-error code; usage problems get their own code instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _decimal(fi: FactoredInteger) -> str:
    """fi in decimal; BudgetError past the interpreter's int-to-str digit limit,
    read off log_value when clearly over, else from the exact conversion."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7
    if not limit or fi.log_value / math.log(10) <= limit + 1:
        with contextlib.suppress(ValueError):
            return str(fi.value())
    raise BudgetError(f"value has more than {limit} decimal digits, the interpreter's limit")


def _g_line(n: int, fi: FactoredInteger) -> str:
    return f"g({n}) = {_decimal(fi)}" + (f" = {fi}" if fi.factors else "")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _flatten_payload(payload: dict) -> list[tuple[str, str]]:
    """A report's JSON payload → (key, value) rows; the CSV twin of the JSON.

    The lists of lists in a payload are factor lists and its lists of dicts
    are window rows, each with an "m", so the first element tells them apart.
    """
    rows = [("key", "value")]

    def walk(key, v):
        if isinstance(v, dict):
            for k, sub in v.items():
                walk(f"{key}.{k}" if key else str(k), sub)
        elif not isinstance(v, list):
            rows.append((key, _cell(v)))
        elif v and isinstance(v[0], list):
            rows.append((key, factor_token(v)))
        elif v and isinstance(v[0], dict):
            for e in v:
                walk(f"{key}.{e['m']}", {k: s for k, s in e.items() if k != "m"})
        else:
            rows.append((key, " ".join(map(_cell, v))))

    walk("", payload)
    return rows


def _emit(fmt: str, payload, text, csv_rows=None) -> None:
    """Write the one rendering `fmt` names.

    Each rendering is a zero-argument callable, so the two not asked for are
    never built; CSV defaults to the flattened payload.
    """
    if fmt == "json":
        json.dump(payload(), sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows(csv_rows() if csv_rows is not None else _flatten_payload(payload()))
    else:
        sys.stdout.write("\n".join(text()) + "\n")


def _table(n_max: int) -> LandauTable:
    # landau_g refuses n_max past TABLE_GUARD, so no sieve need reach further
    return landau_g(sieve_primes(max(min(n_max, TABLE_GUARD), 3)), n_max)


def _check_in(name: str, value: float, low: float, high: float = math.inf) -> None:
    # before any sieve: inf and NaN would otherwise end in math.ceil
    if not low < value < high:
        raise DomainError(f"{name} must be in ({low}, {high}), got {value}")


# ---------------------------------------------------------------- subcommands


def _run_g(args):
    fi = _table(args.n).g(args.n)
    value = _decimal(fi)  # one value: checked up front, so JSON's int prints too
    _emit(
        args.format,
        lambda: {"n": args.n, "value": fi.value(), "factors": [[p, e] for p, e in fi.factors]},
        lambda: [_g_line(args.n, fi)],
        lambda: [("n", "value", "factors"), (str(args.n), value, factor_token(fi.factors))],
    )


def _run_table(args):
    table = _table(args.to)
    entries = [(n, table.g(n)) for n in range(1, args.to + 1)]
    _emit(
        args.format,
        lambda: {
            "n_max": args.to,
            "table": [{"n": n, "factors": [[p, e] for p, e in fi.factors]} for n, fi in entries],
        },
        lambda: [_g_line(n, fi) for n, fi in entries],
        lambda: [("n", "factors")] + [(str(n), factor_token(fi.factors)) for n, fi in entries],
    )


def _run_increase_points(args):
    points = increase_points(_table(args.to)).points
    _emit(
        args.format,
        lambda: {"to": args.to, "points": list(points)},
        lambda: [f"n_{k} = {p}" for k, p in enumerate(points, start=1)],
        lambda: [("n_k",)] + [(str(p),) for p in points],
    )


def _run_gamma(args):
    value = gamma(_table(args.n), args.n)
    _emit(
        args.format,
        lambda: {"n": args.n, "gamma": value},
        lambda: [f"gamma({args.n}) = {value}"],
        lambda: [("n", "gamma"), (str(args.n), str(value))],
    )


def _run_champion(args):
    x = args.x
    _check_in("x", x, 4)
    ctx = sieve_primes(math.ceil(x))
    champ = build_champion(ctx, x)
    _emit(args.format, champ.payload, lambda: [
        f"champion at x = {_cell(champ.x)}: N = {_decimal(champ.N)} = {champ.N}",
        f"n = ell(N) = {champ.n}",
        f"rho = {_cell(champ.rho)}",
        "slope ties at: " + (" ".join(str(p) for p in champ.tie_flags) or "none"),
    ])


def _run_window(args):
    x, alpha = args.x, args.alpha
    _check_in("x", x, 4)
    _check_in("alpha", alpha, 0, 0.5)
    ctx = sieve_primes(math.ceil(x + 4 * x**alpha) + 1)
    champ = build_champion(ctx, x)
    report = window_g(champ, alpha, ctx)
    checks = window_checks(report, _table(max(report.window_g)))

    def text():
        lines = [
            f"window at x = {_cell(champ.x)}, alpha = {_cell(alpha)}: "
            f"N = {_decimal(champ.N)}, n = {champ.n}",
            "d_sequence: " + " ".join(str(d) for d in report.d_sequence),
        ]
        # labelled window_g, not g: where dp_match is false the swap values
        # deliberately fall short of the table
        lines += [
            f"window_g({m}) = {_decimal(fi)} = {fi}"
            for m, fi in sorted(report.window_g.items())
        ]
        lines.append("checks: " + " ".join(f"{k}={_cell(v)}" for k, v in checks.items()))
        return lines

    _emit(args.format, lambda: report.payload(checks), text)


def _run_gaps(args):
    x, alpha, epsilon = args.x, args.alpha, args.epsilon
    _check_in("alpha", alpha, 0, 1)
    # x − x^α > 1, which build_gap_report requires, already implies x > 1
    _check_in("x", x, 1)
    ctx = sieve_primes(math.ceil(x + x**alpha) + 1)
    report = build_gap_report(ctx, x, alpha, epsilon)
    text = [
        f"x = {_cell(report.x)}, alpha = {_cell(alpha)}, epsilon = {_cell(epsilon)}",
        "E = " + (" ".join(str(d) for d in report.E) or "empty"),
        "r = " + (" ".join(f"{d}:{report.r[d]}" for d in sorted(report.r)) or "empty"),
        f"hyp31 = {_cell(report.hyp31)}, hyp32 = {_cell(report.hyp32)}",
        "selberg = " + " ".join(_cell(c) for c in report.selberg),
        f"c2 = {_cell(report.c2)}",
        f"lower_bound_holds = {_cell(report.lower_bound_holds)}",
    ]
    _emit(args.format, report.payload, lambda: text)


def _run_constants(args):
    limit, alpha, epsilon = args.limit, args.alpha, args.epsilon
    c1, c2 = lower_bound_constant(alpha, epsilon)
    ctx = sieve_primes(limit)
    twin, fsq = euler_products(ctx, limit)
    payload = {
        "c1": [c1.numerator, c1.denominator],
        "c1_float": float(c1),
        "c1_safe": C1_SAFE,
        "c1_safe_valid": float(c1) >= C1_SAFE,
        "alpha": alpha,
        "epsilon": epsilon,
        "c2": c2,
        "euler_limit": limit,
        "twin_product": twin,
        "f_square_product": fsq,
    }
    text = [
        f"C1 = {c1.numerator}/{c1.denominator} = {_cell(float(c1))}",
        f"C1 >= {_cell(C1_SAFE)}: {_cell(float(c1) >= C1_SAFE)}",
        f"C2(alpha={_cell(alpha)}, epsilon={_cell(epsilon)}) = {_cell(c2)}",
        f"twin product over odd primes <= {limit}: {_cell(twin)}",
        f"f^2 density product over odd primes <= {limit}: {_cell(fsq)}",
    ]
    _emit(args.format, lambda: payload, lambda: text)


def _run_scan(args):
    xi, alpha, epsilon, samples = args.xi, args.alpha, args.epsilon, args.samples
    _check_in("xi", xi, 1)  # the grid [ξ, ξ + ξ/log ξ] needs log ξ > 0
    _check_in("alpha", alpha, 0, 1)
    xi_hi = xi + xi / math.log(xi)
    ctx = sieve_primes(math.ceil(xi_hi + xi_hi**alpha) + 1)
    fraction = exceptional_measure_scan(ctx, xi, alpha, epsilon, samples)
    comparator = 1 / math.log(xi) ** 3
    payload = {
        "xi": float(xi),
        "alpha": alpha,
        "epsilon": epsilon,
        "samples": samples,
        "fraction": fraction,
        "comparator": comparator,
    }
    text = [
        f"xi = {_cell(float(xi))}, alpha = {_cell(alpha)}, epsilon = {_cell(epsilon)}, "
        f"samples = {samples}",
        f"exceptional fraction = {_cell(fraction)}",
        f"comparator 1/log^3 xi = {_cell(comparator)}",
    ]
    _emit(args.format, lambda: payload, lambda: text)


# ---------------------------------------------------------------- parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="landau", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, runner, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text",
            help="output format (default text)",
        )
        p.set_defaults(run=runner)
        return p

    p = add("g", _run_g, "one value of g")
    p.add_argument("--n", type=_positive_int, required=True)

    p = add("table", _run_table, "the table g(1..n)")
    p.add_argument("--to", type=_positive_int, required=True)

    p = add("increase-points", _run_increase_points, "where g jumps")
    p.add_argument("--to", type=_positive_int, required=True)

    p = add("gamma", _run_gamma, "count of increase points up to n")
    p.add_argument("--n", type=_positive_int, required=True)

    p = add("champion", _run_champion, "the champion N at rho = x/log x")
    p.add_argument("--x", type=float, required=True)

    p = add("window", _run_window, "swap window around a champion, checked against the table")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)

    p = add("gaps", _run_gaps, "prime-difference set E(x, alpha) with condition flags")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)

    p = add("constants", _run_constants, "sieve constants and Euler products")
    p.add_argument("--limit", type=_positive_int, default=10**6)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.0)

    p = add("scan", _run_scan, "fraction of a grid where the prime-count conditions fail")
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--samples", type=_positive_int, required=True)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.run(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OutOfRangeError, BudgetError, OverflowError) as exc:
        # OverflowError: a finite input whose sieve limit overflows a float
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
