import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from landau.arith import SIEVE_GUARD, sieve_primes
from landau import cli
from landau.cli import _flatten_payload
from landau.gtable import TABLE_GUARD, landau_g, read_table_cache, write_table_cache
from landau.prime_gaps import SAMPLE_BUDGET

CMD = [sys.executable, "-m", "landau"]


def run_cli(*args, cache_dir=None):
    env = {k: v for k, v in os.environ.items() if k != "LANDAU_CACHE_DIR"}
    if cache_dir is not None:
        env["LANDAU_CACHE_DIR"] = str(cache_dir)
    # a guard that stops working fails the test instead of running for hours
    return subprocess.run([*CMD, *args], capture_output=True, text=True, env=env, timeout=120)


def rows_of(csv_text):
    return list(csv.reader(io.StringIO(csv_text)))


# ---------------------------------------------------------------- text output


def test_g_text_example():
    out = run_cli("g", "--n", "19")
    assert out.returncode == 0
    assert out.stdout == "g(19) = 420 = 2^2·3·5·7\n"


def test_g_of_one_has_no_factorization_tail():
    assert run_cli("g", "--n", "1").stdout == "g(1) = 1\n"


def test_gamma_text():
    assert run_cli("gamma", "--n", "100").stdout == "gamma(100) = 52\n"


# ---------------------------------------------------------------- exit codes


def test_exit_domain_error():
    out = run_cli("champion", "--x", "3")
    assert out.returncode == 1
    assert "error:" in out.stderr


def test_exit_budget_error():
    out = run_cli("table", "--to", "300000")
    assert out.returncode == 2
    assert "error:" in out.stderr


@pytest.mark.parametrize(
    "invocation",
    [
        ("g", "--n", "100000000"),
        ("table", "--to", "99999999"),
        ("increase-points", "--to", str(TABLE_GUARD + 1)),
        ("gamma", "--n", "100000001"),
        ("window", "--x", "40009", "--alpha", "0.4"),  # its table would reach n = 79 402 677
    ],
    ids=" ".join,
)
def test_table_guard_refuses_before_a_sieve_past_it(invocation, monkeypatch, capsys):
    asked = []

    def recording_sieve(limit):
        asked.append(limit)
        return sieve_primes(limit)

    monkeypatch.setattr(cli, "sieve_primes", recording_sieve)
    assert cli.main(list(invocation)) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert re.fullmatch(rf"error: n_max=\d+ exceeds guard {TABLE_GUARD}\n", out.err)
    assert asked and max(asked) <= TABLE_GUARD


# stdout digests of `champion --x 9887` (4297 digits), fixed when the text was
# still built eagerly
CHAMPION_9887_SHA256 = {
    "text": "b3290b3970a5c629c080859afd7ea593bf7119a6eb55dbc007df83ea14d8bcb3",
    "json": "e9f290ce3711ccfd25e9185c89896af8a43741ba8e43d4f8cbf900f7a388e8ae",
    "csv": "87e05e820353bb3bdc500dce6dd36423b5e11c0baf7aef451f3ce92b6f8b432d",
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_champion_below_digit_limit_keeps_its_bytes(fmt):
    out = run_cli("champion", "--x", "9887", "--format", fmt)
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == CHAMPION_9887_SHA256[fmt]


def test_champion_past_digit_limit():
    # N at x = 9901 has more than the default 4300 digits: the text, which
    # prints N in decimal, is refused; JSON and CSV carry only its factors
    out = run_cli("champion", "--x", "9901")
    assert (out.returncode, out.stdout) == (2, "")
    assert "error:" in out.stderr and "Traceback" not in out.stderr
    for fmt in ("json", "csv"):
        assert run_cli("champion", "--x", "9901", "--format", fmt).returncode == 0


def test_digit_limit_is_read_at_run_time(capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert cli.main(["champion", "--x", "2003"]) == 2  # N has 860 digits
        refused = capsys.readouterr()
        assert refused.out == "" and "error:" in refused.err
        assert cli.main(["champion", "--x", "1009"]) == 0  # N has 428 digits
        assert capsys.readouterr().out.startswith("champion at x = 1009.0: N = ")
    finally:
        sys.set_int_max_str_digits(before)


def test_exit_usage_errors():
    assert run_cli().returncode == 64
    assert run_cli("bogus").returncode == 64
    assert run_cli("g", "--n", "0").returncode == 64
    assert run_cli("g", "--n", "x").returncode == 64
    assert run_cli("window", "--x", "abc", "--alpha", "0.45").returncode == 64
    assert run_cli("g", "--n", "5", "--format", "yaml").returncode == 64


def test_window_alpha_domain_is_exit_1():
    assert run_cli("window", "--x", "13", "--alpha", "0.6").returncode == 1


@pytest.mark.parametrize(
    "invocation",
    [
        ("champion", "--x", "inf"),
        ("window", "--x", "inf", "--alpha", "0.4"),
        ("gaps", "--x", "inf", "--alpha", "0.4", "--epsilon", "0.5"),
        ("gaps", "--x", "nan", "--alpha", "0.4", "--epsilon", "0.5"),
        ("scan", "--xi", "inf", "--alpha", "0.4", "--epsilon", "0.5", "--samples", "10"),
        ("scan", "--xi", "1000", "--alpha", "0.4", "--epsilon", "1.5", "--samples", "10"),
        ("scan", "--xi", "1000", "--alpha", "-0.4", "--epsilon", "0.5", "--samples", "10"),
        ("scan", "--xi", "1e200", "--alpha", "2", "--epsilon", "0.5", "--samples", "10"),
        ("constants", "--limit", "1"),  # refused by sieve_primes
        ("constants", "--limit", "2"),  # refused by euler_products
    ],
    ids=" ".join,
)
def test_domain_refusals_are_exit_1(invocation):
    out = run_cli(*invocation)
    assert out.returncode == 1
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


# a negative float in exponent form, or -inf/-nan, right after its flag
NEGATIVE_FLOATS = [
    ("champion", "--x", "-1e3"),
    ("window", "--x", "-1e3", "--alpha", "0.4"),
    ("window", "--x", "101", "--alpha", "-1e-3"),
    ("gaps", "--x", "-1e3", "--alpha", "0.5", "--epsilon", "0.5"),
    ("gaps", "--x", "-inf", "--alpha", "0.5", "--epsilon", "0.5"),
    ("gaps", "--x", "1e3", "--alpha", "-1e-3", "--epsilon", "0.5"),
    ("gaps", "--x", "1e3", "--alpha", "0.5", "--epsilon", "-1e-300"),
    ("constants", "--limit", "1000", "--alpha", "-1E-3"),
    ("constants", "--limit", "1000", "--epsilon", "-1e-300"),
    ("scan", "--xi", "-1e3", "--alpha", "0.5", "--epsilon", "0.5", "--samples", "10"),
    ("scan", "--xi", "1e3", "--alpha", "-.5e0", "--epsilon", "0.5", "--samples", "10"),
    ("scan", "--xi", "1e3", "--alpha", "0.5", "--epsilon", "-NaN", "--samples", "10"),
]


@pytest.mark.parametrize("invocation", NEGATIVE_FLOATS, ids=" ".join)
def test_negative_exponent_floats_are_exit_1(invocation, capsys):
    # `--flag -1e3` and `--flag=-1e3` both reach the flag's domain check
    i = next(i for i, arg in enumerate(invocation) if arg[0] == "-" and arg[1] != "-")
    joined = [*invocation[: i - 1], f"{invocation[i - 1]}={invocation[i]}", *invocation[i + 1 :]]
    for argv in (list(invocation), joined):
        assert cli.main(argv) == 1, argv
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:") and "Traceback" not in out.err


def test_scan_sample_budget_is_exit_2(capsys):
    start = time.perf_counter()
    argv = ["scan", "--xi", "10000", "--alpha", "0.45", "--epsilon", "0.9", "--samples", "100000000"]
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 0.5
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:")


@pytest.mark.parametrize(
    "invocation",
    [
        ("champion", "--x", "1e300"),
        ("constants", "--limit", "1000000000000"),
        # finite inputs whose sieve limit overflows a float
        ("gaps", "--x", "1.7e308", "--alpha", "0.9999", "--epsilon", "0.5"),
        ("scan", "--xi", "1.7e308", "--alpha", "0.9999", "--epsilon", "0.5", "--samples", "10"),
        # about 1.32·10⁹ prime pairs, past difference_set's budget
        ("gaps", "--x", "1e6", "--alpha", "0.95", "--epsilon", "0.5"),
    ],
    ids=" ".join,
)
def test_oversized_sieve_is_exit_2(invocation):
    out = run_cli(*invocation)
    assert out.returncode == 2
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


# every flag of every subcommand at a small valid value
FUZZ_DEFAULTS = {
    "g": {"--n": "50"},
    "table": {"--to": "50"},
    "increase-points": {"--to": "50"},
    "gamma": {"--n": "50"},
    "champion": {"--x": "13"},
    "window": {"--x": "13", "--alpha": "0.45"},
    "gaps": {"--x": "1000", "--alpha": "0.45", "--epsilon": "0.5"},
    "constants": {"--limit": "1000", "--alpha": "1.0", "--epsilon": "0.0"},
    "scan": {"--xi": "1000", "--alpha": "0.45", "--epsilon": "0.5", "--samples": "10"},
}
FUZZ_VALUES = [
    "nan", "inf", "-inf", "-0.0", "0", "1", "4", repr(4 + 1e-9), "1e308", "1e-300", "-1e3", "abc",
]
# one past the guard a flag's size meets first; at or below a guard the work
# is real (a DP to 2·10⁵, a sieve to 10⁸, 10⁶ scan points)
FUZZ_PAST_GUARD = {
    "--n": TABLE_GUARD + 1,
    "--to": TABLE_GUARD + 1,
    "--limit": SIEVE_GUARD + 1,
    "--x": SIEVE_GUARD + 1,
    "--xi": SIEVE_GUARD + 1,
    "--samples": SAMPLE_BUDGET + 1,
}


def fuzz_argvs():
    """Each subcommand with one flag at a time set to a special value."""
    for command, defaults in FUZZ_DEFAULTS.items():
        for flag in [*defaults, "--format"]:
            past = [str(FUZZ_PAST_GUARD[flag])] if flag in FUZZ_PAST_GUARD else []
            for value in FUZZ_VALUES + past:
                flags = {**defaults, flag: value}
                yield [command, *(t for pair in flags.items() for t in pair)]


def test_every_flag_value_ends_in_an_answer_or_a_refusal(capsys):
    for argv in fuzz_argvs():
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusing a flag
            code = exc.code
        except Exception as exc:  # name the argv; the chained traceback says where
            raise AssertionError(" ".join(argv)) from exc
        out = capsys.readouterr()
        assert code in (0, 1, 2, 64), argv
        assert "Traceback" not in out.err, argv
        assert code == 0 or out.out == "", argv


# stdout digests of one run per command and format; see the test's docstring
CLI_SHA256 = {
    ("g", "--n", "50"): {
        "text": "22a4132eb943531e9b3865c0e2927fbe1c5823c6b67aa94fd4ff52661e344284",
        "json": "2fcab84ca1bd595ee8c7475a98b570672bd864e408f85080e9f211be5fe2b4ae",
        "csv": "926cc4cdbb9cf2463e7eebc2e9aba31ed9e66fca50d214b63a69695a5d2efe5f",
    },
    ("table", "--to", "30"): {
        "text": "0cafc967ab9a1d0e3ac5a6430bbff874dc872fe74e40b00605227f2848b655b5",
        "json": "ca20ea85d4af38047f5d1fe522e36e0bf9866c3d0aaddc26f7f3ff5c081033c1",
        "csv": "38d6c67caa164200254dbb839b9de4ad5bc00f0383887265b9f1c7900932ed7f",
    },
    ("increase-points", "--to", "100"): {
        "text": "37c1dfb6bac0862eb9f7cace69ec88af7496d3b7c3069f9225c468d92cf62428",
        "json": "4f29a8394c349154e63ae1979c7de8b45a2caf29ad170099fb65d53f35d468b7",
        "csv": "f831519915de795b8bfce67bd6283a3fd8dd2f74102f818432bfc6c6947cc89d",
    },
    ("gamma", "--n", "100"): {
        "text": "f2132bbcf50295284d7e97313b037d1af3fd511c750e21a616166f1ddbe40459",
        "json": "d4f451ac77ef11dd3c490423142e5f4d7cfc79a9cc6c3eae896e848dbd59c9c4",
        "csv": "42dda3197e6ff12c84472cc7566662fdf58c7a285b844a7795a116412c4b0d84",
    },
    ("champion", "--x", "13"): {
        "text": "3526a725b10a4e55df6bad8d1445fdc421c8a640ad9822cc665d7671ec2bc031",
        "json": "6b1f7be1aee2978bf6889e82818532c8786096522f280be87e5357cfbd7efc3b",
        "csv": "bb707e8609a16ad8878c57d181066748a9aac983f1806ef47098651a3bd474a8",
    },
    ("window", "--x", "13", "--alpha", "0.45"): {
        "text": "5dafc1bf3784775cd1f72924cccadada78f59936b926b7e0631b0c2fe6608fa6",
        "json": "a5bcef6d9350e1c027539ca87759d5cc31acf4a6ae0d1829544ee2c55c0840be",
        "csv": "d12b93a344ef3ae9428114bf126ab021363b8542b7df0a1fa4e4311ab7c31cde",
    },
    ("gaps", "--x", "1000", "--alpha", "0.45", "--epsilon", "0.5"): {
        "text": "ff301282343a2fee5dc1414f2035815469eef87ae230ff53eb387406e4ff6d5f",
        "json": "558899569d52d9de0f1891b8bebabee0632649f9694ce973b9ded9a5b6d64f8e",
        "csv": "5798343ed67612df322c5ba7183ea9a91c6e8443b76c8a2f72f90d554bae5703",
    },
    ("constants", "--limit", "10000"): {
        "text": "573c94628a35cb5505eda2eb8d80f977ff5da309ace524785c22a8b21374afe8",
        "json": "ebd716020d9c7c138db3e1290a165d839b4684871ca073e8ac243507fcefef88",
        "csv": "df92575d1eccf0935fdd1d68cdde34f52bd856c92abc9e34dab395f2558be039",
    },
    ("scan", "--xi", "1000", "--alpha", "0.45", "--epsilon", "0.9", "--samples", "20"): {
        "text": "68315071faf8c3d5bda8bc5b6f7339d52a654576df1cdebf06e60033987bb65f",
        "json": "0098331687689220b70e63b284d66fef0dab72cf2d3ac85b39a72944f2810ba4",
        "csv": "df857f2331ed581d883b0305dc07852bc50ff806f6d288012b04c247d8b0a040",
    },
}


def test_cli_stdout_keeps_its_bytes(capsys):
    """Each command's stdout in each format is the frozen one, byte for byte.

    The digests were taken on Linux x86-64 with CPython 3.11 and numpy 2.4.
    champion, gaps, constants and scan print computed floats (ρ and the scan's
    comparator come from math.log), so another platform's libm or numpy may
    change a last digit there.
    """
    for invocation, digests in CLI_SHA256.items():
        for fmt, digest in digests.items():
            assert cli.main([*invocation, "--format", fmt]) == 0, (invocation, fmt)
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (invocation, fmt)


# ---------------------------------------------------------------- csv output


def test_increase_points_csv():
    out = run_cli("increase-points", "--to", "8", "--format", "csv")
    assert rows_of(out.stdout) == [["n_k"], ["1"], ["2"], ["3"], ["4"], ["5"], ["7"], ["8"]]


def test_table_csv_prefix():
    out = run_cli("table", "--to", "5", "--format", "csv")
    assert rows_of(out.stdout) == [
        ["n", "factors"],
        ["1", "1"],
        ["2", "2^1"],
        ["3", "3^1"],
        ["4", "2^2"],
        ["5", "2^1 3^1"],
    ]


# ---------------------------------------------------------------- json output


def test_window_json_small_x_reports_honest_dp_mismatch():
    out = run_cli("window", "--x", "13", "--alpha", "0.45", "--format", "json")
    payload = json.loads(out.stdout)
    assert payload["n"] == 43
    assert payload["d_sequence"] == [0, 4, 6]
    assert [e["m"] for e in payload["window"]] == list(range(43, 50))
    assert payload["checks"] == {"ordering": True, "dp_match": False, "eq52": True}


def test_window_json_x101_all_checks_pass():
    out = run_cli("window", "--x", "101", "--alpha", "0.45", "--format", "json")
    payload = json.loads(out.stdout)
    assert payload["checks"] == {"ordering": True, "dp_match": True, "eq52": True}


def test_gaps_json_schema():
    out = run_cli("gaps", "--x", "100", "--alpha", "0.5", "--epsilon", "0.5", "--format", "json")
    payload = json.loads(out.stdout)
    assert set(payload) == {
        "x", "alpha", "epsilon", "E", "r", "hyp31", "hyp32",
        "selberg", "c2", "lower_bound_holds",
    }
    assert payload["E"] == [4, 6, 10, 12]
    assert payload["r"] == {"4": 1, "6": 1, "10": 1, "12": 1}
    assert (payload["hyp31"], payload["hyp32"]) == (True, False)
    assert payload["selberg"] == [False, False, True]


def test_champion_json():
    payload = json.loads(run_cli("champion", "--x", "13", "--format", "json").stdout)
    assert payload["n"] == 43
    assert payload["factors"] == [[2, 2], [3, 1], [5, 1], [7, 1], [11, 1], [13, 1]]
    assert payload["tie_flags"] == [13]


# ---------------------------------------------------------------- format parity


REPORT_INVOCATIONS = [
    ("champion", "--x", "13"),
    ("window", "--x", "13", "--alpha", "0.45"),
    ("gaps", "--x", "100", "--alpha", "0.5", "--epsilon", "0.5"),
    ("constants", "--limit", "1000"),
    ("scan", "--xi", "1000", "--alpha", "0.4", "--epsilon", "0.9", "--samples", "10"),
]


@pytest.mark.parametrize("invocation", REPORT_INVOCATIONS, ids=lambda inv: inv[0])
def test_csv_is_flattened_json(invocation):
    payload = json.loads(run_cli(*invocation, "--format", "json").stdout)
    got = run_cli(*invocation, "--format", "csv").stdout
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(_flatten_payload(payload))
    assert got == buf.getvalue()


def test_table_csv_matches_json():
    payload = json.loads(run_cli("table", "--to", "30", "--format", "json").stdout)
    got = rows_of(run_cli("table", "--to", "30", "--format", "csv").stdout)
    expected = [["n", "factors"]] + [
        [str(e["n"]), " ".join(f"{p}^{a}" for p, a in e["factors"]) or "1"]
        for e in payload["table"]
    ]
    assert got == expected


def test_cell_prints_floats_and_booleans():
    assert cli._cell(np.float64(0.1)) == "0.1"
    assert cli._cell(0.1) == "0.1"
    assert (cli._cell(True), cli._cell(False)) == ("true", "false")


N13 = "2^2 3^1 5^1 7^1 11^1 13^1"
N17 = "2^2 3^1 5^1 7^1 11^1 17^1"
FLAT_ROWS = {
    "champion": [
        ("x", "13.0"), ("rho", "5.06832618826664"), ("n", "43"), ("factors", N13),
        ("tie_flags", "13"),
    ],
    "window": [
        ("x", "13.0"), ("alpha", "0.45"), ("n", "43"), ("d_sequence", "0 4 6"),
        ("window.43.factors", N13), ("window.43.d", "0"),
        ("window.44.factors", N13), ("window.44.d", "1"),
        ("window.45.factors", N13), ("window.45.d", "2"),
        ("window.46.factors", N13), ("window.46.d", "3"),
        ("window.47.factors", N17), ("window.47.d", "4"),
        ("window.48.factors", N17), ("window.48.d", "5"),
        ("window.49.factors", "2^2 3^1 5^1 7^1 13^1 17^1"), ("window.49.d", "6"),
        ("checks.ordering", "true"), ("checks.dp_match", "false"), ("checks.eq52", "true"),
    ],
    "gaps": [
        ("x", "100.0"), ("alpha", "0.5"), ("epsilon", "0.5"), ("E", "4 6 10 12"),
        ("r.4", "1"), ("r.6", "1"), ("r.10", "1"), ("r.12", "1"),
        ("hyp31", "true"), ("hyp32", "false"), ("selberg", "false false true"),
        ("c2", "6.40625e-06"), ("lower_bound_holds", "true"),
    ],
    "constants": [
        ("c1", "27 16384"), ("c1_float", "0.00164794921875"), ("c1_safe", "0.00164"),
        ("c1_safe_valid", "true"), ("alpha", "1.0"), ("epsilon", "0.0"), ("c2", "0.00164"),
        ("euler_limit", "1000"), ("twin_product", "0.6602457439708004"),
        ("f_square_product", "2.639174551307731"),
    ],
    "scan": [
        ("xi", "1000.0"), ("alpha", "0.4"), ("epsilon", "0.9"), ("samples", "10"),
        ("fraction", "0.0"), ("comparator", "0.0030338155272056294"),
    ],
}


@pytest.mark.parametrize("invocation", REPORT_INVOCATIONS, ids=lambda inv: inv[0])
def test_flatten_payload_rows(monkeypatch, invocation):
    """Each report's payload, as the command builds it in process, flattens to
    these rows (same platform caveat as the stdout digests above)."""
    payloads = []
    monkeypatch.setattr(cli, "_emit", lambda fmt, payload, *_: payloads.append(payload()))
    assert cli.main(list(invocation)) == 0
    assert _flatten_payload(payloads[0]) == [("key", "value"), *FLAT_ROWS[invocation[0]]]


# ---------------------------------------------------------------- determinism


def test_repeat_runs_are_byte_identical():
    for invocation in (("g", "--n", "50"), ("window", "--x", "13", "--alpha", "0.45")):
        for fmt in ("text", "json", "csv"):
            first = run_cli(*invocation, "--format", fmt).stdout
            second = run_cli(*invocation, "--format", fmt).stdout
            assert first == second


# ---------------------------------------------------------------- table cache


def test_cache_dir_is_ignored(tmp_path):
    # the CLI always builds its table: a well-formed but wrong cache line is
    # neither served nor rewritten
    cache_file = tmp_path / "g_table_30.csv"
    write_table_cache(landau_g(sieve_primes(29), 29), cache_file)
    with cache_file.open("a") as f:
        f.write("30,2^40\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    out = run_cli("g", "--n", "30", cache_dir=tmp_path)
    assert out.returncode == 0
    assert out.stdout == "g(30) = 4620 = 2^2·3·5·7·11\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_cache_roundtrip_10k_under_a_second(tmp_path, table_10k):
    path = tmp_path / "g_table_10000.csv"
    start = time.perf_counter()
    write_table_cache(table_10k, path)
    loaded = read_table_cache(path)
    elapsed = time.perf_counter() - start
    assert loaded == table_10k
    assert elapsed < 1.0
