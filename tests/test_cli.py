import csv
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

import hahnpoly
import reference_kernels as ref
from hahnpoly import cli, verify
from hahnpoly.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_MISMATCH,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_PIPE,
    COMMANDS,
    PAIR_SUITES,
    _parse,
    main,
)
from hahnpoly.classical import PRESETS, RecurrenceTable, check_regular, recurrence
from hahnpoly.functional import MomentFunctional
from hahnpoly.qnum import HahnFrame, PearsonPair
from test_identities import _poly_fault


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CHARLIER_FLAGS = ["--d", "-1", "--e", "1/2", "--b", "1", "--q", "1", "--omega", "1"]
# a pair and frame with tall, unrelated denominators: the moments at depth 24 run past 640 digits
TALL_FLAGS = ["--a=7/11", "--b=-5/13", "--c=3/17", "--d=-19/23", "--e=2/29", "--q=31/37", "--omega=5/41"]


class TestArgumentHandling:
    def test_bad_rational(self, capsys):
        code, _, err = run(capsys, "classify", "--q", "2", "--omega", "0", "--d", "one")
        assert code == EXIT_INPUT
        assert "rational" in json.loads(err)["error"]

    @pytest.mark.parametrize("value", ["1e2000000", "1e3", "0.5", "inf", "nan", "1/0"])
    @pytest.mark.parametrize("flag", ["--q", "--e", "--y0"])
    def test_rational_is_p_or_p_over_q(self, capsys, flag, value):
        # Fraction alone reads 1e2000000 as a 6.6-million-bit integer, which took 39 s to classify
        flags = {"--q": "1", "--omega": "1", "--d": "-1", "--e": "1/2", "--y0": "1", flag: value}
        start = time.perf_counter()
        code, out, err = run(capsys, "moments", "--n", "2", *(f"{k}={v}" for k, v in flags.items()))
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_INPUT, "")
        assert json.loads(err) == {"error": f"{flag[2:]}: {value!r} is not a rational (expected 'p' or 'p/q')"}

    def test_long_exponent_prints_nothing(self, capsys):
        # read as 10**5000, q once raised the 4300-digit str() limit out of main with empty stdout
        code, out, err = run(capsys, "moments", "--q", "1e5000", "--omega", "1", "--d", "1", "--n", "2")
        assert (code, out) == (EXIT_INPUT, "")
        assert "not a rational" in json.loads(err)["error"]

    @pytest.mark.parametrize("text, value", [("7", 7), ("-1/3", F(-1, 3)), ("+2/4", F(1, 2)), ("-0", 0)])
    def test_signed_rationals_parse(self, text, value):
        assert cli._parse_rational(text, "q") == value

    @pytest.mark.parametrize("value", ["1_2", " 12", "12 ", "\u0661\u0662", "x", "1.0", "0x1"])
    @pytest.mark.parametrize("argv", [["classify", "--preset", "charlier", "--n"],
                                      ["verify", "--preset", "charlier", "--suite", "rodrigues", "--test-degree"],
                                      ["verify", "--preset", "charlier", "--suite", "gram", "--fuzz-moment"]],
                             ids=lambda argv: argv[-1])
    def test_integer_flag_is_ascii_digits(self, capsys, argv, value):
        # int() alone reads 1_2, ' 12' and Arabic-Indic digits as 12
        code, out, err = run(capsys, *argv[:-1], f"{argv[-1]}={value}")
        assert (code, out) == (EXIT_INPUT, "")
        assert json.loads(err) == {"error": f"hahnpoly {argv[0]}: argument {argv[-1]}: invalid int value: {value!r}"}

    @pytest.mark.parametrize("text, value", [("12", 12), ("+3", 3), ("-0", 0), ("007", 7)])
    def test_signed_integers_parse(self, text, value):
        assert cli._parse_int(text) == value

    @pytest.mark.parametrize("value", ["1_2", " 12", "\u0661\u0662"])
    def test_depth_env_var_is_ascii_digits(self, capsys, monkeypatch, value):
        monkeypatch.setenv("HAHNPOLY_DEPTH", value)
        code, out, err = run(capsys, "moments", "--preset", "charlier")
        assert (code, out) == (EXIT_INPUT, "")
        assert json.loads(err) == {"error": f"HAHNPOLY_DEPTH: {value!r} is not an integer"}

    def test_preset_exclusive_with_explicit(self, capsys):
        code, _, err = run(capsys, "classify", "--preset", "charlier", "--q", "2")
        assert code == EXIT_INPUT
        assert "mutually exclusive" in json.loads(err)["error"]

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "classify", "--preset", "legendre")
        assert code == EXIT_INPUT

    def test_unknown_preset_message(self, capsys):
        # the message is get_preset's own text, not the repr of its KeyError
        code, out, err = run(capsys, "classify", "--preset", "legendre")
        assert (code, out) == (EXIT_INPUT, "")
        assert json.loads(err) == {
            "error": "unknown preset 'legendre'; available: al-salam-carlitz, charlier, little-q-laguerre, meixner"}

    @pytest.mark.parametrize("flag", ["a", "b", "c", "d", "e"])
    def test_empty_coefficient_is_invalid(self, capsys, flag):
        # an empty --a= once read as a = 0 and classified that pair
        flags = {"a": "0", "b": "1", "d": "-1", flag: ""}
        code, out, err = run(capsys, "classify", *(f"--{k}={v}" for k, v in flags.items()),
                             "--q=1", "--omega=1", "--n", "2")
        assert (code, out) == (EXIT_INPUT, "")
        assert json.loads(err) == {"error": f"{flag}: '' is not a rational (expected 'p' or 'p/q')"}

    @pytest.mark.parametrize("argv, error", [
        (["classify", "--preset", "legendre", "--q", "2"], "unknown preset 'legendre'"),
        (["classify", "--preset", "charlier", "--q", "x"], "q: 'x' is not a rational"),
        (["verify", "--suite", "identities", "--y0", "x"], "y0: 'x' is not a rational"),
    ], ids=["preset", "q", "y0"])
    def test_malformed_value_before_flag_rules(self, capsys, argv, error):
        # _parse parses each value as it reads it, before any rule on which flags may be combined
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert json.loads(err)["error"].startswith(error)

    def test_integer_past_str_digit_limit(self, capsys):
        # int() refuses more than 4300 digits with a ValueError, which _parse_int reports as any other bad int
        digits = "1" * 5000
        code, out, err = run(capsys, "classify", "--preset", "charlier", "--n", digits)
        assert (code, out) == (EXIT_INPUT, "")
        assert json.loads(err) == {"error": f"hahnpoly classify: argument --n: invalid int value: {digits!r}"}

    def test_all_zero_pair_is_invalid(self, capsys):
        code, out, err = run(capsys, "classify", "--q", "1", "--omega", "1")
        assert (code, out) == (EXIT_INPUT, "")
        assert json.loads(err) == {"error": "phi and psi cannot both be the zero polynomial"}

    @pytest.mark.parametrize("argv", [["classify", "--d", "-1", "--e", "1/2"], ["classify", "--d=-1", "--q=1"],
                                      ["verify", "--suite", "identities", "--omega", "1"]],
                             ids=lambda argv: " ".join(argv))
    def test_explicit_needs_frame(self, capsys, argv):
        # a pair and a frame alone report the one missing-frame message
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert json.loads(err) == {"error": "an explicit frame needs --q and --omega (or use --preset)"}

    def test_degenerate_frame_is_input_error(self, capsys):
        code, _, _ = run(capsys, "classify", "--d", "1", "--q", "1", "--omega", "0")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("argv, names", [
        pytest.param(argv, names, id=" ".join(argv)) for argv, names in [
            (["classify", "--bogus", "1"], "--bogus"),
            (["classify", "--preset", "charlier", "--n", "abc"], "'abc'"),
            (["verify", "--suite", "nope"], "'nope'"),
        ]
    ])
    def test_argument_error_exits_with_json(self, capsys, argv, names):
        # an argument error is invalid input, not exit 2, the code for a negative classification
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert names in json.loads(err)["error"]

    @pytest.mark.parametrize("base, flag, value", [
        (["moments", "--preset", "charlier"], "--y0", "-1/3"),
        (["classify", "--b", "1", "--d", "-1", "--q", "1", "--omega", "1"], "--e", "-1/2"),
        (["classify", "--b", "1", "--e", "1/2", "--q", "1", "--omega", "1"], "--d", "-3/2"),
    ], ids=["y0", "e", "d"])
    def test_negative_fraction_value(self, capsys, base, flag, value):
        # the token after a flag is its value, even when it starts with "-"
        split = run(capsys, *base, flag, value)
        assert split == run(capsys, *base, f"{flag}={value}")
        assert split[0] != EXIT_INPUT and split[2] == ""

    def test_negative_fraction_from_process_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["hahnpoly", "moments", "--preset", "charlier", "--y0", "-1/3"])
        assert main() == EXIT_OK
        assert json.loads(capsys.readouterr().out)["moments"][0] == "-1/3"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hahnpoly classify")

    def test_depth_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("HAHNPOLY_DEPTH", "3")
        code, out, _ = run(capsys, "moments", "--preset", "charlier")
        assert code == EXIT_OK
        assert len(json.loads(out)["moments"]) == 4

    def test_depth_env_var_read_per_call(self, capsys, monkeypatch):
        # the flag table is built once, at import; the depth variable is still read on every call
        table = {name: dict(flags) for name, (_, flags) in COMMANDS.items()}
        checked = []
        for depth in ("3", "5"):
            monkeypatch.setenv("HAHNPOLY_DEPTH", depth)
            code, out, _ = run(capsys, "classify", "--preset", "charlier")
            assert code == EXIT_OK
            checked.append(json.loads(out)["checkedDThrough"])
        assert checked == [7, 11]
        assert {name: flags for name, (_, flags) in COMMANDS.items()} == table

    def test_depth_env_var_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv("HAHNPOLY_DEPTH", "three")
        code, _, _ = run(capsys, "moments", "--preset", "charlier")
        assert code == EXIT_INPUT


class TestClassify:
    def test_regular_preset(self, capsys):
        code, out, _ = run(capsys, "classify", "--preset", "charlier", "--n", "10")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["regular"] is True
        assert payload["firstRegularityFailure"] is None

    def test_irregular_pair(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--d", "-1", "--b", "1", "--q", "1", "--omega", "1"
        )
        assert code == EXIT_NEGATIVE
        payload = json.loads(out)
        assert payload["firstRegularityFailure"] == {
            "index": 0,
            "condition": "phi_root_condition",
        }

    @pytest.mark.parametrize("y0, error", [
        ("5", "--y0: classify reads no moment table"),
        ("-1/3", "--y0: classify reads no moment table"),
        # _parse parses the value before classify applies its rule
        ("abc", "y0: 'abc' is not a rational"),
    ], ids=["5", "-1/3", "abc"])
    def test_y0_is_invalid_input(self, capsys, y0, error):
        # classify reads no moment table, so a --y0 it ignored would look accepted
        code, out, err = run(capsys, "classify", "--preset", "charlier", "--y0", y0)
        assert (code, out) == (EXIT_INPUT, "")
        assert json.loads(err)["error"].startswith(error)

    def test_human_format(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--preset", "meixner", "--n", "6", "--format", "human"
        )
        assert code == EXIT_OK and "regular up to N=6" in out


class TestRecurrence:
    def test_charlier_json(self, capsys):
        code, out, _ = run(capsys, "recurrence", *CHARLIER_FLAGS, "--n", "5")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["beta"][:3] == ["1/2", "3/2", "5/2"]
        assert payload["gamma"][1:4] == ["1/2", "1", "3/2"]

    def test_csv_header(self, capsys):
        code, out, _ = run(
            capsys, "recurrence", "--preset", "charlier", "--n", "3", "--format", "csv"
        )
        lines = out.strip().splitlines()
        assert code == EXIT_OK and lines[0] == "n,beta,gamma"
        assert lines[1].startswith("0,1/2,")

    def test_y0_sets_gamma0(self, capsys):
        # gamma[0] holds <u, 1>; the row recurrence reads gamma from index 1
        _, plain, _ = run(capsys, "recurrence", "--preset", "charlier", "--n", "2")
        code, out, _ = run(capsys, "recurrence", "--preset", "charlier", "--n", "2", "--y0", "5")
        expected = json.loads(plain)
        expected["gamma"][0] = "5"
        assert code == EXIT_OK and json.loads(out) == expected

    @pytest.mark.parametrize("fmt", ["csv", "human"])
    def test_deep_table_without_json(self, capsys, monkeypatch, fmt):
        # the JSON text at N = 100 holds P_n coefficients past Python's 4300-digit str limit
        def unreachable(self):
            raise AssertionError("built the JSON text")

        monkeypatch.setattr(cli, "_recurrence_json", unreachable)
        if fmt == "csv":  # csv prints no P_n, so it never expands one
            monkeypatch.setattr(RecurrenceTable, "polys", property(unreachable))
        code, out, err = run(capsys, "recurrence", "--preset", "al-salam-carlitz", "--n", "100", "--format", fmt)
        assert (code, err) == (EXIT_OK, "")
        assert len(out.splitlines()) == (102 if fmt == "csv" else 106)
        assert ("P_" in out) == (fmt == "human")

    def test_digit_limit_exits_internal_and_prints_nothing(self, capsys):
        # every chunk of the JSON text is built before the first write, so the error leaves stdout empty
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # Python's default, whatever the environment set
        try:
            code, out, err = run(capsys, "recurrence", "--preset", "al-salam-carlitz", "--n", "100", "--format", "json")
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (EXIT_INTERNAL, "")
        assert re.match(r"ValueError: Exceeds the limit \(4300 digits\) for integer string conversion",
                        json.loads(err)["error"])

    def test_human_expands_only_the_printed_polys(self, capsys, monkeypatch):
        # human prints P_0..P_4, which a depth-3 table holds; P_100 of this table is megabytes
        expand = RecurrenceTable.polys.func
        depths = []

        def recording(self):
            depths.append(self.depth)
            return expand(self)

        monkeypatch.setattr(RecurrenceTable, "polys", property(recording))
        code, out, err = run(capsys, "recurrence", "--preset", "al-salam-carlitz", "--n", "100", "--format", "human")
        assert (code, err) == (EXIT_OK, "")
        assert depths and max(depths) <= 3
        assert [line.split(" = ")[0] for line in out.splitlines()[101:]] == [f"P_{n}" for n in range(5)]

    @pytest.mark.parametrize("y0", ["0", "0/5", "-0"])
    def test_zero_functional_exits_negative(self, capsys, y0):
        # the zero functional has no orthogonal sequence, whatever gamma_1.. the pair gives
        code, out, err = run(capsys, "recurrence", "--preset", "charlier", "--y0", y0)
        assert (code, out) == (EXIT_NEGATIVE, "")
        assert "zero functional" in json.loads(err)["error"]

    def test_irregular_exits_negative(self, capsys):
        code, _, err = run(
            capsys, "recurrence", "--d", "-1", "--b", "1", "--q", "1", "--omega", "1"
        )
        assert code == EXIT_NEGATIVE
        assert "report" in json.loads(err)


class TestMoments:
    def test_round_trips_through_functional(self, capsys):
        code, out, _ = run(capsys, "moments", "--preset", "charlier", "--n", "8")
        assert code == EXIT_OK
        payload = json.loads(out)
        u = MomentFunctional.from_json_dict(payload)
        assert u.moments == tuple(F(1, 2) ** n for n in range(9))

    def test_y0_scaling(self, capsys):
        code, out, _ = run(capsys, "moments", "--preset", "charlier", "--n", "2", "--y0", "3")
        assert json.loads(out)["moments"][0] == "3"

    def test_rationals_never_floats(self, capsys):
        _, out, _ = run(capsys, "moments", "--preset", "little-q-laguerre", "--n", "6")
        payload = json.loads(out)
        for entry in payload["moments"] + payload["powerMoments"]:
            assert isinstance(entry, str) and "." not in entry

    @pytest.mark.parametrize("fmt", ["json", "csv", "human"])
    def test_digit_limit_exits_internal_and_prints_nothing(self, capsys, fmt):
        # under a 640-digit str limit the later rows fail to render, so no format may write the earlier ones
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(capsys, "moments", *TALL_FLAGS, "--n", "24", "--format", fmt)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (EXIT_INTERNAL, "")
        assert re.match(r"ValueError: Exceeds the limit \(640 digits\) for integer string conversion",
                        json.loads(err)["error"])

    def test_inadmissible_pair(self, capsys):
        code, _, err = run(
            capsys, "moments", "--a", "1", "--c", "1", "--d=-3/4", "--e", "1",
            "--q", "2", "--omega", "0",
        )
        assert code == EXIT_NEGATIVE
        assert json.loads(err)["index"] == 2


class TestCheckRecord:
    def test_passed_reads_the_detail(self):
        assert verify.Check("x", "broke at n=1").passed is False
        assert verify.Check("x").passed is True

    def test_passed_is_read_only(self):
        with pytest.raises(AttributeError):
            verify.Check("x").passed = False

    def test_json_keeps_passed(self):
        assert verify.Check("x", "broke at n=1").to_json_dict() == {
            "name": "x", "passed": False, "detail": "broke at n=1"
        }


def _readers(flag: str) -> list[str]:
    """The pair suites whose entry in cli.PAIR_SUITES lists flag."""
    return [suite for suite, (_, flags) in PAIR_SUITES.items() if flag in flags]


class TestSuiteList:
    def test_suite_choices(self):
        for suite in [*cli.SUITES, "all"]:
            assert _parse(["verify", "--suite", suite])[1].suite == suite
        with pytest.raises(cli.InputError) as exc:
            _parse(["verify", "--suite", "gramm"])
        assert str(exc.value).endswith(f"(choose from {', '.join(map(repr, [*cli.SUITES, 'all']))})")

    def test_suite_all_lists_every_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--preset", "charlier", "--suite", "all", "--n", "2")
        assert code == EXIT_OK
        assert json.loads(out)["suites"] == list(cli.SUITES)

    def test_every_listed_suite_runs(self, capsys):
        for suite in cli.SUITES:
            depth = ["--n", "4"] if suite in _readers("--n") else []
            code, out, _ = run(capsys, "verify", "--suite", suite, "--preset", "charlier", *depth)
            checks = json.loads(out)["checks"]
            assert code == EXIT_OK and checks and all(c["passed"] for c in checks), suite


# a value for each flag of cli.PAIR_SUITES; a suite that reads a new flag adds its value here
SUITE_FLAG_VALUES = {"--fuzz-moment": "3", "--y0": "5", "--test-degree": "3", "--n": "3"}


class TestVerify:
    def test_gram_suite_preset(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--preset", "charlier", "--suite", "gram", "--n", "6"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(c["passed"] for c in payload["checks"])
        assert all(c["name"].startswith("charlier:") for c in payload["checks"])

    def test_fuzzed_moment_detected(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--preset", "charlier", "--suite", "gram",
            "--n", "6", "--fuzz-moment", "3",
        )
        assert code == EXIT_MISMATCH
        payload = json.loads(out)
        assert not payload["passed"]

    def test_zero_functional_fails_gram_diagonal(self, capsys):
        # with y0 = 0 every moment vanishes, so G[0][0] = <u, 1> = 0 and u is no regular functional
        code, out, err = run(capsys, "verify", "--preset", "charlier", "--suite", "gram", "--y0", "0")
        assert (code, err) == (EXIT_MISMATCH, "")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["charlier:gram_off_diagonal_zero"]["passed"]
        assert checks["charlier:gram_diagonal_product_of_gammas"]["detail"] == "diagonal mismatch at n=0"

    @pytest.mark.parametrize("argv, flags", [
        (["--suite", "rodrigues", "--preset", "charlier", "--fuzz-moment", "3"], "--fuzz-moment"),
        (["--suite", "norms", "--preset", "charlier", "--y0", "5"], "--y0"),
        (["--suite", "identities", "--y0=-1/3", "--fuzz-moment=1"], "--fuzz-moment and --y0"),
    ], ids=["rodrigues", "norms", "identities"])
    def test_gram_flags_without_gram_suite(self, capsys, argv, flags):
        # a corruption that no suite reads would pass silently
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (EXIT_INPUT, "")
        suite = argv[1]
        assert json.loads(err) == {
            "error": f"{flags}: read only by the gram suite, which --suite {suite} does not run"
        }

    @pytest.mark.parametrize("argv, suite", [
        (["--suite", "gram", "--preset", "charlier", "--test-degree", "3"], "gram"),
        (["--suite", "identities", "--q", "2", "--omega", "1", "--test-degree", "5"], "identities"),
        (["--suite", "norms", "--preset", "charlier", "--test-degree=8"], "norms"),
    ], ids=["gram", "identities", "norms"])
    def test_test_degree_without_rodrigues_suite(self, capsys, argv, suite):
        # only the rodrigues suite reads --test-degree; elsewhere it would be ignored silently
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert json.loads(err) == {
            "error": f"--test-degree: read only by the rodrigues suite, which --suite {suite} does not run"
        }

    @pytest.mark.parametrize("suite, flag, chosen", [
        (suite, flag, chosen) for suite, (_, flags) in cli.PAIR_SUITES.items() for flag in flags
        for chosen in cli.SUITES if chosen not in _readers(flag) and suite == _readers(flag)[0]
    ])
    def test_each_suite_flag_without_its_suite(self, capsys, suite, flag, chosen):
        # the message names every suite that reads the flag; a flag that two suites read runs under the first
        code, out, err = run(capsys, "verify", "--suite", chosen, "--preset", "charlier", flag, SUITE_FLAG_VALUES[flag])
        assert (code, out) == (EXIT_INPUT, "")
        readers = _readers(flag)
        assert json.loads(err) == {
            "error": f"{flag}: read only by the {' and '.join(readers)} suite{'s' if len(readers) > 1 else ''}, "
                     f"which --suite {chosen} does not run"
        }

    @pytest.mark.parametrize("suite", ["norms", "identities"])
    def test_depth_env_is_a_default_for_every_suite(self, capsys, monkeypatch, suite):
        # a suite that refuses --n still runs under $HAHNPOLY_DEPTH, a default that any command may ignore
        monkeypatch.setenv(cli.DEPTH_ENV, "3")
        code, out, err = run(capsys, "verify", "--suite", suite, "--preset", "charlier")
        assert (code, err) == (EXIT_OK, "") and json.loads(out)["passed"]

    def test_gram_flags_with_suite_all(self, capsys):
        code, out, _ = run(capsys, "verify", "--preset", "charlier", "--suite", "all", "--n", "4",
                           "--fuzz-moment", "3", "--y0", "2")
        assert code == EXIT_MISMATCH
        assert not json.loads(out)["passed"]

    def test_identities_without_pair(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "identities")
        assert code == EXIT_OK
        assert json.loads(out)["passed"] is True

    def test_identities_frame_only(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "identities", "--q", "2", "--omega", "1")
        assert code == EXIT_OK
        assert json.loads(out)["passed"] is True

    def test_gram_horizon_matches_classify(self, capsys):
        # d_21 = 0, and no check at --n 6 reads past y_21
        flags = ["--a=1", "--c=1", "--d=-21", "--e=1", "--q=1", "--omega=1", "--n", "6"]
        assert run(capsys, "classify", *flags)[0] == EXIT_OK
        code, out, _ = run(capsys, "verify", "--suite", "gram", *flags)
        assert code == EXIT_OK
        assert json.loads(out)["passed"] is True

    def test_gram_moment_degree_past_classify(self, capsys):
        # classify at --n 6 scans d_0..d_13; the gram suite solves moments to y_21, so it reads d_15
        flags = ["--a=1", "--c=1", "--d=-15", "--e=1", "--q=1", "--omega=1", "--n", "6"]
        assert run(capsys, "classify", *flags)[0] == EXIT_OK
        code, out, err = run(capsys, "verify", "--suite", "gram", *flags)
        assert (code, out) == (EXIT_NEGATIVE, "")
        assert json.loads(err) == {"error": "admissibility failure: d_15 = 0", "index": 15, "momentDegree": 21}

    def test_gram_irregular_pair_carries_the_report(self, capsys):
        # phi's root condition fails at n=0; the gram suite's recurrence to --n 8 raises with classify's report
        flags = ["--b", "1", "--d=-1", "--q", "1", "--omega", "1", "--n", "8"]
        code, out, _ = run(capsys, "classify", *flags)
        assert code == EXIT_NEGATIVE
        code, out_verify, err = run(capsys, "verify", "--suite", "gram", *flags)
        assert (code, out_verify) == (EXIT_NEGATIVE, "")
        assert json.loads(err) == {"error": "regularity failure: phi_root_condition at n=0", "report": json.loads(out)}

    def test_rodrigues_route_disagreement_exits_mismatch(self, capsys, monkeypatch):
        derived_functional = verify.derived_functional
        monkeypatch.setattr(verify, "derived_functional",
                            lambda *args: derived_functional(*args).scale(2))
        code, out, err = run(capsys, "verify", "--suite", "rodrigues", "--preset", "charlier")
        assert code == EXIT_MISMATCH and err == ""
        checks = json.loads(out)["checks"]
        assert checks[0]["passed"] and not checks[1]["passed"]
        assert "routes disagree" in checks[1]["detail"]

    def test_rodrigues_irregular_pair_runs(self, capsys):
        # admissible, but phi_root_condition fails at n=1: the Rodrigues formula needs no regularity
        code, out, err = run(capsys, "verify", "--suite", "rodrigues", "--a=0", "--b=1", "--c=0",
                             "--d=-2", "--e=1", "--q=1", "--omega=1")
        assert code == EXIT_OK and err == ""
        checks = json.loads(out)["checks"]
        assert [c["name"] for c in checks] == [f"pair:rodrigues_n{n}" for n in range(6)]
        assert all(c["passed"] for c in checks)

    def test_rodrigues_inadmissible_pair_exits_negative(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "rodrigues", "--a=1", "--b=0", "--c=1",
                             "--d=-1", "--e=1", "--q=1", "--omega=1")
        assert code == EXIT_NEGATIVE and out == ""
        # at n_max 5 and test degree 8 the Rodrigues suite solves its moment table to y_13
        assert json.loads(err) == {"error": "admissibility failure: d_1 = 0", "index": 1, "momentDegree": 13}

    def test_rodrigues_reads_no_moment_past_its_window(self, capsys):
        # d_20 = 0: classify at --n 8 scans d_0..d_17 and the Rodrigues suite solves to y_13, reading
        # d_0..d_12, so both accept the pair; the gram suite solves to y_21 and so reads d_20
        flags = ["--a=1", "--c=1", "--d=-20", "--e=1", "--q=1", "--omega=1"]
        assert run(capsys, "classify", *flags, "--n", "8")[0] == EXIT_OK
        code, out, err = run(capsys, "verify", "--suite", "rodrigues", *flags)
        assert (code, err) == (EXIT_OK, "")
        checks = json.loads(out)["checks"]
        assert [c["name"] for c in checks] == [f"pair:rodrigues_n{n}" for n in range(6)]
        assert all(c["passed"] for c in checks)
        code, out, err = run(capsys, "verify", "--suite", "all", *flags)
        assert (code, out) == (EXIT_NEGATIVE, "")
        assert json.loads(err) == {"error": "admissibility failure: d_20 = 0", "index": 20, "momentDegree": 21}

    @pytest.mark.parametrize("d", ["-11", "-10"])
    def test_rodrigues_reads_no_recurrence_past_its_rows(self, capsys, d):
        # d_n = d + n, so d_11 = 0 (d_10 = 0 at --d=-10): rows 0..5 read beta and gamma below n_max = 5,
        # so the recurrence runs to depth 4 and scans d_0..d_9; to depth 5 it scanned d_0..d_11 and exited 2
        code, out, err = run(capsys, "verify", "--suite", "rodrigues", "--a=1", "--c=1", f"--d={d}", "--e=1",
                             "--q=1", "--omega=1", "--test-degree", "0", "--format", "human")
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[-1] == "6/6 checks passed"

    def test_norms_reads_no_regularity_past_its_window(self, capsys):
        # phi_root_condition fails at n = 10, past the recurrence to depth 7 that the norms suite reads
        code, out, err = run(capsys, "verify", "--suite", "norms", "--b=1", "--d=-2", "--e=10", "--q=1", "--omega=1")
        assert (code, err) == (EXIT_OK, "")
        checks = json.loads(out)["checks"]
        assert len(checks) == 6 and all(c["passed"] for c in checks)

    def test_rodrigues_explicit_pair(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "rodrigues", *CHARLIER_FLAGS,
            "--n", "4", "--test-degree", "6",
        )
        assert code == EXIT_OK
        assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("extra, expected", [([], EXIT_OK), (["--fuzz-moment", "3"], EXIT_MISMATCH)])
def test_gram_verdict_survives_optimize_flag(extra, expected):
    # python -O strips assert statements; the verdict must not rest on one
    env = dict(os.environ, PYTHONPATH=str(Path(hahnpoly.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "hahnpoly.cli", "verify", "--suite", "gram",
         "--preset", "charlier", *extra],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == expected, proc.stderr
    assert json.loads(proc.stdout)["passed"] is (expected == EXIT_OK)


def test_closed_stdout_exits_141():
    # the reader takes 100 bytes of about 1.6 MB and closes the pipe
    env = dict(os.environ, PYTHONPATH=str(Path(hahnpoly.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hahnpoly.cli", "recurrence", "--preset", "charlier", "--n", "150"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_PIPE == 141
    assert head.startswith(b"{") and err == b""


@pytest.mark.parametrize("command", ["classify", "recurrence", "moments", "verify"])
def test_pair_flags_shared(command):
    flags = ["--a=1", "--b=2", "--c=3", "--d=4", "--e=5", "--q=6", "--omega=7",
             "--preset=charlier", "--n=8", "--y0=9", "--format=csv"]
    handler, args = _parse([command, *flags])
    assert handler is COMMANDS[command][0]
    # each value is parsed by its flag's value parser
    assert (args.a, args.b, args.c, args.d, args.e, args.q, args.omega) == tuple(range(1, 8))
    assert all(type(v) is F for v in (args.a, args.b, args.c, args.d, args.e, args.q, args.omega, args.y0))
    assert (args.preset, args.n, args.y0, args.format) == (PRESETS["charlier"], 8, 9, "csv")


# for each flag in COMMANDS: a value, and another value to be overridden by it
FLAG_SAMPLES = {
    **{f"--{f}": ("-1/3", "7") for f in ("a", "b", "c", "d", "e", "q", "omega", "y0")},
    "--preset": ("charlier", "meixner"),
    "--n": ("3", "5"),
    "--format": ("csv", "human"),
    "--suite": ("gram", "norms"),
    "--test-degree": ("2", "4"),
    "--fuzz-moment": ("1", "2"),
}
GRAMMAR_CASES = [(command, flag) for command, (_, flags) in COMMANDS.items() for flag in flags]


class TestGrammar:
    @pytest.mark.parametrize("command, flag", GRAMMAR_CASES, ids=[" ".join(case) for case in GRAMMAR_CASES])
    def test_flag_forms(self, capsys, command, flag):
        value, other = FLAG_SAMPLES[flag]
        parsed = vars(_parse([command, flag, value])[1])
        assert parsed[flag[2:].replace("-", "_")] is not None
        assert vars(_parse([command, f"{flag}={value}"])[1]) == parsed
        # the last occurrence wins
        assert vars(_parse([command, f"{flag}={other}", flag, value])[1]) == parsed
        bad = {(command, flag): f"argument {flag}: expected one argument"}
        if len(flag) > 3:  # a prefix names no flag
            bad[(command, flag[:-1], value)] = f"unrecognized arguments: {flag[:-1]}"
        for argv, error in bad.items():
            code, out, err = run(capsys, *argv)
            assert (code, out) == (EXIT_INPUT, ""), argv
            assert json.loads(err) == {"error": f"hahnpoly {command}: {error}"}, argv

    @pytest.mark.parametrize("argv, error", [
        (["classify", "--om", "1", "--q", "2", "--d", "1"], "hahnpoly classify: unrecognized arguments: --om"),
        (["verify", "--fuzz", "3"], "hahnpoly verify: unrecognized arguments: --fuzz"),
        (["verify", "--suite", "rodrigues", "--test", "3"], "hahnpoly verify: unrecognized arguments: --test"),
        (["classify", "--bogus", "1"], "hahnpoly classify: unrecognized arguments: --bogus"),
        (["classify", "charlier"], "hahnpoly classify: unrecognized arguments: charlier"),
        (["presets", "--n", "3"], "hahnpoly presets: unrecognized arguments: --n"),
        (["moments", "--preset", "charlier", "--n"], "hahnpoly moments: argument --n: expected one argument"),
        ([], "hahnpoly: the following arguments are required: command"),
        (["nope"], "hahnpoly: argument command: invalid choice: 'nope' "
                   "(choose from 'classify', 'recurrence', 'moments', 'verify', 'presets')"),
    ], ids=lambda case: " ".join(case) if isinstance(case, list) else None)
    def test_malformed_argv_exits_with_json(self, capsys, argv, error):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert json.loads(err) == {"error": error}

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_names_every_flag(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--format", "csv", flag])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        assert out.startswith(f"usage: hahnpoly {command} [-h] ")
        assert all(f"[{f} " in out for f in COMMANDS[command][1])

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_names_every_command(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        assert all(f"  {command} " in out for command in COMMANDS)

    def test_no_argparse_in_a_fresh_process(self):
        # argparse built its tree of parsers on the first main call of every process; COMMANDS is read instead
        env = dict(os.environ, PYTHONPATH=str(Path(hahnpoly.__file__).parents[1]))
        child = "import sys; from hahnpoly import cli; cli.main(['presets']); print('argparse' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-1] == "False"


class TestOutOfRangeInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--preset", "charlier", "--n", "-1"],
            ["recurrence", "--preset", "charlier", "--n", "-2"],
            ["moments", "--preset", "charlier", "--n", "-1"],
            ["verify", "--preset", "charlier", "--suite", "gram", "--n", "-1"],
            ["verify", "--preset", "charlier", "--suite", "gram", "--fuzz-moment", "999"],
            ["verify", "--preset", "charlier", "--suite", "gram", "--fuzz-moment", "-1"],
            # y_22 lies in the moment table, but no check at --n 6 reads it
            ["verify", "--suite", "gram", "--a=-2/3", "--c=-3/2", "--d=-3/2", "--e=1",
             "--q=1", "--omega=1", "--n", "6", "--fuzz-moment", "22"],
            ["verify", "--preset", "charlier", "--suite", "rodrigues", "--test-degree", "-1"],
            ["verify", "--suite", "identities", "--q", "2"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_exits_with_json_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert "error" in json.loads(err)

    def test_negative_depth_from_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HAHNPOLY_DEPTH", "-3")
        code, _, err = run(capsys, "classify", "--preset", "charlier")
        assert code == EXIT_INPUT
        assert "HAHNPOLY_DEPTH" in json.loads(err)["error"]


class TestDepthBound:
    @staticmethod
    def run_measured(capsys, *argv):
        """run(capsys, *argv), with its wall time and its tracemalloc peak."""
        main(["presets"])  # import and warm the CLI outside the measurement
        capsys.readouterr()
        tracemalloc.start()
        start = time.perf_counter()
        try:
            result = run(capsys, *argv)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (*result, elapsed, peak)

    @pytest.mark.parametrize("command", ["classify", "recurrence", "moments", "verify"])
    def test_huge_depth_rejected_at_once(self, capsys, command):
        # the bound is checked before any table is built: no wait and no allocation
        code, out, err, elapsed, peak = self.run_measured(
            capsys, command, "--preset", "charlier", "--n", "100000000000")
        assert code == EXIT_INPUT and out == ""
        assert "must be in 0..10000" in json.loads(err)["error"]
        assert elapsed < 1 and peak < 1 << 20

    @pytest.mark.parametrize("degree", [cli.MAX_DEPTH + 1, 10**12])
    def test_huge_test_degree_rejected_at_once(self, capsys, degree):
        # the bound on --test-degree is checked before the rodrigues suite builds its table
        code, out, err, elapsed, peak = self.run_measured(
            capsys, "verify", "--preset", "al-salam-carlitz", "--suite", "rodrigues", "--test-degree", str(degree))
        assert (code, out) == (EXIT_INPUT, "")
        assert json.loads(err) == {"error": f"--test-degree must be in 0..10000, got {degree}"}
        assert elapsed < 1 and peak < 1 << 20

    def test_bound_from_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HAHNPOLY_DEPTH", str(cli.MAX_DEPTH + 1))
        code, _, err = run(capsys, "moments", "--preset", "charlier")
        assert code == EXIT_INPUT
        assert "HAHNPOLY_DEPTH" in json.loads(err)["error"]

    def test_bound_is_inclusive(self):
        _, args = _parse(["classify", "--n", str(cli.MAX_DEPTH)])
        assert cli._depth(args, 12) == cli.MAX_DEPTH == 10_000


class TestPresets:
    def test_catalog_json(self, capsys):
        code, out, _ = run(capsys, "presets")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2) + "\n"
        assert set(payload) == {"charlier", "meixner", "al-salam-carlitz", "little-q-laguerre"}
        assert payload["charlier"]["e"] == "1/2"

    def test_catalog_csv(self, capsys):
        code, out, _ = run(capsys, "presets", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "name,a,b,c,d,e,q,omega"
        assert len(lines) == 5


class TestPinnedText:
    """Exact csv and human text of paths the JSON cases above do not reach."""

    def test_verify_csv(self, capsys):
        code, out, err = run(capsys, "verify", "--preset", "charlier", "--suite", "gram", "--n", "3", "--format", "csv")
        assert (code, err) == (EXIT_OK, "")
        assert out == (
            "name,passed,detail\n"
            "charlier:pearson_residual_zero,True,\n"
            "charlier:gram_off_diagonal_zero,True,\n"
            "charlier:gram_diagonal_product_of_gammas,True,\n"
        )

    def test_presets_human(self, capsys):
        code, out, err = run(capsys, "presets", "--format", "human")
        assert (code, err) == (EXIT_OK, "")
        assert out == "".join(f"{name}: {p.description}\n" for name, p in PRESETS.items())
        assert out.splitlines()[0] == (
            "charlier: q=1, omega=1, phi=x, psi=1/2-x; forward-difference lattice, beta_n=n+1/2, gamma_{n+1}=(n+1)/2")

    def test_classify_human_not_regular(self, capsys):
        code, out, err = run(capsys, "classify", "--b=1", "--d=-2", "--e=1", "--q=1", "--omega=1", "--n", "4",
                             "--format", "human")
        assert (code, err) == (EXIT_NEGATIVE, "")
        assert out == "not regular: phi_root_condition at n=1\npsi has degree one: True\n"

    def test_recurrence_human_with_zero_coefficients(self, capsys):
        # an odd P_n has no constant term, and Poly's repr skips each zero coefficient
        code, out, err = run(capsys, "recurrence", "--a=0", "--b=0", "--c=1", "--d=-1", "--e=0", "--q=1/2",
                             "--omega=0", "--n", "3", "--format", "human")
        assert (code, err) == (EXIT_OK, "")
        assert out == (
            "n=0: beta=0 gamma=-\n"
            "n=1: beta=0 gamma=2\n"
            "n=2: beta=0 gamma=12\n"
            "n=3: beta=0 gamma=56\n"
            "P_0 = Poly(1)\n"
            "P_1 = Poly(1*x)\n"
            "P_2 = Poly(-2 + 1*x^2)\n"
            "P_3 = Poly(-14*x + 1*x^3)\n"
            "P_4 = Poly(112 + -70*x^2 + 1*x^4)\n"
        )


def _random_regular_pairs(count):
    """count pairs, regular to depth 12, over q in {1, 1/2, 2, 5/2} in turn, with flags and their small depth."""
    rng = random.Random(28)
    values = [F(p, r) for p in range(-3, 4) for r in (1, 2, 3)]
    pairs = []
    while len(pairs) < count:
        q = (F(1), F(1, 2), F(2), F(5, 2))[len(pairs) % 4]
        frame = HahnFrame(q, rng.choice([F(1), F(-1, 2)] if q == 1 else [F(0), F(1), F(-1, 2)]))
        coeffs = dict(zip("abcde", (rng.choice(values) for _ in range(5))))
        if coeffs["d"] == 0 or not check_regular(PearsonPair(**coeffs), frame, 12).regular:
            continue
        flags = [f"--{k}={v}" for k, v in coeffs.items()] + [f"--q={frame.q}", f"--omega={frame.omega}"]
        pairs.append((flags, PearsonPair(**coeffs), frame, rng.choice([0, 1, 6, 12])))
    return pairs


JSON_CASES = (
    [(["--preset", name], preset.pear, preset.frame, n) for name, preset in PRESETS.items() for n in (0, 1, 6, 40)]
    + _random_regular_pairs(24)
)


@pytest.mark.parametrize("flags, pear, frame, depth", JSON_CASES,
                         ids=[f"{' '.join(c[0])} --n {c[3]}" for c in JSON_CASES])
def test_json_output_is_canonical(capsys, flags, pear, frame, depth):
    # every JSON stdout is json.dumps(indent=2) text (presets' in TestPresets); recurrence's, written from
    # the integer rows, also equals the Fraction-and-str payload of the oracle
    outputs = {}
    for command in (["classify"], ["recurrence"], ["moments"], ["verify", "--suite", "gram"]):
        code, out, err = run(capsys, *command, *flags, "--n", str(depth))
        assert (code, err) == (EXIT_OK, ""), command
        assert out == json.dumps(json.loads(out), indent=2) + "\n", command
        outputs[command[0]] = out
    table = recurrence(pear, frame, depth)
    assert json.loads(outputs["recurrence"]) == ref.recurrence_payload(table.beta, table.gamma)


# a csv call of each command; the last four print a cell that holds a comma or a double quote
CSV_CALLS = [
    ["classify", "--preset", "charlier"],
    ["recurrence", "--preset", "meixner", "--n", "3"],
    ["moments", "--preset", "al-salam-carlitz", "--n", "3"],
    ["presets"],
    ["classify", "--b=1", "--d=-1", "--q=1", "--omega=1"],
    ["verify", "--suite", "gram", "--preset", "charlier", "--fuzz-moment", "3"],
    ["verify", "--suite", "all", "--preset", "charlier", "--n", "3", "--fuzz-moment", "3"],
    ["verify", "--suite", "identities"],
]


@pytest.mark.parametrize("argv", CSV_CALLS, ids=" ".join)
def test_csv_rows_as_wide_as_the_header(capsys, monkeypatch, argv):
    if argv[-1] == "identities":  # a faulty D makes the details name their case's frame, as `frame q=2, omega=1`
        monkeypatch.setattr(verify, "op_D", _poly_fault(verify.op_D))
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_MISMATCH) and err == ""
    header, *rows = csv.reader(io.StringIO(out))
    assert rows and all(len(row) == len(header) for row in rows)
    assert any(re.search('[,"]', cell) for row in rows for cell in row) == (argv in CSV_CALLS[4:])
    if argv[0] == "verify":  # each row reads back as the check it came from
        checks = json.loads(run(capsys, *argv)[1])["checks"]
        assert rows == [[c["name"], str(c["passed"]), c["detail"]] for c in checks]


# the stderr keys of an exit 2 from a command that raised: an admissibility failure names its index, and a moment
# table's also the degree it was solving for; a regularity failure carries classify's report
NEGATIVE_KEYS = tuple(map(frozenset, ({"error", "index"}, {"error", "index", "momentDegree"}, {"error", "report"})))


def test_error_contract_census(capsys):
    # small seeded pairs, free or with some d_m = 0, over the default frames, through every pair suite and
    # every format: no command may end in the catch-all exit 4, exit 1 prints {"error"}, and exit 2 prints
    # classify's report on stdout or one of NEGATIVE_KEYS on stderr
    rng = random.Random(37)
    values = [F(p, r) for p in range(-3, 4) for r in (1, 2, 3)]
    formats = itertools.cycle(("json", "csv", "human"))
    codes = set()
    negative_keys = set()
    for frame in verify.default_frames() * 8:
        coeffs = dict(zip("abcde", (rng.choice(values) for _ in range(5))))
        if rng.random() < 0.3:  # d_m = 0 for some m <= 12
            m = rng.randint(0, 12)
            coeffs["a"] = coeffs["a"] or F(1)
            coeffs["d"] = -coeffs["a"] * ref.q_bracket(m, frame.q) / frame.q**m
        flags = [f"--{k}={v}" for k, v in coeffs.items()] + [f"--q={frame.q}", f"--omega={frame.omega}"]
        depth = str(rng.randint(0, 12))
        for command in (["classify"], ["recurrence"], ["moments"],
                        *(["verify", "--suite", suite] for suite in PAIR_SUITES)):
            # verify --suite norms reads no depth, and refuses --n
            given_depth = ["--n", depth] if command[-1] != "norms" else []
            call = (*command, *flags, *given_depth, "--format", next(formats))
            code, out, err = run(capsys, *call)
            assert code in (EXIT_OK, EXIT_INPUT, EXIT_NEGATIVE, EXIT_MISMATCH), (call, err)
            quiet = code in (EXIT_OK, EXIT_MISMATCH) or (code, command) == (EXIT_NEGATIVE, ["classify"])
            assert (err == "") == quiet, (call, err)
            keys = frozenset(json.loads(err)) if err else None
            if code == EXIT_NEGATIVE and keys:
                assert keys in NEGATIVE_KEYS, (call, err)
                negative_keys.add(keys)
            elif keys:
                assert keys == {"error"}, (call, err)
            assert code == EXIT_OK or out or err, call
            codes.add(code)
    assert {EXIT_OK, EXIT_NEGATIVE} <= codes
    # these pairs fail admissibility only inside a moment table, which names its degree
    assert negative_keys == set(NEGATIVE_KEYS[1:])
