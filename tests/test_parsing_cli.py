import json
import subprocess
import sys
import time
from fractions import Fraction

import jsonschema
import pytest

from galoiskit import ParseError, numfield, permgroup, qfactor, radical
from galoiskit.cli import (
    EXIT_DEGREE_CAP,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SOUNDNESS,
    REPORT_SCHEMA,
    main,
)
from galoiskit.parsing import MAX_INPUT_BITS, MAX_INPUT_DEGREE, evaluate_in_field, parse_poly
from galoiskit.poly import render_poly
from galoiskit.splitting import splitting_field

from helpers import P, swinnerton_dyer


class TestParsePoly:
    def test_plain_quintic(self):
        assert parse_poly("x^5 - x - 1") == P(-1, -1, 0, 0, 0, 1)

    def test_product_expands(self):
        assert parse_poly("(x^2-2)*(x^2-3)") == P(6, 0, -5, 0, 1)

    def test_unknown_symbol_with_column(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x^2 - y")
        assert err.value.column == 7
        assert "unknown symbol y" in str(err.value)

    def test_rational_coefficients(self):
        assert parse_poly("x/2 + 1/3") == P(0, 1) * Fraction(1, 2) + P(1) * Fraction(1, 3)

    def test_unary_minus_and_parens(self):
        assert parse_poly("-(x - 1)^2") == -(P(-1, 1) ** 2)

    def test_division_by_polynomial_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("1/x")

    def test_division_by_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x/0")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x^2 2")

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x^2 - $")
        assert err.value.column == 7

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x^(1/2)")

    @pytest.mark.parametrize("text, column", [
        ("x^3000000+1", 3),
        ("(x+1)^1000", 7),
        ("x^2 + (x^2+1)^129", 15),
        ("2^5000", 3),
        ("(1/3)^2600", 7),
        ("(x+1)^200*(x+1)^57", 10),
    ])
    def test_power_beyond_input_limit_rejected(self, text, column):
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert err.value.column == column
        assert "input limit" in err.value.reason

    @pytest.mark.parametrize("text, column", [
        ("1" * 5000 + "*x+1", 1),
        ("x^" + "1" * 5000, 3),
        ("x + " + "7" * 1300, 5),
        (str(2 ** MAX_INPUT_BITS) + "*x", 1),
    ])
    def test_literal_beyond_input_limit_rejected(self, text, column):
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert err.value.column == column
        assert "input limit" in err.value.reason

    def test_literals_at_the_limit_accepted(self):
        assert parse_poly("9" * 1200 + "*x").coeff(1) == int("9" * 1200)
        assert parse_poly(str(2 ** MAX_INPUT_BITS - 1)).coeff(0) == 2 ** MAX_INPUT_BITS - 1
        assert parse_poly("0" * 5000 + "1*x") == P(0, 1)

    def test_powers_at_the_limit_accepted(self):
        assert parse_poly(f"x^{MAX_INPUT_DEGREE}").degree == MAX_INPUT_DEGREE
        assert parse_poly(f"(x^2+1)^{MAX_INPUT_DEGREE // 2}").degree == MAX_INPUT_DEGREE
        assert parse_poly(f"2^{MAX_INPUT_BITS}").coeff(0) == 2 ** MAX_INPUT_BITS
        assert parse_poly("(x^128)*(x^128)").degree == MAX_INPUT_DEGREE
        assert parse_poly("1^99999999 + 0^99999999 + (-1)^99999999").coeff(0) == 0

    def test_roundtrip_render(self):
        for text in ("x^5 - x - 1", "2*x^3 + 1/2*x - 7", "x", "-3"):
            p = parse_poly(text)
            assert parse_poly(render_poly(p)) == p


class TestRadicandEvaluation:
    def test_power_beyond_input_limit_rejected(self):
        e = splitting_field(P(-2, 0, 1))
        env = {"r1": e.roots[1]}
        with pytest.raises(ParseError) as err:
            evaluate_in_field("1 + r1^300", e.field.ext, env)
        assert err.value.column == 8
        with pytest.raises(ParseError) as err:
            evaluate_in_field("(r1^2)^5000", e.field.ext, env)
        assert err.value.column == 8
        assert evaluate_in_field("(r1^2)^10", e.field.ext, env) == 1024

    def test_environment_names(self):
        e = splitting_field(P(-2, 0, 1))
        s2 = e.roots[1]
        val = evaluate_in_field("1 + r1^2 - r1", e.field.ext, {"r1": s2})
        assert val == 3 - s2

    def test_unknown_name_lists_known(self):
        e = splitting_field(P(-2, 0, 1))
        with pytest.raises(ParseError) as err:
            evaluate_in_field("r2", e.field.ext, {"r1": e.roots[0]})
        assert "known names" in str(err.value)

    def test_division_in_field(self):
        e = splitting_field(P(-2, 0, 1))
        s2 = e.roots[1]
        assert evaluate_in_field("1/r1", e.field.ext, {"r1": s2}) == s2 / 2


def run_cli(*argv):
    return main(list(argv))


class TestCliExitCodes:
    def test_group_ok(self, capsys):
        assert run_cli("group", "x^3-2") == EXIT_OK
        out = capsys.readouterr().out
        assert "order" in out

    def test_parse_error_exit_2(self, capsys):
        assert run_cli("split", "x^2 - y") == EXIT_INPUT
        err = capsys.readouterr().err
        assert "column 7" in err

    def test_long_literal_exit_2(self, capsys):
        assert run_cli("factor", "1" * 5000 + "*x+1") == EXIT_INPUT
        err = capsys.readouterr().err
        assert "column 1" in err and "input limit" in err

    def test_long_product_exit_2(self, capsys):
        # degree 4096 in 159 characters, refused at the first '*' before
        # any product is computed
        assert run_cli("factor", "*".join(["(x+1)^256"] * 16)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "column 10" in err and "input limit" in err

    def test_degree_cap_exit_3(self, capsys):
        assert run_cli("split", "x^5-x-1") == EXIT_DEGREE_CAP
        err = capsys.readouterr().err
        assert "cap" in err

    def test_degree_cap_flag(self, capsys):
        assert run_cli("split", "x^3-2", "--degree-cap", "3") == EXIT_DEGREE_CAP

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_degree_cap_below_one_is_an_input_error(self, capsys, cap):
        # no field has degree below 1, so such a cap is refused before any work
        assert run_cli("split", "x^2-1", "--degree-cap", cap, "--json") == EXIT_INPUT
        captured = capsys.readouterr()
        assert f"--degree-cap {cap} is below 1" in captured.err and captured.out == ""
        assert run_cli("split", "x^2-1", "--degree-cap", "1") == EXIT_OK

    def test_bad_chain_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("normalize", "--chain", str(bad)) == EXIT_INPUT

    def test_zero_radicand_exit_2(self, tmp_path, capsys):
        f = tmp_path / "chain.json"
        f.write_text(json.dumps({"stages": [{"k": 2, "radicand": 0}]}))
        assert run_cli("normalize", "--chain", str(f)) == EXIT_INPUT

    @pytest.mark.parametrize("error, code", [
        (ArithmeticError("no usable prime found for factorization"), EXIT_SOUNDNESS),
        (ZeroDivisionError("division by zero polynomial"), EXIT_INPUT),
    ])
    def test_engine_arithmetic_error_exit_code(self, monkeypatch, capsys, error, code):
        def failing(f_int):
            raise error

        monkeypatch.setattr(qfactor, "_choose_prime", failing)
        assert run_cli("factor", "x^4+1") == code
        err = capsys.readouterr().err
        assert str(error) in err
        assert "Traceback" not in err

    def test_closure_limit_exit_4(self, monkeypatch, capsys):
        # the closure bound is an engine limit, not bad input.  No command
        # reaches it today (subgroups of an enumerated group stay within its
        # order), so the verdict rebuilds its group from generators here
        monkeypatch.setattr(permgroup, "MAX_CLOSURE_ORDER", 10)
        monkeypatch.setattr(radical, "is_solvable", lambda g: permgroup.is_solvable(
            permgroup.closure(g.generators, degree=g.degree)))
        assert run_cli("solvable", "x^4+x+1") == EXIT_SOUNDNESS
        err = capsys.readouterr().err
        assert "engine limit reached: group order exceeds the bound 10" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("poly, group, primes", [
        ("x^6+x+1", "S6", (7, 3)),
        ("x^6-x-1", "S6", (5, 17)),
        ("x^7-x-1", "S7", (3,)),
    ])
    def test_non_solvable_beyond_quintics_answered_at_once(self, capsys, poly, group, primes):
        started = time.perf_counter()
        out, report = cli_json(capsys, "solvable", poly)
        result = report["result"]
        assert result["verdict"] == "NOT_SOLVABLE_BY_RADICALS"
        witness = result["cycle_type_witness"]
        assert witness["certified_group"] == group
        for prime in primes:
            assert f"mod {prime} " in witness["detail"]
            assert prime in [s["prime"] for s in witness["samples"]]
        assert report["assertions"] == [
            {"name": "cycle_type_witness.power_is_single_cycle", "passed": True, "count": 1}]
        assert run_cli("group", poly) == EXIT_DEGREE_CAP
        assert time.perf_counter() - started < 2

    def test_recombination_lift_cap_exit_4(self, monkeypatch, capsys):
        # recombination past its precision cap is an engine limit, never a
        # grind.  x^2 - x needs a second lift: at twice its coefficient bound
        # p**k holds too few bits above the power-sum bounds
        monkeypatch.setattr(qfactor, "MAX_LIFT_BITS", 8)
        assert run_cli("factor", "x^2-x") == EXIT_SOUNDNESS
        err = capsys.readouterr().err
        assert "engine limit reached: factor recombination needs more than 8 bits" in err
        assert "Traceback" not in err

    def test_primitive_search_exhausted_exit_4(self, monkeypatch, capsys):
        # an exhausted primitive-element search is an engine limit, not bad input
        monkeypatch.setattr(numfield, "PRIMITIVE_SEARCH_RANGE", 0)
        assert run_cli("split", "x^3-2") == EXIT_SOUNDNESS
        err = capsys.readouterr().err
        assert "no primitive element" in err
        assert "Traceback" not in err


def cli_json(capsys, *argv):
    code = run_cli(*argv, "--json")
    assert code == EXIT_OK
    out = capsys.readouterr().out
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    return out, report


class TestCliJson:
    def test_factor_schema(self, capsys):
        _, report = cli_json(capsys, "factor", "x^4-1")
        assert report["command"] == "factor"
        assert [f["polynomial"] for f in report["result"]["factors"]] == [
            "x - 1", "x + 1", "x^2 + 1",
        ]

    def test_factor_degree_64_swinnerton_dyer_irreducible(self, capsys):
        # 32 quadratics mod every prime: no subset search finishes this
        started = time.perf_counter()
        _, report = cli_json(capsys, "factor", render_poly(swinnerton_dyer(2, 3, 5, 7, 11, 13)))
        assert report["result"]["irreducible"] is True
        assert [f["degree"] for f in report["result"]["factors"]] == [64]
        assert time.perf_counter() - started < 20

    def test_group_schema_and_assertions(self, capsys):
        _, report = cli_json(capsys, "group", "x^4+1")
        assert report["result"]["order"] == 4
        names = {a["name"] for a in report["assertions"]}
        assert "galois.order_equals_degree" in names
        assert all(a["passed"] for a in report["assertions"])

    def test_minpoly_agreement(self, capsys):
        _, report = cli_json(capsys, "minpoly", "x^3-2", "--element", "r1 + r2")
        assert report["result"]["agree"] is True
        assert report["result"]["orbit_method"] == report["result"]["linear_algebra_method"]

    def test_fixed_field(self, capsys):
        _, report = cli_json(capsys, "fixed", "x^3-2", "--subgroup", "1")
        assert report["result"]["subgroup_order"] * report["result"]["fixed_field_degree"] == 6
        assert report["result"]["duality_roundtrip"] is True

    def test_solvable_both_ways(self, capsys):
        _, rep1 = cli_json(capsys, "solvable", "x^5-2")
        assert rep1["result"]["verdict"] == "SOLVABLE_GROUP"
        assert rep1["result"]["certificate"]["accepted"] is True
        _, rep2 = cli_json(capsys, "solvable", "x^5-x-1")
        assert rep2["result"]["verdict"] == "NOT_SOLVABLE_BY_RADICALS"
        assert rep2["result"]["quintic_witness"]["samples"][0] == {
            "prime": 2, "factor_degrees": [2, 3],
        }

    def test_chain_commands(self, tmp_path, capsys):
        f = tmp_path / "chain.json"
        f.write_text(json.dumps(
            {"stages": [{"k": 2, "radicand": 2}, {"k": 2, "radicand": "1 + r1"}]}
        ))
        _, rep = cli_json(capsys, "normalize", "--chain", str(f))
        assert rep["result"]["level_degrees"] == [1, 2, 8]
        _, rep = cli_json(capsys, "verify-tower", "--chain", str(f))
        assert rep["result"]["verification"]["all_passed"] is True
        _, rep = cli_json(capsys, "chain-groups", "--chain", str(f))
        assert rep["result"]["group_chain_orders"] == [8, 8, 4, 1]
        assert rep["result"]["certificate"]["accepted"] is True
        assert all(layer["embedded"] for layer in rep["result"]["abelian_layers"])

    def test_json_deterministic(self, capsys):
        out1, _ = cli_json(capsys, "group", "x^3-2", "--seed", "5")
        out2, _ = cli_json(capsys, "group", "x^3-2", "--seed", "5")
        assert out1 == out2

    @pytest.mark.parametrize("argv", [("group", "x^3-2"), ("factor", "x^4-1")],
                             ids=["group", "factor"])
    def test_seed_is_only_echoed(self, capsys, argv):
        _, one = cli_json(capsys, *argv, "--seed", "1")
        _, other = cli_json(capsys, *argv, "--seed", "99")
        assert (one["settings"].pop("seed"), other["settings"].pop("seed")) == (1, 99)
        assert one == other


class TestCycleTypeCertificatesCli:
    @pytest.mark.parametrize("poly, factor, key", [
        ("(x^5-x-1)*(x-2)", "x^5 - x - 1", "quintic_witness"),
        ("(x^6+x+1)*(x^2+1)", "x^6 + x + 1", "cycle_type_witness"),
        ("x^8+x+1", "x^6 - x^5 + x^3 - x^2 + 1", "cycle_type_witness"),
    ])
    def test_reducible_input_certified_by_a_factor(self, capsys, poly, factor, key):
        started = time.perf_counter()
        _, report = cli_json(capsys, "solvable", poly)
        assert time.perf_counter() - started < 2
        result = report["result"]
        assert result["verdict"] == "NOT_SOLVABLE_BY_RADICALS"
        assert result["group_order"] is None
        assert result["derived_series_orders"] == []
        assert result[key]["conclusion"] == "NOT_SOLVABLE"
        if key == "cycle_type_witness":
            assert result["quintic_witness"] is None
        else:
            assert "cycle_type_witness" not in result
        assert f"the group of the factor {factor} is a quotient of the whole group" in result["note"]

    @pytest.mark.parametrize("command", ["group", "split"])
    def test_x8_plus_x_plus_1_refused_at_once(self, capsys, command):
        # the sextic factor certifies S6 at p = 37, so [E:Q] is a multiple of 720
        started = time.perf_counter()
        assert run_cli(command, "x^8+x+1") == EXIT_DEGREE_CAP
        assert time.perf_counter() - started < 2
        assert "provably >= 720" in capsys.readouterr().err

    def test_primes_restrict_the_witness(self, capsys):
        _, report = cli_json(capsys, "solvable", "x^6+x+1", "--primes", "3,7")
        assert report["settings"]["primes"] == [3, 7]
        witness = report["result"]["cycle_type_witness"]
        assert witness["samples"] == [{"prime": 3, "factor_degrees": [1, 2, 3]},
                                      {"prime": 7, "factor_degrees": [1, 5]}]
        assert witness["certified_group"] == "S6"

    def test_primes_must_be_integers(self, capsys):
        assert run_cli("solvable", "x^6+x+1", "--primes", "2,x") == EXIT_INPUT
        assert "--primes must be a comma-separated list of integers" in capsys.readouterr().err

    @pytest.mark.parametrize("empty", [",", "", " , "])
    def test_primes_must_list_a_prime(self, capsys, empty):
        # an empty list would otherwise run the witness on the default primes
        assert run_cli("solvable", "x^5-x-1", "--primes", empty, "--json") == EXIT_INPUT
        captured = capsys.readouterr()
        assert "--primes lists no prime" in captured.err and captured.out == ""

    @pytest.mark.parametrize("bad", ["-7", "0", "1", "4"])
    def test_primes_must_be_prime(self, capsys, bad):
        assert run_cli("solvable", "x^5-x-1", "--primes", f"3,{bad},7") == EXIT_INPUT
        assert f"--primes entry {bad} is not a prime" in capsys.readouterr().err

    @pytest.mark.parametrize("primes, repeated", [("3,3", 3), ("3,7,11,7", 7)])
    def test_primes_must_not_repeat(self, capsys, primes, repeated):
        # a repeated prime would be sampled twice
        assert run_cli("solvable", "x^5-5*x+12", "--primes", primes, "--json") == EXIT_INPUT
        captured = capsys.readouterr()
        assert f"--primes entry {repeated} is repeated" in captured.err and captured.out == ""

    def test_primes_only_on_solvable(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("split", "--primes", "2", "x^2-2")
        assert exc.value.code == EXIT_INPUT
        capsys.readouterr()
        _, report = cli_json(capsys, "split", "x^2-2")
        assert report["settings"]["primes"] is None


class TestConsoleScript:
    def test_subprocess_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "galoiskit.cli", "factor", "x^2-1", "--json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["command"] == "factor"
