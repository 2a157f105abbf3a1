"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import expect  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

from galoiskit import Polynomial, QQ  # noqa: E402


# -- Swinnerton-Dyer generator ----------------------------------------------

def test_swinnerton_dyer_two_primes():
    assert workloads.swinnerton_dyer((2, 3)) == [1, 0, -10, 0, 1]  # x^4 - 10x^2 + 1


@pytest.mark.parametrize("n", range(1, 6))
def test_swinnerton_dyer_degree(n):
    coeffs = workloads.swinnerton_dyer(workloads.SD_PRIMES[:n])
    assert len(coeffs) - 1 == 2 ** n and coeffs[-1] == 1


def test_swinnerton_dyer_three_primes():
    # x^8 - 40x^6 + 352x^4 - 960x^2 + 576
    assert workloads.swinnerton_dyer((2, 3, 5)) == [576, 0, -960, 0, 352, 0, -40, 0, 1]


def test_rendered_input_parses_back():
    from galoiskit.parsing import parse_poly

    coeffs = workloads.swinnerton_dyer((2, 3, 5))
    assert parse_poly(workloads.render(coeffs)) == Polynomial(QQ, coeffs)


# -- expectation checker ----------------------------------------------------

def _report(result, passed=True, command="split"):
    return json.dumps({"command": command, "result": result,
                       "assertions": [{"name": "c", "passed": passed, "count": 1}]}).encode()


SPLIT = {"exit": 0, "result": {"degree": 40}}


def test_checker_accepts_the_expected_answer():
    assert expect.judge(SPLIT, 0, _report({"degree": 40}), False)[0] == expect.OK


def test_checker_marks_a_wrong_answer():
    assert expect.judge(SPLIT, 0, _report({"degree": 20}), False)[0] == expect.WRONG


def test_checker_marks_a_failed_assertion():
    outcome = expect.judge(SPLIT, 0, _report({"degree": 40}, passed=False), False)[0]
    assert outcome == expect.FAILED_ASSERTION


def test_checker_marks_an_exit_1_traceback():
    stdout = b"Traceback (most recent call last):\n  ...\nArithmeticError: boom\n"
    assert expect.judge(SPLIT, 1, stdout, False)[0] == expect.BAD_EXIT


def test_checker_marks_a_timeout_and_a_missing_field():
    assert expect.judge(SPLIT, 0, b"", True)[0] == expect.TIMEOUT
    assert expect.judge(SPLIT, 0, _report({"order": 40}), False)[0] == expect.WRONG


def test_checker_alternatives_and_products():
    either = {"any_of": [{"exit": 0, "result": {"verdict": "NOT_SOLVABLE_BY_RADICALS"}},
                         {"exit": 3}]}
    assert expect.judge(either, 3, b"", False)[0] == expect.OK
    assert expect.judge(either, 0, _report({"verdict": "SOLVABLE_GROUP"}), False)[0] == expect.WRONG
    assert expect.judge(either, 2, b"", False)[0] == expect.BAD_EXIT
    product = {"exit": 0, "product": {"of": ["a", "b"], "equals": 24}}
    assert expect.judge(product, 0, _report({"a": 12, "b": 2}), False)[0] == expect.OK
    assert expect.judge(product, 0, _report({"a": 12, "b": 3}), False)[0] == expect.WRONG


def test_checker_applies_the_session_identities():
    result = {"degree": 8, "subgroups": [{"order": 2, "fixed_degree": 4, "roundtrip": True}],
              "draws": [{"element": "r1", "orbit_method": "x^2 - 2",
                         "linear_algebra_method": "x^2 - 2", "irreducible": True}]}
    good = _report(result, command="session")
    assert expect.judge({"exit": 0}, 0, good, False)[0] == expect.OK
    result["draws"][0]["linear_algebra_method"] = "x^2 + 2"
    bad = _report(result, command="session")
    assert expect.judge({"exit": 0}, 0, bad, False)[0] == expect.WRONG


def test_every_job_has_an_expectation_with_a_reason():
    expected = expect.load_expected()
    ids = [job["id"] for name in workloads.WORKLOADS for job in workloads.jobs(name, 1)]
    assert len(ids) == len(set(ids))
    assert sorted(ids) == sorted(expected)
    assert all(e["reason"] for e in expected.values())


def test_only_session_draws_depend_on_the_seed():
    for name in workloads.WORKLOADS:
        a, b = workloads.jobs(name, 1), workloads.jobs(name, 2)
        assert a == workloads.jobs(name, 1)
        for ja, jb in zip(a, b, strict=True):
            if ja["kind"] == "session":
                assert ja["argv"][0] == jb["argv"][0] and ja["argv"] != jb["argv"]
            else:
                assert ja == jb


# -- tracing ------------------------------------------------------------------

def test_wrapper_returns_the_result_and_closes_spans():
    t = tracer.Tracer()
    inner = t.wrap("poly.inner", lambda x: x * 2)
    outer = t.wrap("galois.outer", lambda x: inner(x) + inner(x))

    def fail():
        raise ValueError("boom")

    assert outer(3) == 12
    with pytest.raises(ValueError):
        t.wrap("radical.fail", fail)()
    assert t.open == [] and all(span[2] is not None for span in t.spans)
    summary = t.summary()
    assert summary["functions"]["poly.inner"]["calls"] == 2
    assert summary["self_s"]["galois"] >= 0.0 and summary["spans"] == 4


def test_recursive_calls_count_once_in_total_time():
    t = tracer.Tracer()

    def countdown(n):
        return n if n == 0 else wrapped(n - 1)

    wrapped = t.wrap("qfactor.countdown", countdown)
    wrapped(5)
    outer = t.spans[0]
    summary = t.summary()["functions"]["qfactor.countdown"]
    assert summary["calls"] == 6
    assert summary["total_s"] == pytest.approx(outer[2] - outer[1])


CHAIN = "bench/chains/sqrt2_then_sqrt_1_plus_r1.json"
SMALL_JOBS = [
    ["cli", "factor", "x^4-10*x^2+1"],
    ["cli", "split", "x^3-2"],
    ["cli", "group", "x^3-2"],
    ["cli", "minpoly", "x^3-2", "--element", "r1+2*r2"],
    ["cli", "fixed", "x^3-2", "--subgroup", "1"],
    ["cli", "solvable", "x^5+x^4-4*x^3-3*x^2+3*x+1"],
    ["cli", "chain-groups", "--chain", CHAIN],
    ["cli", "normalize", "--chain", CHAIN],
    ["cli", "verify-tower", "--chain", CHAIN],
    ["session", "x^4-2", "r1+2*r2", "3*r1-r2+r3"],
]


@pytest.mark.parametrize("job", SMALL_JOBS, ids=lambda j: j[1])
def test_wrappers_leave_every_report_byte_identical(job, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    argv = job + (["--json"] if job[0] == "cli" else [])
    record = str(tmp_path / "record.json")

    def child(*trace):
        return subprocess.run([sys.executable, "bench/child.py", record, *trace, *argv],
                              cwd=ROOT, env=env, capture_output=True, timeout=120)

    plain, traced = child(), child("--trace")
    assert plain.returncode == traced.returncode == 0
    assert plain.stdout == traced.stdout
    with open(record, encoding="utf-8") as fh:
        trace = json.load(fh)["trace"]
    assert trace["spans"] > 1


def test_install_rebinds_every_imported_binding():
    script = (
        "import galoiskit.cli, galoiskit.splitting, galoiskit.qfactor, galoiskit.galois\n"
        "import tracer\n"
        "orig = galoiskit.qfactor.factor_over_Q\n"
        "tracer.install(tracer.Tracer())\n"
        "wrapped = galoiskit.splitting.factor_over_Q\n"
        "assert wrapped is not orig and wrapped.__wrapped__ is orig\n"
        "assert galoiskit.galois.factor_over_Q is wrapped is galoiskit.qfactor.factor_over_Q\n"
        "assert galoiskit.numfield.q_coords.__module__ == 'galoiskit.numfield'\n"
        "assert not hasattr(galoiskit.numfield.q_coords, '__wrapped__')\n"
        "assert hasattr(galoiskit.numfield.FieldTower.adjoin, '__wrapped__')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), BENCH]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()


# -- metric declarations -------------------------------------------------------

def test_benchmark_json_declares_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
