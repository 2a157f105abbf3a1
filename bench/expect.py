"""Judge a job's outcome against its hand-written expectation in expected.json.

An expectation gives the exit code and, for exit 0, values that the report's
``result`` must hold: ``result`` (dotted path -> value), ``lengths`` (dotted
path -> list length) and ``product`` (the product of some fields).  ``any_of``
lists alternative expectations.  Every exit-0 report must list only passed
assertions, and a session report must also satisfy the correspondence
identities checked in ``_session_errors``.
"""

import json
import math
import os

OK = "ok"
TIMEOUT = "timeout"
BAD_EXIT = "bad-exit"
FAILED_ASSERTION = "failed-assertion"
WRONG = "wrong"

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def judge(expectation, exit_code, stdout, timed_out):
    """Return (outcome, detail); outcome is one of the module constants."""
    if timed_out:
        return TIMEOUT, "budget expired"
    alternatives = expectation.get("any_of", [expectation])
    matching_exit = [alt for alt in alternatives if alt["exit"] == exit_code]
    if not matching_exit:
        wanted = " or ".join(str(alt["exit"]) for alt in alternatives)
        return BAD_EXIT, f"exit {exit_code}, expected {wanted}"
    if exit_code != 0:
        return OK, ""
    try:
        report = json.loads(stdout)
    except ValueError:
        return WRONG, "report is not JSON"
    failed = [a["name"] for a in report.get("assertions", []) if not a["passed"]]
    if failed:
        return FAILED_ASSERTION, ", ".join(failed)
    errors = []
    for alt in matching_exit:
        try:
            errors = _result_errors(alt, report["result"])
            if report.get("command") == "session":
                errors += _session_errors(report["result"])
        except (KeyError, TypeError) as e:
            errors = [f"report lacks {e}"]
        if not errors:
            return OK, ""
    return WRONG, "; ".join(errors)


def _get(doc, path):
    for key in path.split("."):
        doc = doc[key]
    return doc


def _result_errors(alt, result):
    errors = []
    for path, want in alt.get("result", {}).items():
        got = _get(result, path)
        if got != want:
            errors.append(f"{path} = {got!r}, expected {want!r}")
    for path, want in alt.get("lengths", {}).items():
        got = len(_get(result, path))
        if got != want:
            errors.append(f"len({path}) = {got}, expected {want}")
    if "product" in alt:
        fields, want = alt["product"]["of"], alt["product"]["equals"]
        got = math.prod(_get(result, f) for f in fields)
        if got != want:
            errors.append(f"{' * '.join(fields)} = {got}, expected {want}")
    return errors


def _session_errors(result):
    """[Fix H : Q]·|H| = [E : Q], the subgroup round trip, and both minimal-polynomial routes."""
    errors = []
    for h in result["subgroups"]:
        if h["fixed_degree"] * h["order"] != result["degree"]:
            errors.append(f"subgroup of order {h['order']}: fixed degree {h['fixed_degree']}")
        if not h["roundtrip"]:
            errors.append(f"subgroup of order {h['order']}: round trip failed")
    for d in result["draws"]:
        if d["orbit_method"] != d["linear_algebra_method"]:
            errors.append(f"{d['element']}: orbit and linear-algebra routes differ")
        if not d["irreducible"]:
            errors.append(f"{d['element']}: minimal polynomial reducible")
    return errors
