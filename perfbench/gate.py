"""Correctness gate: does one command's output match what dyncert must say?

Certify-style commands are checked against ``expected.json``: exit code,
verdict, the PASS/FAIL of every condition, and ``max_abs <= tolerance`` for
every PASS condition.  The orbit commands are checked against known facts
about Arnold's cat map.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

EXPECTED = json.loads(
    (Path(__file__).resolve().parent / "expected.json").read_text())

# Lyapunov exponents of the cat map are +-ln((3 + sqrt 5) / 2)
CAT_EXPONENT = math.log((3.0 + math.sqrt(5.0)) / 2.0)
EXPONENT_TOL = 1e-5


def _check_report(key: str, exit_code: int, data: dict) -> str | None:
    want = EXPECTED[key]
    if exit_code != want["exit"]:
        return f"exit code {exit_code}, expected {want['exit']}"
    if data.get("verdict") != want["verdict"]:
        return f"verdict {data.get('verdict')}, expected {want['verdict']}"
    conditions = data["report"]["conditions"]
    got = {c["name"]: c["pass"] for c in conditions}
    if got != want["conditions"]:
        return f"conditions {got}, expected {want['conditions']}"
    for c in conditions:
        if c["pass"] and not c["max_abs"] <= c["tolerance"]:
            return (f"{c['name']} passes with max_abs {c['max_abs']} above "
                    f"tolerance {c['tolerance']}")
    if want.get("variant_search") and not data.get("variant_search"):
        return "the FAIL report carries no variant search"
    return None


def _check_lyapunov(exit_code: int, data: dict) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}"
    exps = data["exponents"]
    if len(exps) != 2 or abs(exps[0] - CAT_EXPONENT) > EXPONENT_TOL \
            or abs(exps[1] + CAT_EXPONENT) > EXPONENT_TOL:
        return f"exponents {exps}, expected +-{CAT_EXPONENT}"
    return None


def _check_periodic(exit_code: int, data: dict) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}"
    points = data["periodic_points"]
    if not points:
        return "no periodic point found"
    for p in points:
        if p["classification"] != "hyperbolic" or p["period"] not in (1, 2):
            return f"point {p} is not a hyperbolic point of period 1 or 2"
    return None


def check(key: str, exit_code: int, stdout: bytes) -> str | None:
    """None when the output of command ``key`` is correct, else why not."""
    try:
        data = json.loads(stdout)
    except ValueError:
        return f"exit code {exit_code} with no JSON report"
    try:
        if key.startswith("lyapunov"):
            return _check_lyapunov(exit_code, data)
        if key.startswith("periodic"):
            return _check_periodic(exit_code, data)
        return _check_report(key, exit_code, data)
    except (KeyError, TypeError) as err:
        return f"malformed report: {err!r}"
