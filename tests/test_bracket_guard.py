"""Published brackets never widen: each lies inside its recorded counterpart.

``data/published_brackets.json`` holds the machine-output brackets of the
benchmark's density and series requests, one per d_k for a series, and of
the ``examples`` rows.  ``data/series_parent_brackets.json`` holds the
``density_series`` brackets of a sweep of weights, degrees and truncation
primes, recorded while degrees k >= 1 were taken in floating point.
``data/mod_periodic_parent_brackets.json`` holds the published
``mod_periodic`` estimates of ell = 1..160, 1099, 1100, 1101, 2003 and 10^6
at two targets, recorded while the engine took column 0 of that factor from
a hand-written closed form.  ``data/correction_parent_brackets.json`` holds
``density()`` brackets of exceptional-prime corrections, ranges and key sets
over several defaults at two targets, recorded while the correction was the
quotient of two enclosed products; ``correction_record`` writes one entry.
A change that widens one of them has to edit its file.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import mpmath
import pytest
from helpers import oracle_series

from expdens.cli import EXIT_OK, main
from expdens.euler import UnreachableTargetError, closed_form, density
from expdens.patterns import parse_pattern, parse_prime_aware
from expdens.series import ExponentWeight, density_series

ROOT = Path(__file__).resolve().parent.parent
RECORDED = json.loads((ROOT / "tests" / "data" / "published_brackets.json").read_text())["brackets"]


def _records(argv: list[str]) -> list[dict]:
    # spec paths are relative to the repository root
    argv = [str(ROOT / a) if a.endswith(".json") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--output", "machine"]) == EXIT_OK
    return [json.loads(line) for line in out.getvalue().splitlines()]


@pytest.mark.parametrize(
    "argv", sorted({tuple(r["argv"]) for r in RECORDED}), ids=" ".join
)
def test_brackets_nest_in_the_recorded_ones(argv):
    recorded = [r for r in RECORDED if tuple(r["argv"]) == argv]
    got = _records(list(argv))
    assert len(got) == len(recorded)
    for now, before in zip(got, recorded, strict=True):
        assert now.get("id") == before.get("id")
        for k, lo, hi, was_lo, was_hi in zip(
            *_coefficients(now, before), strict=True
        ):
            assert was_lo <= lo <= hi <= was_hi, (k, now, before)


def _coefficients(now: dict, before: dict) -> tuple:
    """Index, lower, upper, recorded lower and upper of each bracket of a record."""
    columns = [now["lower"], now["upper"], before["lower"], before["upper"]]
    if not isinstance(columns[0], list):
        columns = [[c] for c in columns]
    return range(len(columns[0])), *columns


@pytest.mark.parametrize("truncation", ["2", "3", "1000", "100000"])
@pytest.mark.parametrize("pattern", ["1..1", "1..2", "1..1,3..inf"])
def test_series_d0_nests_in_the_density(pattern, truncation):
    # d_0 of a pattern's binary weight is the pattern's density, from the
    # same exact head up to 1000 and the same table; a density splits at
    # 1000 or above
    (series,) = _records(["series", "--pattern", pattern, "--truncation", truncation,
                          "--degree", "4"])
    (product,) = _records(["density", "--pattern", pattern,
                           "--truncation", str(max(int(truncation), 1000))])
    assert product["lower"] <= series["lower"][0] <= series["upper"][0] <= product["upper"]
    # the same head, table and rounding: the same floats
    assert (series["coeffs"][0], series["lower"][0], series["upper"][0]) == (
        product["value"], product["lower"], product["upper"])


# The benchmark's density requests and its bracket probe.
BENCHMARK_DENSITIES = [
    ["--pattern", "1..1", "--error", "1e-9"],
    ["--pattern", "1..1", "--error", "1e-12"],
    ["--pattern", "1..1,3..inf", "--error", "1e-8"],
    ["--pattern", "1..2", "--error", "1e-9"],
    ["--spec", "perfbench/odd_squarefree.json"],
    ["--pattern", "1..1", "--truncation", "100000"],
]


# Every examples row but ex3 is one product's density; ex3 adds the exact
# enclosures of two series coefficients and rounds the sum once.
PRODUCT_ROWS = [r["id"] for r in RECORDED if r["argv"] == ["examples"] and r["id"] != "ex3 k=2"]


@pytest.mark.parametrize("argv, row", [
    *(pytest.param(["density", *flags], None, id=" ".join(flags)) for flags in BENCHMARK_DENSITIES),
    *(pytest.param(["examples"], row, id=f"examples {row}") for row in PRODUCT_ROWS),
])
def test_density_brackets_are_at_most_two_ulp(argv, row):
    (record,) = [r for r in _records(argv) if r.get("id") == row]
    lower, upper = record["lower"], record["upper"]
    assert lower < upper <= math.nextafter(math.nextafter(lower, math.inf), math.inf), record


def test_ex3_is_at_most_two_ulp():
    (record,) = [r for r in _records(["examples"]) if r.get("id") == "ex3 k=2"]
    lower, upper = record["lower"], record["upper"]
    assert lower < upper <= math.nextafter(math.nextafter(lower, math.inf), math.inf), record


PARENT_SERIES = json.loads(
    (ROOT / "tests" / "data" / "series_parent_brackets.json").read_text()
)["brackets"]
SWEEP_WEIGHTS = {
    "excess": ExponentWeight.excess(),
    **{f"threshold{k}": ExponentWeight.threshold(k) for k in range(2, 9)},
    **{p: ExponentWeight.outside_pattern(parse_pattern(p))
       for p in ("1..1", "1..2", "1..1,3..5,9..inf")},
}


@pytest.mark.parametrize(
    "before", PARENT_SERIES, ids=lambda r: f"{r['weight']}-K{r['degree']}-P{r['truncation']}"
)
def test_series_nests_in_the_recorded_sweep(before):
    # every d_k nests, holds the 40-digit value and, above 1e-150, is at
    # most 4 ulp wide
    w = SWEEP_WEIGHTS[before["weight"]]
    ds = density_series(w, before["degree"], before["truncation"])
    # reduction mod z^(K+1) is a ring homomorphism, so one K = 16 oracle serves every K
    truths = oracle_series(w, 16)[: before["degree"] + 1]
    for k, (lo, hi, was_lo, was_hi, truth) in enumerate(
        zip(ds.lower, ds.upper, before["lower"], before["upper"], truths, strict=True)
    ):
        assert was_lo <= lo <= hi <= was_hi, (k, ds)
        assert mpmath.mpf(lo) <= truth <= mpmath.mpf(hi), (k, ds, truth)
        if truth > 1e-150:
            assert hi - lo <= 4 * math.ulp(hi), (k, ds)


@pytest.mark.parametrize("name", ["threshold2", "1..2"])
def test_small_coefficients_are_resolved(name):
    # d_12 .. d_16 of these weights are 1e-23 to 1e-57
    ds = density_series(SWEEP_WEIGHTS[name], 16, 10**6)
    assert all(lo > 0 for lo in ds.lower[12:]), ds



PARENT_PERIODIC = json.loads(
    (ROOT / "tests" / "data" / "mod_periodic_parent_brackets.json").read_text()
)["estimates"]


@pytest.mark.parametrize(
    "before", PARENT_PERIODIC,
    ids=lambda r: f"ell{r['ell']}-t{float.fromhex(r['target_error']):g}",
)
def test_mod_periodic_nests_in_the_recorded_brackets(before):
    # the periodic pattern cut at 1100 reads alike in the engine, so each
    # bracket is the recorded one or inside it, at the same reported prime
    est = closed_form("mod_periodic", ell=before["ell"],
                      target_error=float.fromhex(before["target_error"]))
    was_lo, was_hi = float.fromhex(before["lower"]), float.fromhex(before["upper"])
    assert was_lo <= est.lower <= est.upper <= was_hi, (est, before)
    assert est.truncation_prime == before["truncation_prime"], (est, before)


# Exceptional-prime corrections over defaults that allow exponent 1 and
# forbid something, and over 1..inf, where the density is the correction.
CORRECTION_DEFAULTS = ["1..1", "1..2", "1..1,3..inf", "1..inf"]
CORRECTION_EXCEPTIONS = [
    {"p<=1000": "1..2"},
    {"p<=10000": ""},
    {"p<=100000": "1..2"},
    {"p<=100000": "1..inf"},
    {"p<=1000": "2..inf", "104729": ""},
    {"2": "", "3": "1..1", "97": "2..inf", "104729": "1..inf"},
    {"p in [2,3,5,7,11]": "1..3", "999983": "", "1000003": "1..inf"},
]
# 1e-17 is below one ulp of every density here that is not exactly 1
CORRECTION_TARGETS = [1e-8, 1e-12, 1e-17]


def correction_record(default: str, exceptions: dict, target: float) -> dict:
    """``density()`` of one correction case, floats as float.hex().

    An UnreachableTargetError is recorded as ``"exit": "unreachable"`` with
    the estimate it carries.
    """
    doc = {"default": default, "exceptions": exceptions}
    try:
        est, exit_ = density(parse_prime_aware(doc), target), "ok"
    except UnreachableTargetError as err:
        est, exit_ = err.best, "unreachable"
    return {"spec": doc, "target_error": target.hex(), "exit": exit_,
            "lower": est.lower.hex(), "upper": est.upper.hex(),
            "truncation_prime": est.truncation_prime}


PARENT_CORRECTIONS = json.loads(
    (ROOT / "tests" / "data" / "correction_parent_brackets.json").read_text()
)["estimates"]


@pytest.mark.parametrize(
    "before", PARENT_CORRECTIONS,
    ids=lambda r: f"{r['spec']['default']}-{'+'.join(r['spec']['exceptions'])}"
                  f"-t{float.fromhex(r['target_error']):g}",
)
def test_correction_nests_in_the_recorded_brackets(before):
    # each bracket is the recorded one or inside it, at the same reported
    # prime and with the same exit
    now = correction_record(before["spec"]["default"], before["spec"]["exceptions"],
                            float.fromhex(before["target_error"]))
    assert (now["exit"], now["truncation_prime"]) == (before["exit"], before["truncation_prime"])
    lo, hi = float.fromhex(now["lower"]), float.fromhex(now["upper"])
    was_lo, was_hi = float.fromhex(before["lower"]), float.fromhex(before["upper"])
    assert was_lo <= lo <= hi <= was_hi, (now, before)
