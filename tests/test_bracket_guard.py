"""Published brackets never widen: each lies inside its recorded counterpart.

``data/published_brackets.json`` holds the machine-output brackets of the
benchmark's density and series requests, one per d_k for a series, and of
the ``examples`` rows.  A change that widens one of them has to edit that
file.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from expdens.cli import EXIT_OK, main

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


# The benchmark's density requests and its bracket probe.
BENCHMARK_DENSITIES = [
    ["--pattern", "1..1", "--error", "1e-9"],
    ["--pattern", "1..1", "--error", "1e-12"],
    ["--pattern", "1..1,3..inf", "--error", "1e-8"],
    ["--pattern", "1..2", "--error", "1e-9"],
    ["--spec", "perfbench/odd_squarefree.json"],
    ["--pattern", "1..1", "--truncation", "100000"],
]


# Every examples row but ex3 is one product's density; ex3 adds two series
# coefficients.
PRODUCT_ROWS = [r["id"] for r in RECORDED if r["argv"] == ["examples"] and r["id"] != "ex3 k=2"]


@pytest.mark.parametrize("argv, row", [
    *(pytest.param(["density", *flags], None, id=" ".join(flags)) for flags in BENCHMARK_DENSITIES),
    *(pytest.param(["examples"], row, id=f"examples {row}") for row in PRODUCT_ROWS),
])
def test_density_brackets_are_at_most_two_ulp(argv, row):
    (record,) = [r for r in _records(argv) if r.get("id") == row]
    lower, upper = record["lower"], record["upper"]
    assert lower < upper <= math.nextafter(math.nextafter(lower, math.inf), math.inf), record
