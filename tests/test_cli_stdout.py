"""Output stays byte-identical: recorded requests print the same stdout and exit code.

``data/cli_stdout.json`` holds the stdout and exit code of the benchmark's
CLI requests, of ``examples --output machine``, of two wide ``series``
requests, of the densities of the spec files under ``data/`` (one with a
pinned truncation prime) and of two density requests that exit 2 and 1,
each run in process through ``cli.run``, and the brackets of a series
whose weight takes no exponent to 1, so that its row 1 is empty.
"""

import io
import json
from pathlib import Path

import pytest

from expdens import cli
from expdens.series import ExponentWeight, density_series

ROOT = Path(__file__).resolve().parent.parent
RECORDED = json.loads((ROOT / "tests" / "data" / "cli_stdout.json").read_text())
# weight 0 at exponent 1, 2 at exponent 2, i at every i >= 3: no exponent has weight 1
EMPTY_ROW_1 = ExponentWeight(((1, 0, 0), (2, 0, 2), (3, 1, 0)))


def stdout_of(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of one request; spec paths are relative to the repository root."""
    argv = [str(ROOT / a) if a.endswith(".json") else a for a in argv]
    out = io.StringIO()
    return cli.run(cli._parse(argv), out), out.getvalue()


@pytest.mark.parametrize("case", RECORDED["requests"], ids=lambda c: " ".join(c["argv"]))
def test_stdout_and_exit_code(case):
    assert stdout_of(case["argv"]) == (case["exit"], case["stdout"])


def test_series_with_an_empty_row():
    want = RECORDED["empty_row_1"]
    ds = density_series(EMPTY_ROW_1, want["degree"], want["truncation"])
    assert (list(ds.lower), list(ds.upper)) == (want["lower"], want["upper"])
