"""Published brackets never widen: each lies inside its recorded counterpart.

``data/published_brackets.json`` holds the machine-output brackets of the
benchmark's density requests and of the ``examples`` rows.  A change that
widens one of them has to edit that file.
"""

import contextlib
import io
import json
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
        assert before["lower"] <= now["lower"] <= now["upper"] <= before["upper"], (now, before)
