"""The studies in scripts/ run to the end at small sizes."""

import os
import subprocess
import sys

import expdens
from expdens.empirical import count_pattern
from expdens.patterns import PrimeAwarePattern, parse_pattern

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    src = os.path.dirname(os.path.dirname(expdens.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_convergence_study():
    proc = run_script("convergence_study.py", "--pattern", "1..1,3..inf", "--max-x", "10000")
    assert proc.returncode == 0, proc.stderr
    assert "product value" in proc.stdout


def test_series_vs_histogram():
    x = 10_000
    proc = run_script("series_vs_histogram.py", "--x", str(x), "--truncation", "1000")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:] if line.split()[0].isdigit()]
    assert [int(row[0]) for row in rows] == list(range(9))
    # k = 0 of the default binary weight is the squarefree count
    squarefree = count_pattern(x, PrimeAwarePattern(default=parse_pattern("1..1")))
    assert rows[0][2] == f"{squarefree.ratio:.10f}"
