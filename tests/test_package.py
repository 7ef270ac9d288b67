"""The package loads lazily: its names resolve on demand, and numpy stays out
of every command whose computation is pure Python."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import expdens

SRC = Path(__file__).resolve().parents[1] / "src"

# Every public name the package exported when it imported all submodules eagerly.
EXPORTED = [
    "BoundedValue", "ComparisonReport", "CountReport", "DensityEstimate",
    "DensitySeries", "DivergentWeightError", "ExponentInterval",
    "ExponentPattern", "ExponentWeight", "GHistogram", "LocalFactor",
    "PatternSyntaxError", "PrimeAwarePattern", "PrimeTable",
    "ResourceBudgetError", "UnreachableTargetError", "brackets_overlap",
    "closed_form", "compare", "complement", "contains", "count_pattern",
    "count_periodic", "density", "density_series", "g_histogram", "is_prime",
    "load_spec", "local_factor_interval", "min_forbidden",
    "normalize_intervals", "parse_pattern", "parse_prime_aware",
    "pattern_for_prime", "prime_sum", "sieve_primes", "zeta_int",
    "empirical", "euler", "patterns", "primes", "series",
]


@pytest.mark.parametrize("name", EXPORTED)
def test_every_former_export_resolves(name):
    assert getattr(expdens, name) is not None
    assert name in dir(expdens)


def test_version_dir_and_missing_names():
    assert expdens.__version__ == "0.1.0"
    assert "__version__" in dir(expdens)
    assert expdens.density is expdens.euler.density
    with pytest.raises(AttributeError):
        expdens.no_such_name


def _loads_numpy(code: str) -> bool:
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()[-1] == "True"


def _command(argv: list[str]) -> str:
    return (
        "import runpy, sys\n"
        f"sys.argv = ['expdens', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('expdens', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )


def _script(path: str, argv: list[str]) -> str:
    script = str(SRC.parent / path)
    return (
        "import runpy, sys\n"
        f"sys.argv = [{script!r}, *{argv!r}]\n"
        f"runpy.run_path({script!r}, run_name='__main__')\n"
    )


@pytest.mark.parametrize("argv", [
    ["density", "--pattern", "1..1", "--error", "1e-12"],
    ["examples"],
    ["count", "--pattern", "1..2", "--x", "1000000"],
    ["verify", "--pattern", "1..1,3..inf", "--x", "1000000"],
    ["series", "--weight", "delta", "--degree", "8", "--truncation", "1000000"],
    ["series", "--pattern", "1..2", "--degree", "16", "--truncation", "1000000"],
    ["series", "--pattern", "1..1", "--degree", "8"],
])
def test_command_leaves_numpy_out(argv):
    assert not _loads_numpy(_command(argv))


def test_series_script_leaves_numpy_out():
    argv = ["--weight", "delta", "--x", "10000000"]
    assert not _loads_numpy(_script("scripts/series_vs_histogram.py", argv))


def test_import_leaves_numpy_out():
    assert not _loads_numpy("import expdens")


def test_walk_fallback_loads_numpy():
    # the same check sees numpy when the oracle's segment walk runs: every
    # prime to 1e5 flips exponent 1, past the enumeration's node budget
    assert _loads_numpy(
        "from expdens import count_pattern, parse_prime_aware\n"
        "spec = {'default': '1..1', 'exceptions': {'p<=100000': ''}}\n"
        "count_pattern(500000, parse_prime_aware(spec))"
    )
