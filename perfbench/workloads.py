"""The benchmark's workloads: each request, and the check its output must pass.

A request is the argument list given to a fresh ``python3``: either
``-m expdens <subcommand> ...`` or a script under ``scripts/``.  Every check
compares the output with a reference from ``references.py``, which does not
use expdens, and raises CheckFailed when the output is wrong.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from collections.abc import Callable
from dataclasses import dataclass

import references as ref

SPEC = "perfbench/odd_squarefree.json"
X = str(ref.X)
DEFAULT_TARGET_ERROR = 1e-8
# A float reference is within half an ulp of the true value.
_REF_SLACK = 4e-16


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Result:
    returncode: int | None  # None when the request was killed at its timeout
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    check: Callable[[Result], None]

    @property
    def label(self) -> str:
        args = self.argv[2:] if self.argv[:2] == ("-m", "expdens") else self.argv
        return " ".join(args)


def judge(request: Request, result: Result) -> str | None:
    """None when the output passes its check, else the reason it failed."""
    try:
        request.check(result)
    except (CheckFailed, ValueError, LookupError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _find(pattern: str, text: str) -> re.Match:
    m = re.search(pattern, text, re.M)
    _expect(m is not None, f"output lacks {pattern!r}")
    return m


def _exit(result: Result, code: int) -> None:
    _expect(result.returncode is not None, "timed out")
    _expect(result.returncode == code, f"exit {result.returncode}, expected {code}: "
            f"{result.stderr.strip()[-200:]}")


def _contains(lower: float, upper: float, truth: float, slack: float = 0.0) -> None:
    pad = slack + _REF_SLACK * abs(truth)
    _expect(lower - pad <= truth <= upper + pad,
            f"bracket [{lower!r}, {upper!r}] misses reference {truth!r}")


def _density(result: Result) -> tuple[float, float, float]:
    m = _find(r"value=(\S+)\s+bracket=\[(\S+), (\S+)\]", result.stdout)
    value, lower, upper = (float(g) for g in m.groups())
    _expect(lower <= value <= upper, "value outside its bracket")
    return value, lower, upper


def density_check(reference: str, width: float) -> Callable[[Result], None]:
    """Exit 0; the printed bracket is at most ``width`` wide and holds the truth."""

    def check(result: Result) -> None:
        _exit(result, 0)
        _, lower, upper = _density(result)
        _expect(upper - lower <= width, f"width {upper - lower:.3e} > {width:.1e}")
        _contains(lower, upper, ref.density(reference))

    return check


def unreachable_check(reference: str, width: float) -> Callable[[Result], None]:
    """Exit 2 with the documented width message, or a valid exit-0 answer."""
    inner = density_check(reference, width)

    def check(result: Result) -> None:
        if result.returncode != 2:
            inner(result)
            return
        m = _find(r"bracket width (\S+) > target (\S+)", result.stderr)
        _expect(float(m[2]) == width, f"target {m[2]} reported for {width:.1e}")
        _expect(float(m[1]) > width, f"width {m[1]} meets the target it missed")

    return check


def bracket_width(result: Result) -> float:
    """upper - lower from a machine-mode density record."""
    record = json.loads(result.stdout.splitlines()[-1])
    return record["upper"] - record["lower"]


def _probe_check(result: Result) -> None:
    _exit(result, 0)
    record = json.loads(result.stdout.splitlines()[-1])
    _expect(record["truncation_prime"] == 100_000, "truncation prime not honoured")
    _expect(record["lower"] <= record["value"] <= record["upper"], "value outside bracket")
    _contains(record["lower"], record["upper"], ref.density("squarefree"))


def _count(result: Result, expected: int) -> None:
    m = _find(r"x=(\d+)\s+count=(\d+)\s+ratio=(\S+)", result.stdout)
    x, count = int(m[1]), int(m[2])
    _expect(x == ref.X, f"x={x}")
    _expect(count == expected, f"count {count}, expected {expected}")
    _expect(float(m[3]) == count / x, "ratio is not count / x")


def count_check(expected: int) -> Callable[[Result], None]:
    def check(result: Result) -> None:
        _exit(result, 0)
        _count(result, expected)

    return check


def _verify_check(result: Result) -> None:
    _exit(result, 0)
    _, lower, upper = _density(result)
    _expect(upper - lower <= DEFAULT_TARGET_ERROR, "product bracket too wide")
    _contains(lower, upper, ref.density("no_square_exponent"))
    _count(result, ref.NO_SQUARE_EXPONENT_COUNT)
    _find(r"^verify .* PASS$", result.stdout)


# Catalog row label -> reference density.
_EXAMPLES = {
    "powerfree k=1": "squarefree",
    "powerfree k=2": "cubefree",
    "squarefree_or_high k=3": "no_square_exponent",
    "skip_one k=2": "no_square_exponent",
    "exp_odd": "exp_odd",
    "mod_periodic ell=2": "exp_odd",
    "mod_periodic ell=3": "mod3",
    "ex1 q=3 k=2": "ex1_q3_k2",
    "ex2 S={2} k=2": "ex2_2_k2",
    "ex3_single p=2 k=2": "ex3_single_2_k2",
    "ex3 k=2": "ex3_k2",
}


def _examples_check(result: Result) -> None:
    _exit(result, 0)
    rows = re.findall(r"^(.+?)\s+value=(\S+)\s+bracket=\[(\S+), (\S+)\]$",
                      result.stdout, re.M)
    _expect(sorted(r[0] for r in rows) == sorted(_EXAMPLES), "catalog rows differ")
    for label, value, lower, upper in rows:
        value, lower, upper = float(value), float(lower), float(upper)
        # Rows are printed to 12 decimals.
        _expect(upper - lower <= DEFAULT_TARGET_ERROR + 1e-12, f"{label}: too wide")
        _expect(lower <= value <= upper, f"{label}: value outside bracket")
        _contains(lower, upper, ref.density(_EXAMPLES[label]), slack=5e-13)


def _d0_tolerance(truncation: int, first_forbidden: int) -> float:
    """Bound on d_0 - density: sum_{p > P} p^-k < 1.26 / (P^(k-1) ln P)."""
    return 2.0 / (float(truncation) ** (first_forbidden - 1) * math.log(truncation))


def series_check(reference: str, degree: int, truncation: int,
                 first_forbidden: int) -> Callable[[Result], None]:
    """Coefficients >= 0 that sum to 1 with the deficit; d_0 near its density."""

    def check(result: Result) -> None:
        _exit(result, 0)
        m = _find(r"truncation_prime=(\d+)\s+mass_deficit=(\S+)", result.stdout)
        _expect(int(m[1]) == truncation, f"truncation prime {m[1]}")
        coeffs = [float(c) for c in re.findall(r"^\s+d_\d+ = (\S+)", result.stdout, re.M)]
        _expect(len(coeffs) == degree + 1, f"{len(coeffs)} coefficients")
        _expect(min(coeffs) >= 0.0, "negative coefficient")
        _expect(abs(sum(coeffs) + float(m[2]) - 1.0) <= 1e-12, "mass not conserved")
        truth = ref.density(reference)
        # d_0 is a truncated product of factors below 1, so it lies above the
        # density; 1e-11 allows for roundoff over ~10^5 convolutions.
        _expect(truth - 1e-11 <= coeffs[0] <= truth + _d0_tolerance(truncation, first_forbidden)
                + 1e-11, f"d_0 {coeffs[0]!r} far from {truth!r}")

    return check


def _histogram_check(result: Result) -> None:
    """series_vs_histogram --weight delta: k = 0 is the squarefree count."""
    _exit(result, 0)
    rows = re.findall(r"^\s*(\d+)\s+(\S+)\s+(\S+)\s+(\S+)$", result.stdout, re.M)
    _expect([int(r[0]) for r in rows] == list(range(9)), "rows k = 0..8 expected")
    freqs = [float(r[2]) for r in rows]
    squarefree = ref.kfree_count(ref.X, 2)
    _expect(rows[0][2] == f"{squarefree / ref.X:.10f}", f"k=0 frequency {rows[0][2]}")
    _expect(min(freqs) >= 0.0, "negative frequency")
    overflow = float(_find(r"sieve overflow (\S+)", result.stdout)[1])
    # The overflow is printed to 3 significant digits.
    _expect(abs(sum(freqs) + overflow - 1.0) <= 2e-6, "histogram mass not conserved")
    truth = ref.density("squarefree")
    d0 = float(rows[0][1])
    _expect(truth - 1e-10 <= d0 <= truth + _d0_tolerance(100_000, 2) + 1e-10,
            f"series d_0 {d0!r} far from {truth!r}")


def _cli(*args: str) -> tuple[str, ...]:
    return ("-m", "expdens", *args)


def _calibrate_check(result: Result) -> None:
    _exit(result, 0)
    _expect(result.stdout.split() == ["599998", "3452749527164"], "wrong checksum")


IMPORT = Request(("-c", "import expdens"), lambda result: _exit(result, 0))

# Machine-speed probe run before every untraced pass; it runs no expdens code.
CALIBRATE = Request(("perfbench/calibrate.py",), _calibrate_check)

# Run once per run on every workload; its width is the bracket_width metric.
BRACKET_PROBE = Request(
    _cli("density", "--pattern", "1..1", "--truncation", "100000", "--output", "machine"),
    _probe_check,
)

WORKLOADS: dict[str, list[Request]] = {
    "product": [
        Request(_cli("density", "--pattern", "1..1", "--error", "1e-9"),
                density_check("squarefree", 1e-9)),
        Request(_cli("density", "--pattern", "1..1", "--error", "1e-12"),
                unreachable_check("squarefree", 1e-12)),
        Request(_cli("density", "--pattern", "1..1,3..inf", "--error", "1e-8"),
                density_check("no_square_exponent", 1e-8)),
        Request(_cli("density", "--pattern", "1..2", "--error", "1e-9"),
                density_check("cubefree", 1e-9)),
        Request(_cli("density", "--spec", SPEC),
                density_check("odd_squarefree_spec", DEFAULT_TARGET_ERROR)),
        Request(_cli("examples"), _examples_check),
        BRACKET_PROBE,
    ],
    "oracle": [
        Request(_cli("count", "--pattern", "1..2", "--x", X),
                count_check(ref.kfree_count(ref.X, 3))),
        Request(_cli("verify", "--pattern", "1..1,3..inf", "--x", X), _verify_check),
        Request(_cli("count", "--spec", SPEC, "--x", X),
                count_check(ref.ODD_SQUAREFREE_SPEC_COUNT)),
        Request(("scripts/series_vs_histogram.py", "--weight", "delta", "--x", X),
                _histogram_check),
    ],
    "series": [
        Request(_cli("series", "--weight", "delta", "--degree", "8",
                     "--truncation", "1000000"),
                series_check("squarefree", 8, 1_000_000, 2)),
        Request(_cli("series", "--pattern", "1..2", "--degree", "16",
                     "--truncation", "1000000"),
                series_check("cubefree", 16, 1_000_000, 3)),
        Request(_cli("series", "--pattern", "1..1", "--degree", "8"),
                series_check("squarefree", 8, 100_000, 2)),
    ],
}


def corrupted(result: Result) -> list[tuple[str, Result]]:
    """Copies of a passing result, each with one planted error its check must catch."""
    out = [("wrong exit code",
            dataclasses.replace(result, returncode=4 if result.returncode == 0 else 0))]
    text = result.stdout
    m = re.search(r"count=(\d+)", text)
    if m:
        bad = text[: m.start(1)] + str(int(m[1]) + 1) + text[m.end(1):]
        out.append(("off-by-one count", dataclasses.replace(result, stdout=bad)))
    m = re.search(r"bracket=\[(\S+), (\S+)\]", text)
    if m:
        lower, upper = float(m[1]), float(m[2])
        shift = upper - lower + 1e-6
        bad = f"{text[: m.start()]}bracket=[{lower + shift!r}, {upper + shift!r}]{text[m.end():]}"
        out.append(("bracket missing its reference", dataclasses.replace(result, stdout=bad)))
    m = re.search(r"d_0 = (\S+)", text)
    if m:
        bad = text[: m.start(1)] + repr(float(m[1]) + 1e-3) + text[m.end(1):]
        out.append(("shifted d_0", dataclasses.replace(result, stdout=bad)))
    return out
