import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import expdens.euler
import expdens.series
from expdens.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_UNREACHABLE,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    RunConfig,
    main,
    run,
)
from expdens.patterns import load_spec, parse_pattern
from helpers import oracle_density, oracle_series


def run_capture(config):
    out = io.StringIO()
    code = run(config, out)
    return code, out.getvalue()


def run_fresh(*argv):
    """``python -m expdens argv`` in a new process; the process and its seconds."""
    # the child must import the package under test, installed or not
    src = os.path.dirname(os.path.dirname(expdens.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "expdens", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return proc, time.perf_counter() - start


def main_timed(argv):
    """``main(argv)`` in this process: exit code, stdout, stderr and seconds."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


class TestDensity:
    def test_human(self):
        code, text = run_capture(
            RunConfig("density", pattern="1..1", target_error=1e-6)
        )
        assert code == EXIT_OK
        assert "0.60792710" in text

    def test_machine_round_trip(self):
        code, text = run_capture(
            RunConfig("density", pattern="1..1", target_error=1e-6, output="machine")
        )
        assert code == EXIT_OK
        record = json.loads(text)
        assert set(record) == {
            "value",
            "lower",
            "upper",
            "truncation_prime",
            "tail_logbound",
            "diverges_to_zero",
        }
        est = expdens.euler.density(
            expdens.PrimeAwarePattern(default=expdens.parse_pattern("1..1")), 1e-6
        )
        assert record["value"] == est.value
        assert record["lower"] == est.lower
        assert record["upper"] == est.upper

    def test_deterministic_machine_output(self):
        config = RunConfig("density", pattern="1..2", target_error=1e-6, output="machine")
        assert run_capture(config) == run_capture(config)

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "odd_squarefree.json"
        spec.write_text(json.dumps({"default": "1..1", "exceptions": {"2": ""}}))
        code, text = run_capture(
            RunConfig("density", spec_path=str(spec), target_error=1e-6, output="machine")
        )
        assert code == EXIT_OK
        assert json.loads(text)["value"] == pytest.approx(0.4052847345693511, abs=1e-6)

    def test_truncation_override(self):
        code, text = run_capture(
            RunConfig("density", pattern="1..1", truncation=5000, output="machine")
        )
        assert code == EXIT_OK
        assert json.loads(text)["truncation_prime"] == 5000


class TestUsageErrors:
    def test_both_pattern_sources(self):
        code, _ = run_capture(
            RunConfig("density", pattern="1..1", spec_path="x.json")
        )
        assert code == EXIT_USAGE

    def test_no_pattern_source(self):
        code, _ = run_capture(RunConfig("density"))
        assert code == EXIT_USAGE

    def test_malformed_pattern(self):
        code, _ = run_capture(RunConfig("density", pattern="0..2"))
        assert code == EXIT_USAGE

    def test_missing_x(self):
        code, _ = run_capture(RunConfig("count", pattern="1..1"))
        assert code == EXIT_USAGE

    def test_unknown_flag_via_main(self, capsys):
        assert main(["density", "--nope"]) == EXIT_USAGE

    def test_missing_subcommand(self):
        assert main([]) == EXIT_USAGE

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["density", "--pattern", "1..1", "--error"],
            ["verify", "--pattern", "1..1", "--x", "1000", "--output", "machine", "--tol"],
        ],
        ids=["error", "tol"],
    )
    def test_non_finite_float_flag(self, argv, value, capsys):
        # "--flag=-inf" reaches RunConfig; argparse reads a lone "-inf" as an option
        *head, flag = argv
        assert main(head + [f"{flag}={value}"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be positive and finite" in captured.err


class TestComputationalExits:
    def test_unreachable_target(self):
        code, _ = run_capture(
            RunConfig("density", pattern="1..1", target_error=1e-16)
        )
        assert code == EXIT_UNREACHABLE

    def test_unreachable_target_exits_fast(self):
        # a fresh process: import, one evaluation at the starting prime, exit 2
        proc, seconds = run_fresh("density", "--pattern", "1..1", "--error", "1e-16")
        assert seconds < 1.0
        assert proc.returncode == EXIT_UNREACHABLE
        assert "bracket width" in proc.stderr and "> target 1.000e-16" in proc.stderr

    def test_resource_cap(self):
        code, _ = run_capture(RunConfig("count", pattern="1..1", x=10**10))
        assert code == EXIT_RESOURCE

    def test_verify_failure(self):
        code, _ = run_capture(
            RunConfig(
                "verify", pattern="1..1", x=10**4, target_error=1e-6, tolerance=1e-7
            )
        )
        assert code == EXIT_VERIFY_FAILED


class TestVerify:
    def test_pass(self):
        code, text = run_capture(
            RunConfig(
                "verify",
                pattern="1..1,3..inf",
                x=10**5,
                target_error=1e-6,
                tolerance=5e-3,
            )
        )
        assert code == EXIT_OK
        assert "PASS" in text

    def test_machine_records(self):
        code, text = run_capture(
            RunConfig(
                "verify",
                pattern="1..1",
                x=10**5,
                target_error=1e-6,
                tolerance=5e-3,
                output="machine",
            )
        )
        assert code == EXIT_OK
        records = [json.loads(line) for line in text.splitlines()]
        assert len(records) == 3
        assert {"value", "lower", "upper"} <= set(records[0])
        assert set(records[1]) == {"x", "count", "ratio"}
        assert records[2]["passed"] is True


class TestCountAndSeries:
    def test_count_machine(self):
        code, text = run_capture(
            RunConfig("count", pattern="1..1", x=100, output="machine")
        )
        assert code == EXIT_OK
        assert json.loads(text) == {"x": 100, "count": 61, "ratio": 0.61}

    def test_series_pattern_weight(self):
        code, text = run_capture(
            RunConfig("series", pattern="1..1", degree=3, truncation=10**4, output="machine")
        )
        assert code == EXIT_OK
        record = json.loads(text)
        assert set(record) == {
            "coeffs", "lower", "upper", "truncation_prime", "mass_deficit"
        }
        assert len(record["coeffs"]) == 4
        assert record["coeffs"][0] == pytest.approx(0.6079, abs=1e-3)

    def test_series_delta_weight(self):
        code, text = run_capture(
            RunConfig("series", weight="delta", degree=2, truncation=10**4, output="machine")
        )
        assert code == EXIT_OK
        record = json.loads(text)
        assert record["coeffs"][0] == pytest.approx(0.6079, abs=1e-3)
        assert record["coeffs"][1] == pytest.approx(0.2007, abs=1e-3)

    def test_series_far_interval_is_bounded(self):
        # the weight has one piece per interval, however far out the last starts
        proc, seconds = run_fresh(
            "series", "--pattern", "1..1,99999999999999999999..inf", "--degree", "2",
            "--output", "machine",
        )
        assert proc.returncode == EXIT_OK
        assert seconds < 1.0
        near, _ = run_fresh("series", "--pattern", "1..1", "--degree", "2", "--output", "machine")
        got, want = json.loads(proc.stdout), json.loads(near.stdout)
        for c, lo, hi in zip(got["coeffs"], want["lower"], want["upper"], strict=True):
            assert lo <= c <= hi

    def test_series_wide_brackets_at_tiny_truncation(self):
        # At P = 2 the brackets are up to 0.05 wide and the point values may
        # sum past 1; the request is still valid and each bracket holds d_k.
        code, text = run_capture(
            RunConfig("series", pattern="1,3,5", degree=8, truncation=2, output="machine")
        )
        assert code == EXIT_OK
        record = json.loads(text)
        w = expdens.series.ExponentWeight.outside_pattern(parse_pattern("1,3,5"))
        for lo, hi, truth in zip(record["lower"], record["upper"], oracle_series(w, 8),
                                 strict=True):
            assert lo <= truth <= hi

    def test_series_rejects_exceptions(self, tmp_path):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"default": "1..1", "exceptions": {"2": ""}}))
        code, _ = run_capture(RunConfig("series", spec_path=str(spec)))
        assert code == EXIT_USAGE


    def test_count_powerful_at_the_bound(self):
        # 21 044 = sum over squarefree b of isqrt(1e8 // b^3), as a^2 b^3
        proc, seconds = run_fresh("count", "--pattern", "2..inf", "--x", "100000000")
        assert proc.returncode == EXIT_OK
        assert proc.stdout == "count    x=100000000  count=21044  ratio=0.00021044\n"
        assert seconds < 5.0


class TestExamples:
    def test_table(self):
        code, text = run_capture(RunConfig("examples", target_error=1e-7))
        assert code == EXIT_OK
        lines = text.splitlines()
        assert len(lines) == 11
        assert any("exp_odd" in line and "0.70444220" in line for line in lines)

    def test_machine(self):
        code, text = run_capture(
            RunConfig("examples", target_error=1e-7, output="machine")
        )
        assert code == EXIT_OK
        records = [json.loads(line) for line in text.splitlines()]
        assert len(records) == 11
        assert all("id" in r and "value" in r for r in records)


    def test_each_product_computed_once(self, monkeypatch, capsys):
        # squarefree_or_high k=3 is skip_one k=2; exp_odd is mod_periodic ell=2
        calls = []
        inner = expdens.euler._bracketed_product

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(expdens.euler, "_bracketed_product", counting)
        expdens.euler._interval_density.cache_clear()
        expdens.euler._mod_periodic.cache_clear()
        assert main(["examples"]) == EXIT_OK
        assert len(calls) == 3
        assert len(capsys.readouterr().out.splitlines()) == 11


@dataclasses.dataclass
class _Record:
    value: float


class TestMachineOutput:
    def test_nan_series_record_is_refused(self, monkeypatch, capsys):
        nan = float("nan")
        monkeypatch.setattr(
            expdens.series,
            "density_series",
            lambda w, K, P: expdens.series.DensitySeries(
                (nan,), (nan,), (nan,), P, nan
            ),
        )
        assert main(["series", "--pattern", "1..1", "--output", "machine"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "NaN" not in captured.out
        assert captured.err.startswith("error:")

    def test_nan_examples_record_is_refused(self, monkeypatch, capsys):
        monkeypatch.setattr(expdens.euler, "closed_form", lambda **kw: _Record(float("nan")))
        assert main(["examples", "--output", "machine"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "NaN" not in captured.out
        assert captured.err.startswith("error:")


class TestFarExceptionEnds:
    # an allowed run of 3 ending at 10^20 - 1: no power of 3 that large is taken
    @pytest.mark.parametrize("default", ["1..1", "1..inf"])
    @pytest.mark.parametrize("subcommand", ["density", "verify"])
    def test_far_end_answers_fast(self, tmp_path, subcommand, default):
        spec = tmp_path / "far.json"
        spec.write_text(json.dumps(
            {"default": default, "exceptions": {"3": "1..99999999999999999999"}}
        ))
        argv = [subcommand, "--spec", str(spec), "--output", "machine"]
        if subcommand == "verify":
            argv += ["--x", "100000"]
        code, out, _, seconds = main_timed(argv)
        assert code == EXIT_OK
        assert seconds < 2.0
        record = json.loads(out.splitlines()[0])
        truth = oracle_density(load_spec(str(spec)))
        assert record["lower"] <= truth <= record["upper"]


def test_console_entry_point():
    proc, _ = run_fresh("count", "--pattern", "1..1", "--x", "1000", "--output", "machine")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 608


# ---------------------------------------------------------------------------
# Fuzzed argv: every call ends in a documented exit code, quickly.

_WILD = ["nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", str(10**30), "1" * 400]
# ends up to 10^30, and one past any float
_ENDS = st.one_of(st.integers(1, 12), st.integers(1, 12), st.integers(1, 10**30), st.just(10**400))


@st.composite
def _dsl(draw, ordered=False):
    # most patterns allow exponent 1, so that their products converge;
    # ``ordered`` swaps reversed ends, so that every term parses
    terms = [draw(st.sampled_from(["1", "1..2", "1..inf", "2", ""]))]
    for _ in range(draw(st.integers(0, 4))):
        lo = draw(_ENDS)
        hi = draw(st.one_of(st.none(), st.just("inf"), _ENDS))
        if ordered and isinstance(hi, int):
            lo, hi = sorted((lo, hi))
        terms.append(str(lo) if hi is None else f"{lo}..{hi}")
    return ",".join(filter(None, terms))


def _sane_or_wild(sane):
    # one value in ten is wild
    wild = st.sampled_from(_WILD)
    return st.sampled_from([False] * 9 + [True]).flatmap(lambda w: wild if w else sane).map(str)


_FLAGS = {
    "--pattern": st.sampled_from([False] * 5 + [True]).flatmap(
        lambda raw: st.text("0123456789.,inf ", max_size=10) if raw else _dsl()
    ),
    "--x": _sane_or_wild(st.integers(1, 10**5)),
    "--error": _sane_or_wild(st.floats(1e-16, 1.0)),
    "--degree": _sane_or_wild(st.integers(0, 64)),
    "--truncation": _sane_or_wild(
        st.one_of(st.integers(2, 999), st.integers(1000, 10**5), st.integers(10**11, 10**30))
    ),
    "--tol": _sane_or_wild(st.floats(1e-9, 1.0)),
    "--output": _sane_or_wild(st.sampled_from(["human", "machine"])),
}
_NEEDED = {"density": ["--pattern"], "series": [], "count": ["--pattern", "--x"],
           "verify": ["--pattern", "--x"], "examples": []}


@st.composite
def _argv(draw):
    subcommand = draw(st.sampled_from(sorted(_NEEDED)))
    flags = dict(_FLAGS)
    if subcommand == "series":
        source = st.sampled_from([("--weight", "delta"), ("--pattern", draw(_FLAGS["--pattern"]))])
        flags.pop("--pattern")
        argv = ["series", *draw(source)]
    else:
        argv = [subcommand]
    needed = {name: flags.pop(name) for name in _NEEDED[subcommand]}
    chosen = draw(st.fixed_dictionaries(needed, optional=flags))
    return argv + [part for flag in chosen.items() for part in flag]


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_fuzzed_argv_ends_in_a_documented_code(argv):
    code, _, err, seconds = main_timed(argv)
    assert seconds < 2.0, argv
    assert code in range(5), argv
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Fuzzed spec documents: single-prime, "p in [...]" and "p<=q" keys with DSL
# values, through density, count and verify.

_SPEC_PRIMES = [2, 3, 5, 7, 97, 997, 7919, 99991, 100003, 1000003]
# malformed DSL is the argv fuzz's business; here one value in ten may be
_spec_dsl = st.sampled_from([True] * 9 + [False]).flatmap(lambda ordered: _dsl(ordered))


@st.composite
def _spec(draw):
    exceptions = {}
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["prime", "in", "le"]))
        if kind == "prime":
            key = str(draw(st.sampled_from(_SPEC_PRIMES)))
        elif kind == "in":
            listed = draw(st.lists(st.sampled_from(_SPEC_PRIMES), max_size=4))
            key = f"p in [{','.join(map(str, listed))}]"
        else:
            key = f"p<={draw(st.integers(0, 10**5))}"
        exceptions[key] = draw(_spec_dsl)
    return {"default": draw(_spec_dsl), "exceptions": exceptions}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(subcommand=st.sampled_from(["density", "count", "verify"]), doc=_spec(),
       x=st.integers(1, 10**5))
def test_fuzzed_spec_ends_in_a_documented_code(tmp_path, subcommand, doc, x):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    argv = [subcommand, "--spec", str(spec)]
    if subcommand != "density":
        argv += ["--x", str(x)]
    code, _, err, seconds = main_timed(argv)
    assert seconds < 2.0, doc
    assert code in range(5), doc
    assert "Traceback" not in err
