import contextlib
import dataclasses
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import expdens.euler
import expdens.patterns
import expdens.series
from expdens.cli import (
    _DISPATCH,
    _FLAGS,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_UNREACHABLE,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    RunConfig,
    UsageError,
    _parse,
    main,
    run,
)
from expdens.patterns import load_spec, parse_pattern, parse_prime_aware
from helpers import (
    argparse_reference,
    brute_count,
    oracle_density,
    oracle_series,
    pap_allows,
)


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

    def test_pinned_truncation_keeps_the_width_check(self):
        # a pinned prime moves no bracket, so a target below one ulp exits 2 either way
        for extra in ([], ["--truncation", "1000"]):
            argv = ["density", "--pattern", "1..1", "--error", "1e-30", *extra]
            code, out, err, _ = main_timed(argv)
            assert (code, out) == (EXIT_UNREACHABLE, "")
            assert err.startswith("error: bracket width 1.110e-16 > target 1.000e-30")

    @pytest.mark.parametrize("command", ["density", "series"])
    def test_truncation_above_the_budget_names_the_prime(self, command):
        code, out, err, _ = main_timed([command, "--pattern", "1..1", "--truncation", "200000000"])
        assert (code, out) == (EXIT_RESOURCE, "")
        assert "truncation prime 200000000 exceeds budget" in err


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

    @pytest.mark.parametrize("doc", [
        None, {"default": 5}, {"default": "1..1", "exceptions": []},
        {"default": "1..1", "exceptions": {"7": 3}}, {"default": None},
        {"default": "1..1", "exceptions": None}, {"...": None}, "default",
    ])
    def test_malformed_spec_document(self, tmp_path, doc, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert main(["density", "--spec", str(spec)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_integers_too_long_to_read(self, tmp_path, capsys):
        # a term or key of 5000 digits ends in a usage error that names it,
        # not in the interpreter's own message
        assert main(["density", "--pattern", "1.." + "9" * 5000]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: term '1..99") and "(at position 0)" in err
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"default": "1..1", "exceptions": {"9" * 5000: ""}}))
        assert main(["density", "--spec", str(spec)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: exception key '999") and "set_int_max_str_digits" not in err
        # a bare JSON integer of 5000 digits is named as the spec value it is
        spec.write_text('{"default": "1..1", "exceptions": {"7": ' + "9" * 5000 + "}}")
        assert main(["density", "--spec", str(spec)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: spec value '999") and "set_int_max_str_digits" not in err
        # and a small one is still no pattern
        spec.write_text('{"default": "1..1", "exceptions": {"7": 3}}')
        assert main(["density", "--spec", str(spec)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: a pattern is a DSL string, not int\n"

    @pytest.mark.parametrize("key", ["p in [2,]", "p in [2,,3]", "p in [2 3]"])
    def test_spec_key_with_an_empty_entry(self, tmp_path, key, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"default": "1..1", "exceptions": {key: ""}}))
        assert main(["density", "--spec", str(spec)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: unrecognized exception key {key!r}\n"

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

    @pytest.mark.parametrize("output", ["human", "machine"])
    def test_correction_only_density_meets_the_target(self, output):
        # a default that allows every exponent leaves the correction alone, one
        # ulp of 0.4 wide; a tighter target exits 2, as for any other density
        spec = Path(__file__).parent / "data" / "correction_only.json"
        argv = ["density", "--spec", str(spec), "--error", "1e-30", "--output", output]
        code, out, err, _ = main_timed(argv)
        assert code == EXIT_UNREACHABLE
        assert out == ""
        assert err.startswith("error: bracket width 5.551e-17 > target 1.000e-30")

    def test_resource_cap(self):
        code, _ = run_capture(RunConfig("count", pattern="1..1", x=10**10))
        assert code == EXIT_RESOURCE

    @pytest.mark.parametrize("default, code", [("1..inf", EXIT_OK), ("1..1", EXIT_RESOURCE)])
    def test_exceptional_prime_above_the_sieve_budget(self, tmp_path, default, code):
        # only a default that forbids an exponent sieves up to the prime
        spec = tmp_path / "far_prime.json"
        spec.write_text(json.dumps({"default": default, "exceptions": {"1000000007": "1"}}))
        assert main_timed(["density", "--spec", str(spec)])[0] == code

    def test_verify_failure(self):
        code, _ = run_capture(
            RunConfig(
                "verify", pattern="1..1", x=10**4, target_error=1e-6, tolerance=1e-7
            )
        )
        assert code == EXIT_VERIFY_FAILED

    @pytest.mark.parametrize("argv, code", [
        (["series", "--weight", "delta", "--degree", "1" + "0" * 4000], EXIT_RESOURCE),
        (["series", "--weight", "delta", "--degree", "1" * 5000], EXIT_USAGE),
        (["count", "--pattern", "1..1", "--x", "1" * 5000], EXIT_USAGE),
        (["count", "--pattern", "1..1", "--x", "1" + "0" * 4000], EXIT_RESOURCE),
        (["density", "--pattern", "1..1", "--truncation", "1" + "0" * 4000], EXIT_RESOURCE),
    ], ids=["degree-cap", "degree-unreadable", "x-unreadable", "x-budget", "truncation-budget"])
    def test_a_huge_number_is_not_echoed_in_full(self, argv, code, capsys):
        # each message names the number by its first 20 digits and its length
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.encode()) < 200, captured.err
        assert f"... ({len(argv[-1])} digits)" in captured.err


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

    @pytest.mark.parametrize("exceptions, count", [
        ({"18446744073709551629": "1..2"}, 608),
        ({"18446744073709551629": "1..2", "p<=100": "1..2"}, 833),
    ])
    def test_count_with_a_key_above_two_to_the_63(self, tmp_path, exceptions, count):
        # 2^64 + 13 is prime and fits no array('q'): the listed keys stay ints
        doc = {"default": "1..1", "exceptions": exceptions}
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps(doc))
        code, out, err, _ = main_timed(["count", "--spec", str(spec), "--x", "1000"])
        assert (code, err) == (EXIT_OK, "")
        assert out == f"count    x=1000  count={count}  ratio={count / 1000!r}\n"
        pap = parse_prime_aware(doc)
        assert brute_count(1000, lambda p, a: pap_allows(pap, p, a)) == count

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

    def test_series_truncation_moves_no_bracket(self):
        # --truncation is validated and reported; no prime above 1000 is
        # sieved, and those below it are all in the head at any P
        records = []
        for truncation in (2, 1000000):
            code, text = run_capture(RunConfig("series", pattern="1,3,5", degree=8,
                                               truncation=truncation, output="machine"))
            assert code == EXIT_OK
            records.append(json.loads(text))
            assert records[-1]["truncation_prime"] == truncation
        small, large = records
        assert (small["lower"], small["upper"]) == (large["lower"], large["upper"])
        w = expdens.series.ExponentWeight.outside_pattern(parse_pattern("1,3,5"))
        for lo, hi, truth in zip(small["lower"], small["upper"], oracle_series(w, 8),
                                 strict=True):
            assert lo <= truth <= hi

    def test_series_rejects_exceptions(self, tmp_path):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"default": "1..1", "exceptions": {"2": ""}}))
        code, _ = run_capture(RunConfig("series", spec_path=str(spec)))
        assert code == EXIT_USAGE


    def test_series_refuses_a_range_without_sieving(self, tmp_path, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"sieved to {limit}")

        for name in ("prime_segments", "sieve_primes"):
            monkeypatch.setattr(expdens.patterns, name, refuse)
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"default": "1..1", "exceptions": {"p<=100000000": ""}}))
        assert main(["series", "--spec", str(spec)]) == EXIT_USAGE

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
        # 11 rows, 9 products: squarefree_or_high k=3 is skip_one k=2 and
        # exp_odd is mod_periodic ell=2
        calls = []
        inner = expdens.euler._bracketed_product

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(expdens.euler, "_bracketed_product", counting)
        expdens.euler._interval_density.cache_clear()
        assert main(["examples"]) == EXIT_OK
        assert len(calls) == 9
        assert len(capsys.readouterr().out.splitlines()) == 11

    @pytest.mark.parametrize("error", ["1e-15", "2e-16"])
    def test_one_ulp_rows_meet_a_tight_target(self, error):
        # every row is one ulp wide; ex3, at most two, is not held to the target
        code, out, err, _ = main_timed(["examples", "--error", error])
        assert code == EXIT_OK, err
        assert len(out.splitlines()) == 11

    def test_unreachable_target_fails_before_any_row(self):
        # the first row, powerfree k=1, is one ulp of 0.61 wide: 1.1e-16
        code, out, err, _ = main_timed(["examples", "--error", "1e-16"])
        assert code == EXIT_UNREACHABLE
        assert out == ""
        assert err.startswith("error: bracket width 1.110e-16 > target 1.000e-16")


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


@pytest.mark.parametrize("argv", [
    ["density"], ["count", "--x", "100000"], ["verify", "--x", "100000"], ["series", "--degree", "8"],
], ids=lambda argv: argv[0])
def test_large_document_in_either_order(tmp_path, argv):
    # a default of 10^5 terms, 1,3,5,... up and the same terms down: the
    # same bytes from both, each call within the fuzzers' 2 s
    terms = [str(e) for e in range(1, 2 * 10**5, 2)]
    outs = []
    for order in (terms, terms[::-1]):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"default": ",".join(order)}))
        code, out, err, seconds = main_timed([argv[0], "--spec", str(spec), *argv[1:]])
        assert code == EXIT_OK, err
        assert seconds < 2.0, seconds
        outs.append(out)
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# The flag parser against the former argparse parser (tests/helpers.py): the
# same RunConfig for every argv, or a usage error from both.


def _outcome(parse, argv):
    """``parse(argv)``, or EXIT_USAGE when it ends in a usage error."""
    try:
        return parse(argv)
    except UsageError:
        return EXIT_USAGE


@st.composite
def _respelled_argv(draw):
    """An argv of ``_argv`` whose flags may be cut to a prefix of at least
    three characters, unique or not, or joined to their value by "="."""
    subcommand, *rest = draw(_argv())
    argv = [subcommand]
    for flag, value in zip(rest[::2], rest[1::2]):
        flag = flag[: draw(st.integers(3, len(flag)))]
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@settings(max_examples=300, deadline=None)
@given(st.one_of(_argv(), _respelled_argv()))
def test_parse_agrees_with_argparse(argv):
    assert _outcome(_parse, argv) == _outcome(argparse_reference, argv)


@pytest.mark.parametrize("argv, config", [
    (["density", "--pattern=1..1"], RunConfig("density", pattern="1..1")),
    (["density", "--pat", "1..1"], RunConfig("density", pattern="1..1")),
    (["count", "--pattern", "1..1", "--x", "10", "--x=20"], RunConfig("count", pattern="1..1", x=20)),
    (["series", "--weight", "delta"], RunConfig("series", weight="delta")),
    (["density", "--pattern", "-1"], RunConfig("density", pattern="-1")),  # a negative number
    (["density", "--pattern", "-.5"], RunConfig("density", pattern="-.5")),
    (["density", "--pattern", "-5."], EXIT_USAGE),  # not a negative number, so a flag
    (["density", "--pattern", "- 1"], RunConfig("density", pattern="- 1")),
    (["density", "--spec", "-"], RunConfig("density", spec_path="-")),
    (["density", "--pattern", ""], RunConfig("density", pattern="")),
    (["density", "--pattern", "1..1", "--t", "5"], EXIT_USAGE),  # --truncation or --tol
    (["density", "--nope"], EXIT_USAGE),
    (["density", "--pattern"], EXIT_USAGE),
    (["density", "--pattern", "--x", "5"], EXIT_USAGE),
    (["density", "--weight", "delta"], EXIT_USAGE),
    (["density", "--pattern", "1..1", "stray"], EXIT_USAGE),
    (["density", "--"], EXIT_USAGE),
    (["dens", "--pattern", "1..1"], EXIT_USAGE),
    (["--pattern", "1..1", "density"], EXIT_USAGE),
    ([], EXIT_USAGE),
    (["density", "--pattern", "1..1", "--error=-inf"], EXIT_USAGE),
    (["density", "--pattern", "1..1", "--error", "-inf"], EXIT_USAGE),
    (["density", "--x", "1e3"], EXIT_USAGE),
], ids=repr)
def test_parse_hand_written_cases(argv, config):
    assert _outcome(_parse, argv) == config
    assert _outcome(argparse_reference, argv) == config


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["density", "-h"], ["series", "--he"],
                                  ["count", "--pattern", "1..1", "--help"]])
def test_help_prints_the_usage(argv, capsys):
    assert main(argv) == EXIT_OK  # and no SystemExit
    captured = capsys.readouterr()
    assert captured.err == ""
    assert all(name in captured.out for name in [*_DISPATCH, *_FLAGS])  # --weight included


ROOT = Path(__file__).resolve().parent.parent


def _readme_cli_lines() -> list[str]:
    """The ``expdens ...`` lines of README's CLI block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("expdens ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_example_exits_zero(line, monkeypatch, capsys):
    # README's examples run from the root of the repository
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(line)[1:]) == EXIT_OK, capsys.readouterr().err
