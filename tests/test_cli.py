import dataclasses
import io
import json
import os
import subprocess
import sys
import time

import pytest

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


def run_capture(config):
    out = io.StringIO()
    code = run(config, out)
    return code, out.getvalue()


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
        src = os.path.dirname(os.path.dirname(expdens.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "expdens", "density", "--pattern", "1..1",
             "--error", "1e-16"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert time.perf_counter() - start < 1.0
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
            "coeffs", "lower", "upper", "truncation_prime", "mass_deficit", "stability"
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

    def test_series_rejects_exceptions(self, tmp_path):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"default": "1..1", "exceptions": {"2": ""}}))
        code, _ = run_capture(RunConfig("series", spec_path=str(spec)))
        assert code == EXIT_USAGE


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
                (nan,), (nan,), (nan,), P, nan, (nan,)
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


def test_console_entry_point():
    # the child must import the package under test, installed or not
    src = os.path.dirname(os.path.dirname(expdens.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "expdens", "count", "--pattern", "1..1", "--x", "1000",
         "--output", "machine"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 608
