"""The package loads lazily: its names resolve on demand, no module of it
imports numpy or fractions, no request loads dataclasses or inspect, no
request loads fractions, the requests that need no JSON load none, the oracle
requests load no typing, and no benchmark request loads argparse, gettext or
locale.
The command-line entry points freeze the start-up heap; a library import
or an in-process ``cli.main`` call leaves gc alone."""

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import expdens

SRC = Path(__file__).resolve().parents[1] / "src"

# Every public name the package exported when it imported all submodules eagerly.
EXPORTED = [
    "BoundedValue", "ComparisonReport", "CountReport", "DensityEstimate",
    "DensitySeries", "DivergentWeightError", "ExponentPattern",
    "ExponentWeight", "GHistogram", "LocalFactor", "PatternSyntaxError",
    "PrimeAwarePattern", "PrimeTable",
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


WATCHED = ("argparse", "dataclasses", "fractions", "gettext", "inspect", "json", "locale",
           "numpy", "typing")
SPEC = "perfbench/odd_squarefree.json"
X = "10000000"
# The benchmark's CLI requests; spec paths are relative to the repository root.
BENCHMARK_REQUESTS = [
    ["density", "--pattern", "1..1", "--error", "1e-9"],
    ["density", "--pattern", "1..1", "--error", "1e-12"],
    ["density", "--pattern", "1..1,3..inf", "--error", "1e-8"],
    ["density", "--pattern", "1..2", "--error", "1e-9"],
    ["density", "--spec", SPEC],
    ["examples"],
    ["density", "--pattern", "1..1", "--truncation", "100000", "--output", "machine"],
    ["count", "--pattern", "1..2", "--x", X],
    ["verify", "--pattern", "1..1,3..inf", "--x", X],
    ["count", "--spec", SPEC, "--x", X],
    ["series", "--weight", "delta", "--degree", "8", "--truncation", "1000000"],
    ["series", "--pattern", "1..2", "--degree", "16", "--truncation", "1000000"],
    ["series", "--pattern", "1..1", "--degree", "8"],
]


def _run(code: str, *options: str) -> tuple[str, set[str]]:
    """The stdout of ``code`` in a fresh interpreter started with ``options``,
    and which WATCHED modules it loaded."""
    report = f"\nimport sys\nprint('|' + ','.join(m for m in {WATCHED!r} if m in sys.modules))"
    out = subprocess.run(
        [sys.executable, *options, "-c", code + report],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.returncode == 0, out.stderr
    text, _, loaded = out.stdout.rstrip("\n").rpartition("\n")
    assert loaded.startswith("|"), out.stdout
    return text, set(filter(None, loaded[1:].split(",")))


def _loads_numpy(code: str) -> bool:
    return "numpy" in _run(code)[1]


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
        "try:\n"
        f"    runpy.run_path({script!r}, run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code in (0, None), exc.code\n"
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


@pytest.mark.parametrize("argv", [
    ["density", "--pattern", "1..1"],
    ["series", "--weight", "delta", "--degree", "8", "--truncation", "1000000"],
    ["series", "--pattern", "1..2", "--degree", "16", "--truncation", "1000000"],
    ["series", "--pattern", "1..1", "--degree", "8"],
    ["examples"],
])
def test_command_leaves_fractions_and_json_out(argv):
    assert not _run(_command(argv))[1] & {"fractions", "json"}


@pytest.mark.parametrize("argv, module", [
    (["density", "--pattern", "1..1", "--output", "machine"], "json"),
])
def test_fractions_and_json_load_where_used(argv, module):
    # positive control: machine output needs json
    assert module in _run(_command(argv))[1]


def test_fractions_import_is_detected():
    # positive control: the same check sees fractions when the code imports it
    assert "fractions" in _run("import fractions")[1]


def test_series_script_leaves_numpy_out():
    argv = ["--weight", "delta", "--x", "10000000"]
    assert not _loads_numpy(_script("scripts/series_vs_histogram.py", argv))


@pytest.mark.parametrize("argv", BENCHMARK_REQUESTS, ids=" ".join)
def test_benchmark_request_leaves_dataclasses_and_inspect_out(argv):
    argv = [str(SRC.parent / a) if a == SPEC else a for a in argv]
    assert not _run(_command(argv))[1] & {"dataclasses", "inspect"}


def test_series_script_leaves_dataclasses_and_inspect_out():
    argv = ["--weight", "delta", "--x", X]
    loaded = _run(_script("scripts/series_vs_histogram.py", argv))[1]
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
def test_dataclasses_and_inspect_imports_are_detected(module):
    # positive control: the same check sees each module when the code imports it
    assert module in _run(f"import {module}")[1]


@pytest.mark.parametrize("argv", [
    ["count", "--pattern", "1..2", "--x", "1000000"],
    ["verify", "--pattern", "1..1,3..inf", "--x", "1000000"],
])
def test_oracle_request_leaves_typing_out(argv):
    # -S skips site, whose .pth files may import typing on their own
    assert "typing" not in _run(_command(argv), "-S")[1]


def test_typing_import_is_detected():
    # positive control: the same check under -S sees typing when the code imports it
    assert "typing" in _run("import typing", "-S")[1]


ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv", BENCHMARK_REQUESTS, ids=" ".join)
def test_benchmark_request_leaves_argparse_out(argv):
    # -S skips site, whose .pth files may import these modules on their own
    argv = [str(SRC.parent / a) if a == SPEC else a for a in argv]
    assert not _run(_command(argv), "-S")[1] & ARGPARSE


def test_series_script_leaves_argparse_out():
    code = _script("scripts/series_vs_histogram.py", ["--weight", "delta", "--x", X])
    assert not _run(code, "-S")[1] & ARGPARSE


@pytest.mark.parametrize("module", sorted(ARGPARSE))
def test_argparse_imports_are_detected(module):
    # positive control: the same check under -S sees each module when the code imports it
    assert module in _run(f"import {module}", "-S")[1]


def _loads(code: str, module: str) -> bool:
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint({module!r} in sys.modules)"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()[-1] == "True"


def test_empirical_leaves_euler_out():
    # the oracle checks the product; nothing of it imports the product code
    assert not _loads("import expdens.empirical", "expdens.euler")


def test_euler_leaves_series_out():
    # the engine serves the series module, so euler imports nothing back from it
    imported = []
    for node in ast.walk(ast.parse((SRC / "expdens" / "euler.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.name for alias in node.names]
    assert not [name for name in imported if name.split(".")[-1] == "series"], imported


def test_euler_import_is_detected():
    # positive control: the same check sees euler where the code imports it
    assert _loads("import expdens.series", "expdens.euler")


def test_import_leaves_numpy_out():
    assert not _loads_numpy("import expdens")


def test_numpy_import_is_detected():
    # positive control: the same check sees numpy when the code imports it
    assert _loads_numpy("import numpy")


def test_count_with_every_prime_flipped(tmp_path):
    # every prime to 1e7 forbids exponent 1 over squarefree: only n = 1 is
    # left, and the quotient table answers in pure Python
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"default": "1..1", "exceptions": {"p<=10000000": ""}}))
    out, loaded = _run(_command(["count", "--spec", str(spec), "--x", "10000000"]))
    assert "count=1" in out.split()
    assert "numpy" not in loaded


def test_count_sieves_a_range_only_to_x(tmp_path):
    # "p<=1e8" at x = 10: the range is sieved to 10, not to 1e8, and only
    # n = 1 is left
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"default": "1..1", "exceptions": {"p<=100000000": ""}}))
    start = time.perf_counter()
    out, _ = _run(_command(["count", "--spec", str(spec), "--x", "10"]))
    assert time.perf_counter() - start < 0.5
    assert "count=1" in out.split()


def _imported_modules(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
    return [n.split(".")[0] for n in names]


def test_no_module_imports_numpy():
    for path in sorted((SRC / "expdens").glob("*.py")):
        assert "numpy" not in _imported_modules(path), path


def test_no_module_imports_fractions():
    # the zeta constants are engine quotients, so no exact-rational code is left
    for path in sorted((SRC / "expdens").glob("*.py")):
        assert "fractions" not in _imported_modules(path), path


def _attributes_read(path: Path) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}


def test_only_patterns_reads_intervals():
    # a pattern is one boundary list from parse to engine: no other module
    # reads the (lo, hi) pairs view of it
    for path in sorted((SRC / "expdens").glob("*.py")):
        if path.name != "patterns.py":
            assert "intervals" not in _attributes_read(path), path


def test_only_series_reads_weight_pieces():
    # a weight's (lo, slope, offset) triples stay behind the series module
    for path in sorted((SRC / "expdens").glob("*.py")):
        if path.name != "series.py":
            assert "pieces" not in _attributes_read(path), path


def test_only_patterns_names_the_prime_range():
    # every other module reads exceptional primes through PrimeAwarePattern.runs
    for path in sorted((SRC / "expdens").glob("*.py")):
        if path.name == "patterns.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = (getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None))
            assert "_PrimeRange" not in names, path


def test_engine_reads_a_factor_by_its_rows_alone():
    # the product engine takes each local factor as exponent rows only and
    # builds its quotients itself; a weight callable describes factors to the
    # oracle, never to the engine, and no caller passes a quotient builder
    trees = {path.stem: ast.parse(path.read_text()) for path in (SRC / "expdens").glob("*.py")}
    imported = [alias.name for node in ast.walk(trees["euler"])
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert "contains" not in imported
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                passed = [*node.args, *(kw.value for kw in node.keywords)]
                assert name not in ("euler", "series") or not any(
                    isinstance(a, ast.Attribute) and a.attr == "weight" for a in passed
                ), (name, node.lineno)
                callee = getattr(node.func, "attr", getattr(node.func, "id", None))
                if callee == "_bracketed_product":
                    assert not any(isinstance(a, ast.Lambda) for a in passed), (name, node.lineno)
                # the quotient format has one owner
                assert not (name == "series" and callee == "_delta_quotients"), node.lineno
    (engine,) = [node for node in ast.walk(trees["euler"])
                 if isinstance(node, ast.FunctionDef) and node.name == "_bracketed_product"]
    params = engine.args
    assert [a.arg for a in params.posonlyargs + params.args] == ["exps"]
    assert not (params.vararg or params.kwonlyargs or params.kwarg)
    # the engine encloses the product alone, and one step per caller kind
    # rounds an enclosure: _publish for every estimate, density_series for a
    # series
    functions = {(name, node.name): node for name, tree in trees.items()
                 for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert ("euler", "_estimate") not in functions

    def round_outs(tree):
        return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "_round_out"]

    owners = [len(round_outs(functions[key])) for key in
              (("euler", "_publish"), ("series", "density_series"))]
    assert all(owners)
    assert sum(owners) == sum(len(round_outs(tree)) for tree in trees.values())


def test_numpy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    assert not any(dep.startswith("numpy") for dep in project["dependencies"])
    assert any(dep.startswith("numpy") for dep in project["optional-dependencies"]["test"])


def _freeze_count(code: str) -> int:
    """gc.get_freeze_count() after ``code`` in a fresh interpreter."""
    return int(_run(code + "\nimport gc\nprint(gc.get_freeze_count())")[0].split()[-1])


def test_command_freezes_the_startup_heap():
    assert _freeze_count(_command(["density", "--pattern", "1..1"])) > 0


def test_console_script_freezes_the_startup_heap():
    # the installed ``expdens`` command imports its target and exits with
    # what it returns, as this does
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    module, name = project["scripts"]["expdens"].split(":")
    code = (
        "import sys\n"
        f"from {module} import {name} as entry\n"
        "sys.argv = ['expdens', 'density', '--pattern', '1..1']\n"
        "try:\n"
        "    sys.exit(entry())\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )
    assert _freeze_count(code) > 0


@pytest.mark.parametrize("path, argv", [
    ("scripts/series_vs_histogram.py", ["--weight", "delta", "--x", "1000"]),
    ("scripts/convergence_study.py", ["--max-x", "1000"]),
])
def test_script_freezes_the_startup_heap(path, argv):
    assert _freeze_count(_script(path, argv)) > 0


@pytest.mark.parametrize("code", [
    "import expdens",
    "import expdens.__main__",
    "from expdens import cli\nassert cli.main(['density', '--pattern', '1..1']) == 0",
])
def test_library_use_leaves_gc_alone(code):
    assert _freeze_count(code) == 0


def test_traced_request_still_writes_its_spans(tmp_path):
    # the tracer runs __main__ through runpy and writes the spans in a finally
    # block, which the entry point's freeze must leave to run
    spans = tmp_path / "spans.json"
    out = subprocess.run(
        [sys.executable, "perfbench/trace_launch.py", str(spans), "7",
         "-m", "expdens", "density", "--pattern", "1..1"],
        cwd=SRC.parent, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("density  value=")
    record = json.loads(spans.read_text())
    assert record["request"] == 7 and record["missing"] == []
    assert ["density", "euler"] in [span[:2] for span in record["spans"]]
