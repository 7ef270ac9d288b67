#!/usr/bin/env python3
"""Mutation probe of the rounding in ``src/expdens/euler.py``.

Finds the rounding sites of ``euler`` from its AST and makes one one-line
mutation at each:

- a floor division ``a // b`` or floor shift ``a >> b`` becomes a ceiling,
  ``-(-a // b)``, and a ceiling becomes a floor;
- a ``min`` becomes ``max`` and a ``max`` becomes ``min``;
- a charge loses its last term: ``a + c`` or ``a - c`` becomes ``a``, where
  c is an integer, ``len(...)``, ``slack``, ``cut``, ``n`` or ``unit`` (or
  a sum of them), and a count ``k * len(...)`` becomes ``(k - 1) * len(...)``;
- the cut ``_CUT`` is made 2^19 times smaller.

Each mutation is applied to a copy of the tree, and the bracket test files
run against it with ``pytest -x``; the table gives the first test that fails
(the mutation's killer), ``timeout`` or ``SURVIVED``.  The file is not named
``test_*.py``, so pytest does not collect it.  Run from the repository root:

    python3 tests/mutate_euler.py                      # every mutation
    python3 tests/mutate_euler.py --skip test_cli_stdout.py
    python3 tests/mutate_euler.py --list               # the sites alone

One full run takes several minutes on two cores.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TARGET = Path("src/expdens/euler.py")
BRACKET_TESTS = [
    "test_euler.py",
    "test_bracket_audit.py",
    "test_bracket_guard.py",
    "test_cli_stdout.py",
    "test_series.py",
    "test_series_kernel.py",
    "test_acceptance.py",
]
# The functions whose arithmetic rounds an enclosure, and the module-level cut.
# Each must hold a site; tests/test_mutation_probe.py checks this.
ROUNDING = {
    "_ratio", "zeta_int", "_head_poly", "_tail_fixed", "_exp_fixed",
    "_to_float", "_round_out", "_g_series", "_product_at", "_bracketed_product",
    "density",
}
CHARGE_NAMES = {"slack", "cut", "n", "unit"}
# Names that hold a size, a mask or a reported prime, not an end: no mutation.
SHAPE = {"q", "width", "mask", "field", "K", "W", "last", "start", "P"}


def _is_charge(node: ast.expr) -> bool:
    """An integer, len(...), a charge name, or a sum or multiple of them."""
    if isinstance(node, ast.Constant):
        return type(node.value) is int and node.value != 0
    if isinstance(node, ast.Name):
        return node.id in CHARGE_NAMES
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "len"
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mult)):
        return _is_charge(node.left) and _is_charge(node.right)
    return False


def _ceiling_of(node: ast.expr) -> ast.BinOp | None:
    """The floor inside a ceiling -(-a // b) or -(-a >> b), else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = node.operand
        if (isinstance(inner, ast.BinOp) and isinstance(inner.op, (ast.FloorDiv, ast.RShift))
                and isinstance(inner.left, ast.UnaryOp) and isinstance(inner.left.op, ast.USub)):
            return inner
    return None


def _mutants(node: ast.expr, inside_ceiling: set[int]) -> list[tuple[str, ast.expr]]:
    """(kind, replacement) for each mutation of ``node``."""
    out = []
    floor = _ceiling_of(node)
    if floor is not None:
        out.append(("ceil->floor", ast.BinOp(floor.left.operand, floor.op, floor.right)))
    elif (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.FloorDiv, ast.RShift))
            and id(node) not in inside_ceiling):
        neg = ast.UnaryOp(ast.USub(), node.left)
        out.append(("floor->ceil", ast.UnaryOp(ast.USub(), ast.BinOp(neg, node.op, node.right))))
    name = getattr(node, "func", None) and getattr(node.func, "id", None)
    if name in ("min", "max"):
        swapped = copy.copy(node)
        swapped.func = ast.Name("max" if name == "min" else "min", ast.Load())
        out.append((f"{name}->{swapped.func.id}", swapped))
    if not isinstance(node, ast.BinOp):
        return out
    if isinstance(node.op, (ast.Add, ast.Sub)) and _is_charge(node.right):
        out.append(("drop charge", node.left))
    k = node.left
    if (isinstance(node.op, ast.Mult) and isinstance(k, ast.Constant) and type(k.value) is int
            and k.value > 1 and getattr(getattr(node.right, "func", None), "id", None) == "len"):
        out.append(("count - 1", ast.BinOp(ast.Constant(k.value - 1), ast.Mult(), node.right)))
    return out


def find_mutations(source: str) -> list[dict]:
    """Every one-line mutation of ``source``, in source order."""
    tree = ast.parse(source)
    lines = source.splitlines(keepends=True)
    found = []

    def add(where: str, node: ast.expr, kind: str, new: ast.expr) -> None:
        if node.lineno != node.end_lineno:
            return
        line = lines[node.lineno - 1]
        # byte offsets: euler's source is ASCII, so they are character offsets
        text = line[: node.col_offset] + f"({ast.unparse(new)})" + line[node.end_col_offset:]
        found.append({"where": where, "line": node.lineno, "kind": kind,
                      "old": line.strip(), "new": text})

    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name in ROUNDING:
            skip = {id(n) for call in ast.walk(top) if isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "range" for n in ast.walk(call)}
            skip |= {id(n) for sub in ast.walk(top) if isinstance(sub, ast.Subscript)
                     for n in ast.walk(sub.slice)}
            inside_ceiling = {id(f) for n in ast.walk(top) if (f := _ceiling_of(n)) is not None}
            for stmt in ast.walk(top):
                if not isinstance(stmt, (ast.Assign, ast.AugAssign, ast.Return, ast.Expr)):
                    continue
                targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
                names = {n.id for t in targets if t for n in ast.walk(t) if isinstance(n, ast.Name)}
                if names & SHAPE:
                    continue
                for node in ast.walk(stmt.value):
                    if id(node) not in skip:
                        for kind, new in _mutants(node, inside_ceiling):
                            add(top.name, node, kind, new)
        elif (isinstance(top, ast.Assign) and len(top.targets) == 1
                and getattr(top.targets[0], "id", None) == "_CUT"):
            for node in ast.walk(top.value):
                if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
                        and isinstance(node.right, ast.Constant)):
                    smaller = ast.Constant(node.right.value - 19)
                    add("_CUT", node, "cut / 2^19", ast.BinOp(node.left, ast.LShift(), smaller))
    found.sort(key=lambda m: m["line"])
    return found


def run_one(tree: Path, mutation: dict, tests: list[str], timeout: float) -> tuple[str, float]:
    """The first test that fails with ``mutation`` applied to a copy of ``tree``.

    A mutation whose line no longer reads as it did when it was found (the
    file was edited during the run) is refused before anything is copied.
    """
    lines = (tree / TARGET).read_text().splitlines(keepends=True)
    at = mutation["line"] - 1
    if at >= len(lines) or lines[at].strip() != mutation["old"]:
        raise SystemExit(f"{TARGET}:{mutation['line']} no longer reads {mutation['old']!r}:"
                         " the file changed since the run started")
    lines[at] = mutation["new"]
    with tempfile.TemporaryDirectory(prefix="mutate-euler-") as scratch:
        work = Path(scratch) / "tree"
        ignore = shutil.ignore_patterns("__pycache__")
        for part in ("src", "tests", "perfbench", "scripts", "pyproject.toml"):
            if (tree / part).is_dir():
                shutil.copytree(tree / part, work / part, ignore=ignore)
            elif (tree / part).exists():
                shutil.copy(tree / part, work / part)
        (work / TARGET).write_text("".join(lines))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *(f"tests/{name}" for name in tests)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if proc.returncode == 0:
            return "SURVIVED", elapsed
        failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
        return (failed.group(1) if failed else f"exit {proc.returncode}"), elapsed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", type=Path, default=ROOT,
                    help="checkout to mutate (default: this one)")
    ap.add_argument("--skip", action="append", default=[], help="a bracket test file to leave out")
    ap.add_argument("--timeout", type=float, default=180.0, help="seconds per mutation")
    ap.add_argument("--list", action="store_true", help="print the mutations and run nothing")
    args = ap.parse_args()

    mutations = find_mutations((args.tree / TARGET).read_text())
    tests = [name for name in BRACKET_TESTS if name not in args.skip]
    print(f"{len(mutations)} mutations of {TARGET}; tests: {' '.join(tests)}")
    survivors = 0
    for i, m in enumerate(mutations, 1):
        head = f"M{i:<3} {m['where']}:{m['line']} {m['kind']:<12}"
        if args.list:
            print(f"{head} {m['new'].strip()}")
            continue
        killer, elapsed = run_one(args.tree, m, tests, args.timeout)
        survivors += killer == "SURVIVED"
        print(f"{head} {killer}  ({elapsed:.1f} s)\n      {m['new'].strip()}", flush=True)
    if not args.list:
        print(f"{survivors} of {len(mutations)} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
