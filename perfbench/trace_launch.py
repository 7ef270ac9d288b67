"""Run one expdens request with layer spans recorded, for the traced benchmark.

    python3 perfbench/trace_launch.py SPANS_JSON REQUEST_ID -m expdens density --pattern 1..1
    python3 perfbench/trace_launch.py SPANS_JSON REQUEST_ID scripts/series_vs_histogram.py ...

behaves like ``python3 -m expdens ...`` (or ``python3 scripts/...``) in a
fresh interpreter, except that the public entry points of each layer are
replaced, at the module bindings their callers look up, by wrappers that
record a span per call.  Spans are kept in memory and written to SPANS_JSON
when the request ends.  No expdens source is changed.

A span is ``[name, layer, start, end, parent, attrs]``; ``parent`` indexes
the enclosing span, or is null for a top-level call.  ``attrs`` holds counts
measured at the boundary: ``calls`` (sieve invocations), ``n`` (primes
produced), ``truncation_prime`` and ``x``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import runpy
import sys
import time

# (module, attribute, layer).  The primes module's own attributes are left
# alone so that sieve_primes -> prime_segments inside primes is one span.
BINDINGS = [
    ("expdens.cli", "parse_pattern", "patterns"),
    ("expdens.cli", "load_spec", "patterns"),
    ("expdens.patterns", "parse_pattern", "patterns"),
    ("expdens.patterns", "load_spec", "patterns"),
    ("expdens.patterns", "sieve_primes", "primes"),
    ("expdens.euler", "prime_segments", "primes"),
    ("expdens.euler", "sieve_primes", "primes"),
    ("expdens.empirical", "sieve_primes", "primes"),
    ("expdens.series", "sieve_primes", "primes"),
    ("expdens.euler", "density", "euler"),
    ("expdens.euler", "closed_form", "euler"),
    ("expdens.euler", "zeta_int", "zeta"),
    ("expdens.euler", "_prime_zeta", "zeta"),
    ("expdens.euler", "prime_sum", "zeta"),
    ("expdens.empirical", "count_pattern", "empirical"),
    ("expdens.empirical", "g_histogram", "empirical"),
    ("expdens.series", "density_series", "series"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = [name, layer, 0.0, 0.0, parent, {}]
        self.spans.append(span)
        span[2] = time.perf_counter()
        return span

    def close(self, span: list, attrs: dict) -> None:
        span[3] = time.perf_counter()
        span[5] = attrs
        self._stack.pop()


def _attrs(result) -> dict:
    attrs = {}
    for key in ("truncation_prime", "x"):
        value = getattr(result, key, None)
        if isinstance(value, int):
            attrs[key] = value
    primes = getattr(result, "primes", None)
    if primes is not None:
        attrs["n"] = len(primes)
    return attrs


def _wrap(tracer: Tracer, fn, name: str, layer: str):
    calls = {"calls": 1} if layer == "primes" else {}

    def traced(*args, **kwargs):
        span = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            # UnreachableTargetError carries the estimate it did reach.
            tracer.close(span, {**calls, **_attrs(getattr(exc, "best", None))})
            raise
        tracer.close(span, {**calls, **_attrs(result)})
        return result

    return traced


def _wrap_generator(tracer: Tracer, fn, name: str, layer: str):
    """Each next() on the returned generator is one span; the first counts a call."""

    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        attrs = {"calls": 1}
        while True:
            span = tracer.open(name, layer)
            try:
                block = next(inner)
            except StopIteration:
                tracer.close(span, attrs)
                return
            except Exception:
                tracer.close(span, attrs)
                raise
            tracer.close(span, {**attrs, "n": len(block)})
            attrs = {}
            yield block

    return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every binding in BINDINGS; returns the ones this expdens lacks."""
    missing = []
    for module_name, attr, layer in BINDINGS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrap = _wrap_generator if inspect.isgeneratorfunction(fn) else _wrap
        setattr(module, attr, wrap(tracer, fn, attr, layer))
    return missing


def main(argv: list[str]) -> None:
    spans_path, request_id, target, *args = argv
    tracer = Tracer()
    missing = install(tracer)
    try:
        if target == "-m":
            module, *args = args
            sys.argv = [module, *args]
            runpy.run_module(module, run_name="__main__", alter_sys=True)
        else:
            sys.argv = [target, *args]
            runpy.run_path(target, run_name="__main__")
    finally:
        with open(spans_path, "w") as f:
            json.dump({"request": int(request_id), "missing": missing,
                       "spans": tracer.spans}, f)


if __name__ == "__main__":
    main(sys.argv[1:])
