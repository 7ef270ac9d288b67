"""expdens benchmark: the real CLI as a closed loop with one client.

    python3 perfbench/run.py [--workload product|oracle|series] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of an expdens checkout.  Without --workload, all three
workloads run in turn.  Each request runs in a fresh interpreter, one at a
time, because users pay for import and cold caches on every call.  A pass
runs every request of the workload once, in an order shuffled by the seed;
passes repeat until --seconds would be exceeded.  Every output is checked
against references.py.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, from untraced
passes only; times are scaled by the machine-speed probe calibrate.py, which
runs before every pass.  --trace 1 alternates untraced passes with traced ones, in
which trace_launch.py records a span per call into each layer, and reports
the per-layer metrics; trace.overhead_s is traced minus untraced wall for
the same request order.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import workloads as wl

LAUNCHER = os.path.join("perfbench", "trace_launch.py")
REQUEST_TIMEOUT_S = 60
# Requests still running this long after the measuring time are killed, so
# that a hung program still ends a 30 s run well within 180 s.
DEADLINE_GRACE_S = 100
SETUP_SAMPLES = 9
# Median time of calibrate.py on the reference machine (2 vCPU x86_64,
# Python 3.11.7, numpy 2.4.6).  The shared machine's speed drifts by 20-40 %
# within half an hour, so end-to-end times are divided by the run's speed
# factor, probe median / this reference, and read as reference seconds.
CALIBRATION_REFERENCE_S = 0.5


@dataclass
class Pass:
    requests: list[wl.Request]
    results: list[wl.Result]
    layers: dict[str, float] | None = None  # traced passes only

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)


class Runner:
    """Launches one request at a time and tallies the outcome of each."""

    def __init__(self, tmpdir: str, seconds: int):
        self.tmpdir = tmpdir
        self.deadline = time.perf_counter() + seconds + DEADLINE_GRACE_S
        self.env = dict(os.environ)
        # Requests import compiled bytecode, as from an installed package.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath("src"), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.failures: list[str] = []

    def launch(self, argv: tuple[str, ...]) -> wl.Result:
        out_path = os.path.join(self.tmpdir, "stdout")
        err_path = os.path.join(self.tmpdir, "stderr")
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            killed = threading.Event()
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    env=self.env)

            def kill():
                killed.set()
                proc.kill()

            timeout = min(REQUEST_TIMEOUT_S, max(self.deadline - start, 1.0))
            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return wl.Result(
                None if killed.is_set() else proc.returncode,
                out.read().decode(errors="replace"),
                err.read().decode(errors="replace"),
                wall,
                usage.ru_maxrss,
            )

    def run(self, request: wl.Request, argv: tuple[str, ...] | None = None) -> wl.Result:
        result = self.launch(argv or request.argv)
        self.attempted += 1
        reason = wl.judge(request, result)
        if reason is not None:
            self.failures.append(f"{request.label}: {reason}")
        return result

    def traced(self, request: wl.Request, request_id: int) -> tuple[wl.Result, dict]:
        spans_path = os.path.join(self.tmpdir, "spans.json")
        result = self.run(request, (LAUNCHER, spans_path, str(request_id), *request.argv))
        try:
            with open(spans_path) as f:
                spans = json.load(f)
            os.remove(spans_path)
        except FileNotFoundError:
            spans = {"request": request_id, "missing": [], "spans": []}
        return result, spans


def layer_metrics(traced: list[tuple[wl.Result, dict]]) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    A span's self time is its duration minus that of its direct children;
    a layer's busy time is the sum of its spans' self times.
    """
    busy: dict[str, float] = defaultdict(float)
    other = 0.0
    calls = produced = series_primes = integers = p_max = 0
    for result, record in traced:
        spans = record["spans"]
        child = [0.0] * len(spans)
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        other += result.wall_s
        for i, (_, layer, start, end, parent, attrs) in enumerate(spans):
            busy[layer] += end - start - child[i]
            if parent is None:
                other -= end - start
            if layer == "primes":
                calls += attrs.get("calls", 0)
                produced += attrs.get("n", 0)
                if parent is not None and spans[parent][1] == "series":
                    series_primes += attrs.get("n", 0)
            elif layer == "euler":
                p_max = max(p_max, attrs.get("truncation_prime", 0))
            elif layer == "empirical":
                integers += attrs.get("x", 0)
    return {
        "cli.other_s": other,
        "patterns.busy_s": busy["patterns"],
        "primes.busy_s": busy["primes"],
        "primes.calls": calls,
        "primes.yield": produced,
        "euler.self_s": busy["euler"],
        "euler.zeta_s": busy["zeta"],
        "euler.truncation_prime_max": p_max,
        "empirical.self_s": busy["empirical"],
        "empirical.ns_per_int": busy["empirical"] * 1e9 / integers if integers else 0.0,
        "series.self_s": busy["series"],
        "series.us_per_prime": busy["series"] * 1e6 / series_primes if series_primes else 0.0,
    }


def run_pass(runner: Runner, requests: list[wl.Request], traced: bool) -> Pass:
    requests = list(requests)
    if not traced:
        return Pass(requests, [runner.run(r) for r in requests])
    pairs = [runner.traced(r, i) for i, r in enumerate(requests)]
    results = [result for result, _ in pairs]
    missing = sorted({m for _, record in pairs for m in record["missing"]})
    if missing:
        print(f"# trace: bindings not found: {', '.join(missing)}")
    return Pass(requests, results, layer_metrics(pairs))


def self_check(first: Pass) -> list[str]:
    """Plant errors in passing outputs; each must be judged a failure."""
    escaped = []
    planted = 0
    for request, result in zip(first.requests, first.results):
        if wl.judge(request, result) is not None:
            continue
        for what, bad in wl.corrupted(result):
            planted += 1
            if wl.judge(request, bad) is None:
                escaped.append(f"{request.label}: {what} passed its check")
    print(f"# self-check: {planted} planted errors, {len(escaped)} undetected")
    return escaped


def machine_context() -> dict:
    digest = hashlib.sha256()
    for top in ("src", "scripts"):
        for base, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    digest.update(path.encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    commit = "unknown"  # the benchmark may run in an export without .git
    if os.path.exists(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def _summary(values: list[float]) -> str:
    return f"median of {len(values)}, min {min(values):.4f}, max {max(values):.4f}"


def bench(name: str, seed: int, seconds: int, trace: bool, spec: dict,
          tmpdir: str) -> dict:
    requests = list(wl.WORKLOADS[name])
    runner = Runner(tmpdir, seconds)
    rng = random.Random(seed)
    print(f"# workload {name}: seed {seed}, {seconds} s, trace {int(trace)}, "
          f"{len(requests)} requests per pass, one client, closed loop")
    print(f"# context {json.dumps(machine_context())}")
    runner.run(wl.IMPORT)  # compiles bytecode so that no timed request does
    values: dict[str, float] = {}
    if not trace:
        setup = [runner.run(wl.IMPORT).wall_s for _ in range(SETUP_SAMPLES)]
        probe = runner.run(wl.BRACKET_PROBE)
        try:
            values["bracket_width"] = wl.bracket_width(probe)
        except (ValueError, LookupError):
            values["bracket_width"] = 1.0  # no proven information

    untraced: list[Pass] = []
    traced: list[Pass] = []
    probes: list[float] = []
    overheads: list[float] = []
    escaped: list[str] = []
    start = time.perf_counter()
    while True:
        rng.shuffle(requests)
        t0 = time.perf_counter()
        if trace:
            # Alternate which side of the pair runs first.
            sides = (False, True) if len(traced) % 2 == 0 else (True, False)
            done = {side: run_pass(runner, requests, side) for side in sides}
            untraced.append(done[False])
            traced.append(done[True])
            overheads.append(done[True].wall_s - done[False].wall_s)
        else:
            probes.append(runner.run(wl.CALIBRATE).wall_s)
            untraced.append(run_pass(runner, requests, False))
        if len(untraced) == 1:
            escaped = self_check(untraced[0])
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - t0) > seconds:
            break

    per_request = defaultdict(list)
    for p in untraced:
        for request, result in zip(p.requests, p.results):
            per_request[request.label].append(result.wall_s)
    for label, walls in sorted(per_request.items()):
        print(f"#   {statistics.median(walls):8.4f} s  {label}")

    failed = len(runner.failures)
    if trace:
        for key in traced[0].layers:
            values[key] = statistics.median(p.layers[key] for p in traced)
        values["trace.overhead_s"] = statistics.median(overheads)
        busy = {k: values[k] for k in ("patterns.busy_s", "primes.busy_s", "euler.self_s",
                                       "euler.zeta_s", "empirical.self_s", "series.self_s")}
        top = max(busy, key=busy.get)
        print("# per-layer figures come from traced passes; end-to-end figures come "
              "only from untraced runs (--trace 0)")
        print(f"# dominant layer self time: {top} = {busy[top]:.4f} s of a "
              f"{statistics.median(p.wall_s for p in traced):.4f} s traced pass")
    else:
        walls = [p.wall_s for p in untraced]
        speed = statistics.median(probes) / CALIBRATION_REFERENCE_S
        values["setup_s"] = statistics.median(setup) / speed
        values["wall_s"] = statistics.median(walls) / speed
        values["peak_rss_mb"] = max(r.maxrss_kb for p in untraced for r in p.results) / 1024
        print(f"{name} speed_factor  {speed:.4f}     (probe {_summary(probes)} s, "
              f"reference {CALIBRATION_REFERENCE_S} s)")
        print(f"{name} setup_s       {values['setup_s']:.4f} s   (raw {_summary(setup)} imports)")
        print(f"{name} wall_s        {values['wall_s']:.4f} s   (raw {_summary(walls)} passes)")
        print(f"{name} fail_frac     {failed / runner.attempted:.4f}   "
              f"({failed} of {runner.attempted} requests)")
        print(f"{name} peak_rss_mb   {values['peak_rss_mb']:.1f} MB")
        print(f"{name} bracket_width {values['bracket_width']:.6e}")
    for line in runner.failures[:10]:
        print(f"# FAILED {line}")
    for line in escaped:
        print(f"# SELF-CHECK {line}")

    kind = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    return {"correct": failed == 0 and not escaped, "attempted": runner.attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    if not (os.path.isfile(os.path.join("src", "expdens", "__init__.py"))
            and os.path.isfile("BENCHMARK.json")):
        print("error: run from the root of an expdens checkout (src/expdens not found)",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=".")
    try:
        for name in names:
            result = bench(name, args.seed, args.seconds, bool(args.trace), spec, tmpdir)
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(tmpdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
