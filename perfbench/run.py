"""The ratrec benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload gosper-cli --seed 1 --seconds 25 --trace 0

Run from anywhere; ratrec is imported from the `src` directory next to
this one.  The process generates its requests from the seed, sends them to
ratrec one at a time (the next only after the previous one returned), and
checks every answer.  `--seconds` is the time spent inside requests;
generating inputs, checking answers and timing the calibration kernel
(calibrate.py) happen between requests, off the clock.

With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
wraps ratrec's public functions in spans and prints the per-layer metrics
instead (see README.md).  Human-readable lines come first; the last line
of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Callable

import calibrate
import calls
import checks
import workloads
from tracer import BENCH, Tracer

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 11


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    # fixed per workload so that every run reports the same percentile: the highest
    # of 50, 75, 90, 95, 98, 99, 99.9 that keeps ten samples beyond it at 85 % of the
    # request count ratrec reached in 25 s when the benchmark was defined, except on
    # gosper-cli (see README.md)
    tail_percentile: float
    # the resident set is sampled over this many first requests of the stream, about
    # half of what ratrec served in 25 s when the benchmark was defined: the same
    # requests in every run, however fast ratrec is, because the allocator keeps the
    # high-water mark of the costliest request seen so far and more requests would
    # read as more memory
    rss_requests: int
    check: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gosper-cli", "gosper", 95.0, 480, checks.check_gosper),
        Workload("ratsolve-planted", "ratsolve", 95.0, 180, checks.check_ratsolve),
        Workload("denominators-wide", "denominators", 75.0, 60, checks.check_denominators),
    )
}


class Stream:
    """The workload's requests in order.

    A request is kept only with `keep` (a traced run replays them);
    otherwise the client releases each one once it is served and checked,
    so that the memory a run holds does not grow with the number of
    requests served.  Pool entries stay in the pool.
    """

    def __init__(self, workload: Workload, seed: int, keep: bool = False):
        rng = random.Random(seed)
        self.keep = keep
        self.seen: dict[int, workloads.Request] = {}
        self.pool: list[workloads.Request] | None = None
        if workload.kind == "gosper":
            self.pool = workloads.gosper_pool(rng)
            self._source = (self.pool[i] for i in workloads.zipf_stream(rng, len(self.pool)))
        elif workload.kind == "ratsolve":
            self._source = (workloads.ratsolve_request(rng, i) for i in count())
        else:
            self._source = (workloads.denominators_request(rng, i) for i in count())
        self._generated = 0

    def setup_requests(self, count: int) -> list[workloads.Request]:
        """First requests for fresh processes: the most popular pool entries,
        or the first requests of the stream."""
        return self.pool[:count] if self.pool is not None else [self.get(i) for i in range(count)]

    def get(self, i: int) -> workloads.Request:
        while self._generated <= i:
            self.seen[self._generated] = next(self._source)
            self._generated += 1
        return self.seen[i]

    def release(self, i: int) -> None:
        if not self.keep:
            del self.seen[i]


class Inputs:
    """The measured input properties, counted as requests are served."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.count = 0
        self.pool_seen: set[int] = set()
        self.repeats = 0
        self.no_solution = 0
        self.props: dict[str, Counter] = {}

    def add(self, req: workloads.Request) -> None:
        self.count += 1
        if self.workload.kind == "gosper":
            self.repeats += req.index in self.pool_seen
            self.pool_seen.add(req.index)
            self.no_solution += not req.planted["summable"]
        for key, value in req.props.items():
            self.props.setdefault(key, Counter())[value] += 1

    def report(self) -> None:
        distinct = len(self.pool_seen) if self.workload.kind == "gosper" else self.count
        print(f"inputs: {self.count} requests, {distinct} distinct")
        if self.workload.kind == "gosper":
            print(f"inputs: repeat share {self.repeats / self.count:.4f}, "
                  f"no-solution share {self.no_solution / self.count:.4f}")
        for key, c in self.props.items():
            print(f"inputs: {key} distribution " + " ".join(f"{k}:{c[k]}" for k in sorted(c)))


class Client:
    """Sends requests, times them, and checks every answer.

    A calibrated client also times the calibration kernel between requests;
    `scaled` then gives each latency at the reference machine speed.
    """

    def __init__(self, workload: Workload, stream: Stream, calibrated: bool = False):
        self.workload = workload
        self.stream = stream
        self.calibrated = calibrated
        # arrays of doubles, so that a longer run grows the process by 8 bytes a request
        self.kernels = array("d", [calibrate.kernel_time()] if calibrated else [])
        self.latencies = array("d")
        self.peak_rss = 0
        self.inputs = Inputs(workload)
        self.failed = 0
        self.failures: list[str] = []

    def serve(self, i: int, run: Callable) -> None:
        req = self.stream.get(i)
        kind = self.workload.kind
        prepared = calls.prepare(kind, req.args)
        start = time.perf_counter()
        try:
            raw = run(calls.execute, kind, prepared)
        except Exception as exc:  # a request that raises is a failed request
            self._timed(req, time.perf_counter() - start)
            self._fail(req, f"raised {type(exc).__name__}: {exc}")
        else:
            self._timed(req, time.perf_counter() - start)
            self.verify(req, calls.extract(kind, raw))
        self.stream.release(i)

    def _timed(self, req: workloads.Request, elapsed: float) -> None:
        self.latencies.append(elapsed)
        self.inputs.add(req)
        if len(self.latencies) <= self.workload.rss_requests:
            self.peak_rss = max(self.peak_rss, resident_bytes())
        if self.calibrated:
            self.kernels.append(calibrate.kernel_time())

    def scaled(self) -> list[float]:
        """Latencies at the reference speed.  Request i ran between kernel
        timings i and i + 1; the machine's speed for it is the median kernel
        time over the ten timings around it, which follows slow spells of a
        second or more but not the jitter of a single timing."""
        k = self.kernels
        return [
            t * calibrate.REFERENCE_S / statistics.median(k[max(0, i - 4):i + 6])
            for i, t in enumerate(self.latencies)
        ]

    def verify(self, req: workloads.Request, answer: dict) -> None:
        try:
            self.workload.check(req, answer)
        except checks.WrongAnswer as exc:
            self._fail(req, f"wrong answer: {exc}")

    def _fail(self, req: workloads.Request, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"request {req.index}: {message}")

    def loop(self, seconds: float, run: Callable, first: int = 0, limit: int | None = None) -> int:
        """Closed loop from request `first` until `seconds` of request time, at the
        reference speed when calibrated, so that a run does the same work on a slow
        machine as on a fast one; returns the count."""
        busy = 0.0
        i = first
        while busy < seconds and (limit is None or i < first + limit):
            self.serve(i, run)
            busy += self.latencies[-1]
            if self.calibrated:
                busy -= self.latencies[-1] * (1 - calibrate.REFERENCE_S / statistics.median(self.kernels[-5:]))
            i += 1
        return i - first


_PAGE = os.sysconf("SC_PAGE_SIZE")


def resident_bytes() -> int:
    """This process's resident set size now."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE


def direct(fn, *args):
    return fn(*args)


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


# -- set-up time -----------------------------------------------------------------


def setup_probe(workload: Workload, req: workloads.Request) -> tuple[float, float, dict]:
    """A fresh process imports ratrec and serves one request; returns its time,
    the calibration kernel's time in that process, and the answer."""
    spec = json.dumps({"kind": workload.kind, "args": calls.to_wire(req.args)})
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py")],
        input=spec, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["kernel_s"], calls.from_wire(out["answer"])


def measure_setup(workload: Workload, client: Client, stream: Stream) -> tuple[list[float], list[float]]:
    """Raw and calibrated set-up times of SETUP_PROBES fresh processes, each
    serving a different first request, so that their median depends little
    on how costly one particular request is."""
    reqs = stream.setup_requests(SETUP_PROBES)
    setup_probe(workload, reqs[0])  # fills the bytecode and file caches
    raw, scaled = [], []
    for req in reqs:
        elapsed, kernel_s, answer = setup_probe(workload, req)
        raw.append(elapsed)
        scaled.append(elapsed * calibrate.REFERENCE_S / kernel_s)
        client.verify(req, answer)
    return raw, scaled


# -- the two kinds of run ------------------------------------------------------------


def run_untraced(workload: Workload, stream: Stream, seconds: float) -> tuple[Client, dict]:
    setup_client = Client(workload, stream)
    setup_raw, setup_scaled = measure_setup(workload, setup_client, stream)
    client = Client(workload, stream, calibrated=True)
    client.loop(seconds, direct)
    done = len(client.latencies) - client.failed
    client.failed += setup_client.failed
    client.failures += setup_client.failures

    def summary(latencies: list[float], setup: list[float]) -> dict:
        lat = sorted(latencies)
        return {
            "throughput_ops": (done / sum(lat), "ops/s"),
            "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "latency_tail_ms": (1e3 * percentile(lat, workload.tail_percentile)[0], "ms"),
            "setup_s": (statistics.median(setup), "s"),
        }

    scaled = client.scaled()
    metrics = summary(scaled, setup_scaled)
    metrics["peak_rss_mb"] = (client.peak_rss / 2**20, "MB")
    client.inputs.report()
    n = len(client.latencies)
    print(f"requests: {n} timed over {sum(client.latencies):.3f} s of request time, "
          f"plus {len(setup_raw)} set-up probes (+1 warm-up) in fresh processes")
    print(f"latency_tail_ms is p{workload.tail_percentile:g} of {n} samples, "
          f"{percentile(scaled, workload.tail_percentile)[1]} beyond it")
    speed = sum(client.latencies) / sum(scaled)
    print(f"calibration: requests ran at {speed:.3f}x the reference time on average; "
          f"uncalibrated: " + ", ".join(f"{k} = {v:.6g} {u}" for k, (v, u) in summary(client.latencies, setup_raw).items()))
    print(f"setup_s samples (uncalibrated): {', '.join(f'{t:.4f}' for t in setup_raw)}")
    print(f"resident set: {client.peak_rss / 2**20:.2f} MB at most between the first "
          f"{min(n, workload.rss_requests)} requests, "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.2f} MB at the peak inside one")
    attempted = n + len(setup_raw)
    print(f"failed_share = {client.failed}/{attempted} = {client.failed / attempted:.6f}")
    return client, metrics


PER_REQUEST_MS = {
    "bench.self_ms": BENCH,
    "cli.self_ms": "cli.main",
    "expressions.parse_ms": "expressions.parse",
    "expressions.format_ms": "expressions.format",
    "pipelines.gosper_ms": "pipelines.gosper",
    "pipelines.rational_solve_ms": "pipelines.rational_solve",
    "pipelines.verify_ms": "pipelines.verify",
    "recurrences.poly_solutions_ms": "recurrences.poly_solutions",
    "linalg.solve_ms": "linalg.solve",
    "gcdseq.gcd_limit_ms": "gcdseq.gcd_limit",
    "gcdseq.universal_denominator_ms": "gcdseq.universal_denominator",
    "denominators.abramov_ms": "denominators.abramov",
    "denominators.gp_ms": "denominators.gp",
    "denominators.check_ms": "denominators.check",
    "dispersion.self_ms": "dispersion.dispersion",
    "dispersion.resultant_ms": "dispersion.resultant",
    "dispersion.integer_roots_ms": "dispersion.integer_roots",
    "polys.gcd_ms": "polys.gcd",
    "polys.shift_ms": "polys.shift",
    "polys.mul_ms": "polys.mul",
    "polys.divrem_ms": "polys.divrem",
    "polys.falling_product_ms": "polys.falling_product",
    "intutil.factorize_ms": "intutil.factorize",
}
PER_REQUEST_CALLS = {
    "dispersion.calls": "dispersion.dispersion",
    "dispersion.resultant_calls": "dispersion.resultant",
    "polys.gcd_calls": "polys.gcd",
    "polys.shift_calls": "polys.shift",
    "polys.mul_calls": "polys.mul",
    "intutil.factorize_calls": "intutil.factorize",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, requests: int) -> dict:
    """Per-request self times and counts from the spans, and ratios read at the boundaries."""
    _, self_ns = tracer.self_times()
    by_name: Counter = Counter()
    calls_by_name: Counter = Counter()
    parse_id = tracer.name_id("expressions.parse")
    outer_parses = 0
    for i, nid in enumerate(tracer.name):
        by_name[nid] += self_ns[i]
        calls_by_name[nid] += 1
        if nid == parse_id:
            p = tracer.parent[i]
            outer_parses += p < 0 or tracer.name[p] != parse_id
    c = tracer.counts
    metrics = {}
    for metric, span in PER_REQUEST_MS.items():
        metrics[metric] = (by_name[tracer.name_id(span)] / 1e6 / requests, "ms")
    for metric, span in PER_REQUEST_CALLS.items():
        metrics[metric] = (calls_by_name[tracer.name_id(span)] / requests, "count")
    gcd_calls = calls_by_name[tracer.name_id("polys.gcd")]
    metrics.update({
        "expressions.parse_calls": (outer_parses / requests, "count"),
        "recurrences.degree_bound_mean": (
            _ratio(c["recurrences.degree_bound_sum"], c["recurrences.degree_bound"]), "count"),
        "linalg.cells": (c["linalg.cells"] / requests, "count"),
        "gcdseq.trace_len": (_ratio(c["gcdseq.trace_len_sum"], calls_by_name[tracer.name_id("gcdseq.gcd_limit")]),
                             "count"),
        "denominators.useful_step_ratio": (_ratio(c["denominators.useful_steps"], c["denominators.steps"]), "ratio"),
        "dispersion.root_hit_ratio": (_ratio(c["dispersion.witnesses"], c["dispersion.candidate_roots"]), "ratio"),
        "polys.gcd_primes_per_call": (_ratio(c["polys.gcd_primes"], gcd_calls), "count"),
        "intutil.prime_tests": (c["intutil.prime_tests"] / requests, "count"),
    })
    print(f"bases: {c['denominators.useful_steps']}/{c['denominators.steps']} useful reduction steps, "
          f"{c['dispersion.witnesses']}/{c['dispersion.candidate_roots']} verified dispersion roots, "
          f"{c['polys.gcd_primes']} primes over {gcd_calls} gcds, {requests} traced requests")
    return metrics


def run_traced(workload: Workload, stream: Stream, seconds: float) -> tuple[Client, dict]:
    """Two thirds of the time traced; then the same requests again untraced, for the
    overhead.  Both phases are calibrated, so a slow spell in one does not read as overhead."""
    client = Client(workload, stream, calibrated=True)
    tracer = Tracer()
    tracer.install()
    try:
        traced = client.loop(2 * seconds / 3, lambda fn, *a: tracer.run_request(len(client.latencies), fn, *a))
    finally:
        tracer.uninstall()
    replay = Client(workload, stream, calibrated=True)
    replayed = replay.loop(seconds / 3, direct, limit=traced)
    traced_rate = replayed / sum(client.scaled()[:replayed])
    untraced_rate = replayed / sum(replay.scaled())
    metrics = layer_metrics(tracer, traced)
    metrics.update({
        "trace.traced_throughput_ops": (traced_rate, "ops/s"),
        "trace.untraced_throughput_ops": (untraced_rate, "ops/s"),
        "trace.overhead_x": (untraced_rate / traced_rate, "ratio"),
    })
    client.failed += replay.failed
    client.failures += replay.failures
    client.latencies += replay.latencies
    client.inputs.report()
    print(f"requests: {traced} traced, then the first {replayed} again untraced; "
          f"throughput {traced_rate:.4g} traced vs {untraced_rate:.4g} untraced ops/s")
    out = HERE / "out" / f"spans-{workload.name}"
    tracer.write(out)
    print(f"spans: {len(tracer.name)} written to {out.relative_to(HERE.parent)}.json/.bin")
    return client, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    calls.load_ratrec()
    workload = WORKLOADS[args.workload]
    stream = Stream(workload, args.seed, keep=bool(args.trace))
    run = run_traced if args.trace else run_untraced
    client, metrics = run(workload, stream, args.seconds)
    for message in client.failures:
        print(f"failure: {message}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    attempted = len(client.latencies) + (0 if args.trace else SETUP_PROBES)
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
