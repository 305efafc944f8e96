"""Steadiness check: run each workload repeatedly and compare the spread to the bounds.

    python3 perfbench/steady.py [--save FILE] [--baseline FILE]

Runs every workload in BENCHMARK.json ten times, each a fresh `run.py`
process with its own seed (1 to 10) and BENCHMARK.json's run_seconds, one
after another.  For every end-to-end metric it prints the median, the
quartiles (Python's statistics.quantiles with n=4) and the spread
(q3 - q1) / median, and says whether the spread fits within the metric's
bound from BENCHMARK.json.  With --baseline, the medians are also compared
with an earlier --save: two sets agree on a metric when their medians
differ by at most its bound, in either direction.  Exits 1 if any run
failed or any check did not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=False, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", type=Path, help="write every run's metrics here as JSON")
    parser.add_argument("--baseline", type=Path, help="compare medians with a file written by --save")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    baseline = json.loads(args.baseline.read_text()) if args.baseline else None
    results: dict[str, list[dict]] = {}
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        results[name] = []
        for seed in range(1, RUNS + 1):
            start = time.monotonic()
            out = run_once(name, seed, seconds)
            results[name].append(out)
            ok &= out["correct"] and out["failed"] == 0
            print(f"{name} seed {seed}: correct={out['correct']} attempted={out['attempted']} "
                  f"failed={out['failed']} wall={time.monotonic() - start:.1f}s", flush=True)
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results[name]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            fits = spread <= metric["bound"]
            line = (f"{name} {metric['name']}: median {median:.6g} {metric['unit']}, q1 {q1:.6g}, q3 {q3:.6g}, "
                    f"spread {spread:.4f} vs bound {metric['bound']} ({spread / metric['bound']:.2f} of it) "
                    f"{'fits' if fits else 'DOES NOT FIT'}")
            if baseline is not None:
                base = [r["metrics"][metric["name"]]["value"] for r in baseline[name]]
                base_median = statistics.quantiles(base, n=4)[1]
                change = (median - base_median) / base_median
                held = abs(change) <= metric["bound"]
                fits &= held
                line += f"; vs baseline median {base_median:.6g}: {change:+.4f} {'agrees' if held else 'DIFFERS'}"
            ok &= fits
            print(line, flush=True)
    if args.save:
        args.save.write_text(json.dumps(results))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
