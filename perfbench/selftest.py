"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Shows that every answer check accepts ratrec's real answers and rejects
corrupted ones, that the tracer restores every binding it replaced and
accounts for all of a request's time, and that the benchmark refuses to
run without ratrec's sources.  Prints one line per case; exits 1 if any
case fails.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import calls
import checks
import workloads
from tracer import BENCH, Tracer

HERE = Path(__file__).resolve().parent
FAILURES: list[str] = []


def report(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def bump(p: tuple) -> tuple:
    """The polynomial plus 1."""
    return (p[0] + 1,) + p[1:] if p else (Fraction(1),)


def expect(check, req, answer: dict, corruptions: dict) -> None:
    try:
        check(req, answer)
        report(True, f"{req.kind} request {req.index}: the real answer passes")
    except checks.WrongAnswer as exc:
        report(False, f"{req.kind} request {req.index}: the real answer is refused ({exc})")
    for what, corrupt in corruptions.items():
        bad = dict(answer)
        corrupt(bad)
        try:
            check(req, bad)
            report(False, f"{req.kind} request {req.index}: accepted {what}")
        except checks.WrongAnswer:
            report(True, f"{req.kind} request {req.index}: refuses {what}")


def answer_for(req) -> dict:
    return calls.extract(req.kind, calls.execute(req.kind, calls.prepare(req.kind, req.args)))


def test_gosper_checks() -> None:
    pool = workloads.gosper_pool(random.Random(7))
    summable = next(r for r in pool if r.planted["summable"] and r.args["den"] != (1,))
    nosol = next(r for r in pool if not r.planted["summable"])
    expect(checks.check_gosper, summable, answer_for(summable), {
        "a certificate with a changed coefficient": lambda a: a.update(y_num=bump(a["y_num"])),
        "a no_solution verdict": lambda a: a.update(status="no_solution", code=1),
        "a certificate marked unverified": lambda a: a.update(verified=False),
    })
    expect(checks.check_gosper, nosol, answer_for(nosol), {
        "a certificate for a sum with no antidifference": lambda a: a.update(
            status="ok", code=0, verified=True, y_num=(Fraction(1),), y_den=(Fraction(1),)),
    })


def test_ratsolve_checks() -> None:
    rng = random.Random(7)
    for i in range(3):
        req = workloads.ratsolve_request(rng, i)
        expect(checks.check_ratsolve, req, answer_for(req), {
            # twice a solution of L y = rhs solves L y = 2 rhs, never L y = rhs when rhs != 0
            "twice the particular solution": lambda a: a.update(
                particular=(tuple(2 * c for c in a["particular"][0]), a["particular"][1])),
            "no rational solution": lambda a: a.update(particular=None),
            "a homogeneous solution that is none": lambda a: a.update(
                homogeneous=a["homogeneous"] + [((Fraction(0), Fraction(1)), (Fraction(1),))]),
            "a denominator missing the planted roots": lambda a: a.update(denominator=(Fraction(1),)),
            "a family without the planted solution": lambda a: a.update(
                numerator_particular=bump(a["numerator_particular"])),
        })


def test_denominator_checks() -> None:
    rng = random.Random(7)
    reqs = [workloads.denominators_request(rng, i) for i in range(3)]
    one = (Fraction(1),)
    for req in reqs:
        corruptions = {
            "routes that disagree": lambda a: a.update(abramov=bump(a["abramov"])),
            "three equal denominators missing the planted chain": lambda a: a.update(
                limit=one, universal=one, abramov=one),
            "a dispersion below the planted shift": lambda a: a.update(limit_shift=a["limit_shift"] - 1),
        }
        if req.planted["gp"]:
            corruptions.update({
                "a GP denominator that does not divide Abramov's": lambda a: a.update(
                    gp=(a["gp"][0], a["gp"][1], a["gp"][2] + (Fraction(1),))),
                "a GP representation that breaks the identity": lambda a: a.update(
                    gp=(bump(a["gp"][0]), a["gp"][1], a["gp"][2])),
                "a GP representation reported as failing": lambda a: a.update(gp_ok=False),
            })
        expect(checks.check_denominators, req, answer_for(req), corruptions)


def bindings() -> dict:
    """Every attribute of ratrec's modules and of their classes, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "ratrec" or name.startswith("ratrec."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = id(value)
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = id(cvalue)
    return out


def test_tracer() -> None:
    before = bindings()
    tracer = Tracer()
    tracer.install()
    replaced = sum(1 for k, v in bindings().items() if before.get(k) != v)
    try:
        pool = workloads.gosper_pool(random.Random(7))
        req = pool[0]
        tracer.run_request(0, calls.execute, req.kind, calls.prepare(req.kind, req.args))
        rng = random.Random(7)
        req = workloads.denominators_request(rng, 0)
        tracer.run_request(1, calls.execute, req.kind, calls.prepare(req.kind, req.args))
    finally:
        tracer.uninstall()
    report(replaced > 40, f"tracer replaced {replaced} bindings")
    report(bindings() == before, "tracer restored every binding")
    dur, self_ns = tracer.self_times()
    report(all(s >= 0 for s in self_ns), "every span's self time is nonnegative")
    roots = [i for i in range(len(dur)) if tracer.parent[i] < 0]
    report(all(tracer.span_name(i) == BENCH for i in roots) and len(roots) == 2, "each request has one root span")
    for r, root in enumerate(roots):
        total = sum(s for i, s in enumerate(self_ns) if tracer.request[i] == r)
        report(total == dur[root], f"request {r}: self times add up to the request's duration")
    names = set(tracer.names[n] for n in tracer.name)
    for layer in ("cli.main", "expressions.parse", "polys.gcd", "polys.mul", "dispersion.dispersion",
                  "gcdseq.gcd_limit", "denominators.abramov"):
        report(layer in names, f"spans recorded for {layer}")


def test_refuses_without_sources() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "gosper-cli", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    report(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without ratrec's sources the run exits {proc.returncode} and prints no result")


def main() -> int:
    calls.load_ratrec()
    test_gosper_checks()
    test_ratsolve_checks()
    test_denominator_checks()
    test_tracer()
    test_refuses_without_sources()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
