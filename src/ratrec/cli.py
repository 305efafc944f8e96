"""Command-line interface.

Commands: dispersion, denominator, gosper, gp-rep, ratsolve, verify.
Results go to stdout, diagnostics to stderr.  Exit codes: 0 on success,
1 for "no solution" / failed-verification outcomes, 2 for an input error,
which is a `ratrec.InputError` (syntax errors included) or a --file that
cannot be read, and 3 for every other exception that escapes a command (a
fault in ratrec; its traceback goes to stderr).  A reader that closes
stdout early does not change the exit code.
With --json, stdout carries a single envelope
{"status": "ok"|"no_solution"|"error", "command": ..., "result": ...}.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback

from .denominators import abramov_reduce, check_gp_rep, gp_rep_from_trace, gp_reduce
from .dispersion import dispersion
from .expressions import MAX_DEGREE, parse_poly, parse_ratfunc
from .gcdseq import _check_pair, gcd_limit
from .pipelines import gosper, rational_solve, verify_gosper, verify_rational
from .polys import InputError, Poly, RatFunc
from .recurrences import LinearRecurrence


def _poly_json(p: Poly) -> dict:
    return {
        "pretty": str(p),
        "coeffs": [f"{c.numerator}/{c.denominator}" for c in p.coeffs],
    }


def _ratfunc_json(r: RatFunc) -> dict:
    num, den = _poly_json(r.num), _poly_json(r.den)
    # str(r), from the strings just made
    pretty = num["pretty"] if r.den == Poly.one() else f"({num['pretty']})/({den['pretty']})"
    return {"pretty": pretty, "num": num, "den": den}


def _inputs(args, names: list[str], coeffs: bool = False) -> list:
    """A command's expression strings in the order of `names`, after the
    list of --coeffs strings when `coeffs` is set: from the arguments, or
    one a line from --file, which excludes the arguments (--rhs has a
    default, so it never counts as given).  In a file the coefficients are
    the lines before the last len(names)."""
    labels = (["coeffs"] if coeffs else []) + names
    values = [getattr(args, label) for label in labels]
    if args.file is None:
        missing = [label for label, value in zip(labels, values) if value is None]
        if missing:
            raise InputError(f"missing expression argument(s): {', '.join(missing)} (or use --file)")
        return values
    given = [label for label, value in zip(labels, values) if value is not None and label != "rhs"]
    if given:
        raise InputError(f"--file excludes the expression arguments, got: {', '.join(given)}")
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise InputError(f"--file is not UTF-8 text: {exc}") from None
    extra = len(lines) - len(names)
    if extra < 0 or (extra and not coeffs):
        after = " after the coefficients" if coeffs else ""
        raise InputError(f"--file needs {len(names)} expression line(s){after}, got {len(lines)}")
    return [lines[:extra], *lines[extra:]] if coeffs else lines


def _cmd_dispersion(args) -> tuple[int, dict, list[str]]:
    first, second = _inputs(args, ["first", "second"])
    result = dispersion(parse_poly(first), parse_poly(second))
    witnesses = [{"shift": k, "gcd": _poly_json(g)} for k, g in result.witnesses]
    lines = [f"dispersion = {result.value}"]
    if args.verbose:
        lines.extend(f"shift {w['shift']}: common factor {w['gcd']['pretty']}" for w in witnesses)
    return 0, {"value": result.value, "witnesses": witnesses}, lines


def _cmd_denominator(args) -> tuple[int, dict, list[str]]:
    p0, pd = (parse_poly(text) for text in _inputs(args, ["trailing", "leading"]))
    if args.order > MAX_DEGREE:
        raise InputError(f"--order must be at most {MAX_DEGREE}")
    if args.method == "explicit":
        result = gcd_limit(p0, pd, args.order)
        denominator, steps = result.limit, result.trace
        labels = [f"gcd sequence [{i}]" for i in range(1, len(steps) + 1)]
    elif args.method == "abramov":
        result = abramov_reduce(p0, pd, args.order)
        denominator, steps = result.denominator, result.step_gcds
        labels = [f"extracted at shift {i}" for i in range(result.max_shift, -1, -1)]
    else:  # gp
        if args.order != 1:
            raise InputError("--method gp applies only to --order 1")
        _check_pair(p0, pd, args.order)
        ratio = RatFunc.reduced(pd, p0)
        result = gp_reduce(ratio.num, ratio.den)
        denominator, steps = result.denominator, result.step_gcds
        labels = [f"extracted at shift {i}" for i in range(1, len(steps) + 1)]
    payload: dict = {"order": args.order, "method": args.method, "max_shift": result.max_shift}
    if args.verbose:
        payload["trace"] = [_poly_json(g) for g in steps]
    payload["denominator"] = _poly_json(denominator)
    lines = [f"denominator = {payload['denominator']['pretty']}"]
    if args.verbose:
        lines.append(f"max shift = {result.max_shift}")
        lines.extend(f"{label}: {g['pretty']}" for label, g in zip(labels, payload["trace"]))
    return 0, payload, lines


def _cmd_gosper(args) -> tuple[int, dict, list[str]]:
    (ratio_text,) = _inputs(args, ["ratio"])
    solution = gosper(parse_ratfunc(ratio_text))
    if solution is None:
        return 1, {"reason": "no hypergeometric antidifference exists"}, [
            "no hypergeometric antidifference exists"
        ]
    payload = {
        "max_shift": solution.max_shift,
        "g": _poly_json(solution.raw_denominator),
        "f": _poly_json(solution.raw_numerator),
        "y": _ratfunc_json(solution.certificate),
    }
    if args.json:  # the text lines do not print it
        payload["verified"] = verify_gosper(solution)
    lines = [
        f"max shift = {solution.max_shift}",
        f"denominator g = {payload['g']['pretty']}",
        f"numerator f = {payload['f']['pretty']}",
        f"certificate y = {payload['y']['pretty']}",
    ]
    if args.verbose:
        payload["trace"] = [_poly_json(g) for g in solution.gcd_trace.trace]
        lines.extend(f"gcd sequence [{i}]: {g['pretty']}" for i, g in enumerate(payload["trace"], start=1))
    return 0, payload, lines


def _cmd_gp_rep(args) -> tuple[int, dict, list[str]]:
    (ratio_text,) = _inputs(args, ["ratio"])
    ratio = parse_ratfunc(ratio_text)
    rep = gp_rep_from_trace(ratio.num, ratio.den)
    check = check_gp_rep(rep)
    payload = {
        "num_factor": _poly_json(rep.num_factor),
        "den_factor": _poly_json(rep.den_factor),
        "shift_factor": _poly_json(rep.shift_factor),
        "gosper_conditions_ok": check.gosper_ok,
        "gp_conditions_ok": check.ok,
    }
    lines = [
        f"num factor = {payload['num_factor']['pretty']}",
        f"den factor = {payload['den_factor']['pretty']}",
        f"shift factor = {payload['shift_factor']['pretty']}",
        f"gosper conditions: {'ok' if check.gosper_ok else 'failed'}",
        f"gp conditions: {'ok' if check.ok else 'failed'}",
    ]
    return 0, payload, lines


def _cmd_ratsolve(args) -> tuple[int, dict, list[str]]:
    coeff_texts, rhs_text = _inputs(args, ["rhs"], coeffs=True)
    rec = LinearRecurrence(tuple(map(parse_poly, coeff_texts)), parse_poly(rhs_text))
    result = rational_solve(rec)
    numerators = result.numerators
    payload = {
        "max_shift": result.max_shift,
        "denominator": _poly_json(result.denominator),
        "degree_bound": numerators.degree_bound,
        "particular": None if result.particular is None else _ratfunc_json(result.particular),
        "homogeneous": [_ratfunc_json(h) for h in result.homogeneous],
        "numerator_particular": None
        if numerators.particular is None
        else _poly_json(numerators.particular),
        "numerator_basis": [_poly_json(h) for h in numerators.homogeneous_basis],
    }
    lines = [
        f"max shift = {result.max_shift}",
        f"denominator = {payload['denominator']['pretty']}",
    ]
    if result.particular is None:
        lines.append("no rational solution")
        return 1, payload, lines
    lines.append(f"particular = {payload['particular']['pretty']}")
    lines.extend(f"homogeneous[{i}] = {h['pretty']}" for i, h in enumerate(payload["homogeneous"]))
    if args.verbose:
        lines.append(f"degree bound = {numerators.degree_bound}")
        if numerators.particular is not None:
            lines.append(f"numerator particular = {payload['numerator_particular']['pretty']}")
        lines.extend(f"numerator basis[{i}] = {h['pretty']}" for i, h in enumerate(payload["numerator_basis"]))
    return 0, payload, lines


def _verdict(ok: bool) -> tuple[int, dict, list[str]]:
    return (0 if ok else 1), {"verified": ok}, [f"verified: {'true' if ok else 'false'}"]


def _cmd_verify_gosper(args) -> tuple[int, dict, list[str]]:
    ratio_text, certificate_text = _inputs(args, ["ratio", "certificate"])
    return _verdict(verify_gosper(parse_ratfunc(ratio_text), parse_ratfunc(certificate_text)))


def _cmd_verify_ratsolve(args) -> tuple[int, dict, list[str]]:
    coeff_texts, rhs_text, solution_text = _inputs(args, ["rhs", "solution"], coeffs=True)
    rec = LinearRecurrence(tuple(map(parse_poly, coeff_texts)), parse_poly(rhs_text))
    return _verdict(verify_rational(rec, parse_ratfunc(solution_text)))


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="emit a JSON envelope on stdout")
    sub.add_argument("--verbose", action="store_true", help="include reduction traces")
    sub.add_argument("--file", help="read the input expressions from a file, one per line, in place of the arguments")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ratrec",
        description="Exact Gosper summation and rational solutions of linear difference equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dispersion", help="largest shift at which two polynomials share a factor")
    p.add_argument("first", nargs="?")
    p.add_argument("second", nargs="?")
    _add_common(p)
    p.set_defaults(handler=_cmd_dispersion)

    p = sub.add_parser("denominator", help="universal denominator from the trailing and leading coefficients")
    p.add_argument("trailing", nargs="?")
    p.add_argument("leading", nargs="?")
    p.add_argument("--order", type=int, required=True, help="order d of the difference equation")
    p.add_argument("--method", choices=("explicit", "abramov", "gp"), default="explicit")
    _add_common(p)
    p.set_defaults(handler=_cmd_denominator)

    p = sub.add_parser("gosper", help="indefinite hypergeometric summation from the term ratio")
    p.add_argument("ratio", nargs="?")
    _add_common(p)
    p.set_defaults(handler=_cmd_gosper)

    p = sub.add_parser("gp-rep", help="Gosper-Petkovsek representation of a rational function")
    p.add_argument("ratio", nargs="?")
    _add_common(p)
    p.set_defaults(handler=_cmd_gp_rep)

    p = sub.add_parser("ratsolve", help="all rational solutions of a linear difference equation")
    p.add_argument("--coeffs", nargs="+", help="coefficient polynomials, trailing to leading")
    p.add_argument("--rhs", default="0", help="right-hand side polynomial (default 0)")
    _add_common(p)
    p.set_defaults(handler=_cmd_ratsolve)

    p = sub.add_parser("verify", help="check a certificate")
    verify_sub = p.add_subparsers(dest="verify_command", required=True)

    v = verify_sub.add_parser("gosper", help="check ratio * y(n+1) - y(n) = 1")
    v.add_argument("ratio", nargs="?")
    v.add_argument("certificate", nargs="?")
    _add_common(v)
    v.set_defaults(handler=_cmd_verify_gosper)

    v = verify_sub.add_parser("ratsolve", help="check a rational solution of a recurrence")
    v.add_argument("--coeffs", nargs="+")
    v.add_argument("--rhs", default="0")
    v.add_argument("--solution", help="candidate rational solution")
    _add_common(v)
    v.set_defaults(handler=_cmd_verify_ratsolve)

    return parser


def _print_out(text: str) -> None:
    """Print text on stdout.  A reader that closes the pipe early (`| head`)
    is no fault of the command: the rest of the output is dropped, and the
    exit code still says the outcome."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit: give it a sink
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def _report_error(args, command: str, message: str, offset: int | None, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    if args.json:
        envelope = {"status": "error", "command": command, "result": {"message": message}}
        if offset is not None:
            envelope["result"]["offset"] = offset
        _print_out(json.dumps(envelope))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own errors on stderr
        return int(exc.code or 0)
    # a result can be far wider than the inputs the parser bounds, and
    # printing it must not hit the interpreter's int-to-str digit limit
    # (Python 3.11 on); the limit is restored for in-process callers
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        return _run(args)
    previous = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    finally:
        sys.set_int_max_str_digits(previous)


def _run(args) -> int:
    """Run the parsed command, print its outcome and return its exit code."""
    command = args.command if args.command != "verify" else f"verify {args.verify_command}"
    try:
        code, payload, lines = args.handler(args)
    except (InputError, OSError) as exc:
        return _report_error(args, command, str(exc), getattr(exc, "offset", None), 2)
    except Exception as exc:  # a fault in ratrec itself, not in the input
        traceback.print_exc()
        return _report_error(args, command, f"internal error: {type(exc).__name__}: {exc}", None, 3)
    if args.json:
        status = "ok" if code == 0 else "no_solution"
        _print_out(json.dumps({"status": status, "command": command, "result": payload}))
    elif lines:
        _print_out("\n".join(lines))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
