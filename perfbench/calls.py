"""How each workload's request is put to ratrec, and how its answer is read.

`prepare` turns generated inputs into ratrec objects outside the timed
region, `execute` is the timed request, and `extract` copies the answer
into plain data for the checks.  Functions are looked up on ratrec's
modules at call time so that the tracer's wrappers are the ones called.

At import time this module loads only `os` and `sys`, which every Python
process has already loaded: the set-up probe imports it before it starts
its clock, and everything ratrec needs must load inside the measured
interval.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def load_ratrec():
    """Import ratrec from this checkout's sources, never from elsewhere."""
    init = os.path.join(SRC, "ratrec", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: ratrec sources not found at {init}")
    sys.path.insert(0, SRC)
    import ratrec
    import ratrec.cli

    if os.path.realpath(ratrec.__file__) != os.path.realpath(init):
        raise SystemExit(f"error: imported ratrec from {ratrec.__file__}, not from {SRC}")
    return ratrec


def prepare(kind, args):
    from ratrec.polys import Poly
    from ratrec.recurrences import LinearRecurrence

    if kind == "gosper":
        return ["gosper", args["ratio"], "--json"]
    if kind == "ratsolve":
        return LinearRecurrence(tuple(Poly(c) for c in args["coeffs"]), Poly(args["rhs"]))
    if kind == "denominators":
        return Poly(args["p0"]), Poly(args["pd"]), args["order"]
    raise ValueError(f"unknown request kind {kind!r}")


def execute(kind: str, prepared):
    """One request.  Lazy parts of the result are forced here, inside the timing."""
    import ratrec

    if kind == "gosper":
        import contextlib
        import io

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = ratrec.cli.main(prepared)
        return code, out.getvalue()
    if kind == "ratsolve":
        result = ratrec.pipelines.rational_solve(prepared)
        result.particular, result.homogeneous  # cached properties: reduce them now
        return result
    if kind == "denominators":
        p0, pd, order = prepared
        limit = ratrec.gcdseq.gcd_limit(p0, pd, order)
        universal = ratrec.gcdseq.universal_denominator(p0, pd, order)
        abramov = ratrec.denominators.abramov_reduce(p0, pd, order)
        gp = gp_ok = None
        if order == 1:
            gp = ratrec.denominators.gp_rep_from_trace(pd, p0)
            gp_ok = ratrec.denominators.check_gp_rep(gp).ok
        return limit, universal, abramov, gp, gp_ok
    raise ValueError(f"unknown request kind {kind!r}")


def _rat(r) -> tuple:
    return r.num.coeffs, r.den.coeffs


def _poly_from_json(p: dict) -> tuple:
    from fractions import Fraction

    return tuple(Fraction(c) for c in p["coeffs"])


def extract(kind: str, raw) -> dict:
    """The answer as plain data: polynomials become tuples of Fractions."""
    if kind == "gosper":
        import json

        code, text = raw
        envelope = json.loads(text)
        result = envelope["result"]
        answer = {"code": code, "status": envelope["status"], "verified": result.get("verified")}
        if envelope["status"] == "ok":
            answer["y_num"] = _poly_from_json(result["y"]["num"])
            answer["y_den"] = _poly_from_json(result["y"]["den"])
        return answer
    if kind == "ratsolve":
        numerators = raw.numerators
        return {
            "denominator": raw.denominator.coeffs,
            "particular": None if raw.particular is None else _rat(raw.particular),
            "homogeneous": [_rat(h) for h in raw.homogeneous],
            "numerator_particular": None if numerators.particular is None else numerators.particular.coeffs,
            "numerator_basis": [b.coeffs for b in numerators.homogeneous_basis],
        }
    if kind == "denominators":
        limit, universal, abramov, gp, gp_ok = raw
        return {
            "limit": limit.limit.coeffs,
            "limit_shift": limit.max_shift,
            "trace_len": len(limit.trace),
            "universal": universal.coeffs,
            "abramov": abramov.denominator.coeffs,
            "abramov_shift": abramov.max_shift,
            "gp": None if gp is None else (gp.num_factor.coeffs, gp.den_factor.coeffs, gp.shift_factor.coeffs),
            "gp_ok": gp_ok,
        }
    raise ValueError(f"unknown request kind {kind!r}")


def to_wire(obj):
    """JSON-safe form of inputs and answers; Fractions become "p/q" strings."""
    from fractions import Fraction

    if isinstance(obj, Fraction):
        return {"q": f"{obj.numerator}/{obj.denominator}"}
    if isinstance(obj, dict):
        return {k: to_wire(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return {"t": [to_wire(v) for v in obj]} if isinstance(obj, tuple) else [to_wire(v) for v in obj]
    return obj


def from_wire(obj):
    from fractions import Fraction

    if isinstance(obj, dict):
        if obj.keys() == {"q"}:
            return Fraction(obj["q"])
        if obj.keys() == {"t"}:
            return tuple(from_wire(v) for v in obj["t"])
        return {k: from_wire(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [from_wire(v) for v in obj]
    return obj
