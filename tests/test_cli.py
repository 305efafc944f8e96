"""Command-line interface: outputs, exit codes, JSON envelopes."""

import argparse
import contextlib
import io
import json
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratrec.cli
from ratrec.cli import build_parser, main
from ratrec.expressions import MAX_NESTING, parse_ratfunc
from ratrec.pipelines import verify_gosper
from ratrec.polys import Poly, RatFunc

EX41_COEFFS = [
    "(-(n-1)*(2*n-1)*(n+1))",
    "n*(n+2)*(2*n-3)",
    "(-(2*n+3)*(n+3)*(n+1))",
    "(n+4)*(2*n+1)*(n+2)",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestDispersionCommand:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "dispersion", "n+2", "(n+1)*(n+2)")
        assert code == 0
        assert "dispersion = 1" in out

    def test_json_output(self, capsys):
        code, payload, _ = run_json(capsys, "dispersion", "n+2", "(n+1)*(n+2)")
        assert code == 0
        assert payload["status"] == "ok"
        assert payload["command"] == "dispersion"
        assert payload["result"]["value"] == 1
        assert [w["shift"] for w in payload["result"]["witnesses"]] == [0, 1]

    def test_rejects_zero_polynomial(self, capsys):
        code, _, err = run(capsys, "dispersion", "n-n", "n")
        assert code == 2
        assert "error" in err

    def test_deep_nesting_is_an_input_error(self, capsys):
        deep = "(" * 3000 + "n" + ")" * 3000
        code, _, err = run(capsys, "dispersion", deep, "n+1")
        assert code == 2
        assert "nest deeper" in err
        code, payload, _ = run_json(capsys, "dispersion", deep, "n+1")
        assert code == 2
        assert payload["status"] == "error"
        assert payload["result"]["offset"] == MAX_NESTING


    def test_oversized_power_is_an_input_error(self, capsys):
        code, payload, _ = run_json(capsys, "gosper", "n^1001")
        assert code == 2
        assert payload["status"] == "error"
        assert payload["result"]["offset"] == 1
        code, _, err = run(capsys, "gosper", "((2^10)^10)^50")
        assert code == 2
        assert "bits" in err

class TestDenominatorCommand:
    def test_explicit_method(self, capsys):
        code, payload, _ = run_json(
            capsys, "denominator", "--order", "1", "(n+1)*(n+2)", "n+3"
        )
        assert code == 0
        assert payload["result"]["denominator"]["pretty"] == "n^2 + 3*n + 2"
        assert payload["result"]["max_shift"] == 1

    def test_all_methods_agree_on_order_one(self, capsys):
        values = {}
        for method in ("explicit", "abramov"):
            _, payload, _ = run_json(
                capsys, "denominator", "--order", "1", "--method", method,
                "(n+1)*(n+2)", "n+3",
            )
            values[method] = payload["result"]["denominator"]["pretty"]
        assert values["explicit"] == values["abramov"]

    def test_gp_method_divides(self, capsys):
        code, payload, _ = run_json(
            capsys, "denominator", "--order", "1", "--method", "gp",
            "(n+1)*(n+2)", "n+3",
        )
        assert code == 0
        assert payload["result"]["denominator"]["pretty"] == "n + 2"

    def test_gp_needs_order_one(self, capsys):
        code, _, err = run(
            capsys, "denominator", "--order", "2", "--method", "gp", "n", "n+1"
        )
        assert code == 2
        assert "order 1" in err

    def test_order_three_coefficients(self, capsys):
        code, payload, _ = run_json(
            capsys, "denominator", "--order", "3", "--method", "abramov",
            EX41_COEFFS[0], EX41_COEFFS[3],
        )
        assert code == 0
        assert payload["result"]["denominator"]["pretty"] == "n^3 - n"
        assert payload["result"]["denominator"]["coeffs"] == ["0/1", "-1/1", "0/1", "1/1"]

    def test_verbose_trace(self, capsys):
        code, out, _ = run(
            capsys, "denominator", "--order", "1", "--method", "abramov",
            "(n+1)*(n+2)", "n+3", "--verbose",
        )
        assert code == 0
        assert "extracted at shift 1: n + 2" in out


class TestGosperCommand:
    def test_success(self, capsys):
        code, payload, _ = run_json(capsys, "gosper", "(4*n+5)/(2*(4*n+1)*(2*n+3))")
        assert code == 0
        result = payload["result"]
        assert result["max_shift"] == 0
        assert result["g"]["pretty"] == "n + 1/4"
        assert result["f"]["pretty"] == "-n - 1/2"
        assert result["y"]["pretty"] == "(-n - 1/2)/(n + 1/4)"
        assert result["verified"] is True

    def test_no_solution_exit_code(self, capsys):
        code, payload, _ = run_json(capsys, "gosper", "n+1")
        assert code == 1
        assert payload["status"] == "no_solution"

    def test_parse_error_offset_in_json(self, capsys):
        code, out, err = run(capsys, "gosper", "n/(n", "--json")
        assert code == 2
        payload = json.loads(out)
        assert payload["status"] == "error"
        assert payload["result"]["offset"] == 4
        assert "offset 4" in err

    def test_zero_division_is_input_error(self, capsys):
        code, _, err = run(capsys, "gosper", "1/(n-n)")
        assert code == 2
        assert "zero" in err

    def test_result_wider_than_the_int_digit_limit(self, capsys):
        # the certificate's coefficients have about 20,000 bits, past the
        # 4300 digits Python converts to str by default (3.11 on)
        ratio = "(2^4000*n+2^4000*6+1)/(2^4000*n+2^4000+1)"
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
        limit = get_limit()
        code, out, _ = run(capsys, "gosper", ratio, "--json")
        assert code == 0
        assert get_limit() == limit  # main restores the limit for in-process callers
        y = json.loads(out)["result"]["y"]
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            num, den = (Poly([Fraction(c) for c in y[part]["coeffs"]]) for part in ("num", "den"))
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        assert verify_gosper(parse_ratfunc(ratio), RatFunc.reduced(num, den))


    def test_each_polynomial_is_formatted_once(self, capsys, monkeypatch):
        formatted = []
        poly_str = Poly.__str__

        def spy(p):
            formatted.append(p)
            return poly_str(p)

        monkeypatch.setattr(Poly, "__str__", spy)
        code, payload, _ = run_json(capsys, "gosper", "(4*n+5)/(2*(4*n+1)*(2*n+3))")
        assert code == 0
        # g, f and the numerator and denominator of y
        assert len(formatted) == 4
        assert payload["result"]["y"]["pretty"] == "(-n - 1/2)/(n + 1/4)"


class TestGpRepCommand:
    def test_reports_factors(self, capsys):
        code, payload, _ = run_json(capsys, "gp-rep", "(n+3)/((n+1)*(n+2))")
        assert code == 0
        result = payload["result"]
        assert result["num_factor"]["pretty"] == "1"
        assert result["den_factor"]["pretty"] == "n + 1"
        assert result["shift_factor"]["pretty"] == "n + 2"
        assert result["gp_conditions_ok"] is True

    def test_conditions_checked_once(self, capsys, monkeypatch):
        import ratrec.denominators

        identities, dispersions = [], []
        identity_holds, dispersion = ratrec.denominators._identity_holds, ratrec.denominators.dispersion

        def counted_identity(rep):
            identities.append(rep)
            return identity_holds(rep)

        def counted_dispersion(a, b):
            dispersions.append((a, b))
            return dispersion(a, b)

        monkeypatch.setattr(ratrec.denominators, "_identity_holds", counted_identity)
        monkeypatch.setattr(ratrec.denominators, "dispersion", counted_dispersion)
        code, payload, _ = run_json(capsys, "gp-rep", "(2*n+5)*(n+7)/((n+1)*(3*n+2))")
        assert code == 0
        assert payload["result"]["gosper_conditions_ok"] is True
        assert payload["result"]["gp_conditions_ok"] is True
        (rep,) = identities
        assert dispersions.count((rep.num_factor, rep.den_factor)) == 1


class TestRatsolveCommand:
    def test_order_three_family(self, capsys):
        code, payload, _ = run_json(capsys, "ratsolve", "--coeffs", *EX41_COEFFS)
        assert code == 0
        result = payload["result"]
        assert result["max_shift"] == 2
        assert result["denominator"]["pretty"] == "n^3 - n"
        assert result["particular"]["pretty"] == "0"
        assert len(result["homogeneous"]) == 1
        assert result["homogeneous"][0]["pretty"] == "(n - 3/2)/(n^2 - 1)"

    def test_no_rational_solution(self, capsys):
        code, payload, _ = run_json(
            capsys, "ratsolve", "--coeffs", "(-1)", "n+1", "--rhs", "1"
        )
        assert code == 1
        assert payload["status"] == "no_solution"
        assert payload["result"]["particular"] is None

    def test_needs_two_coefficients(self, capsys):
        code, _, err = run(capsys, "ratsolve", "--coeffs", "n")
        assert code == 2
        assert "order" in err


class TestVerifyCommands:
    def test_gosper_certificate_true(self, capsys):
        code, payload, _ = run_json(
            capsys, "verify", "gosper", "(n+1)/n", "(n-1)/2"
        )
        assert code == 0
        assert payload["result"]["verified"] is True

    def test_gosper_certificate_false(self, capsys):
        code, payload, _ = run_json(
            capsys, "verify", "gosper", "(n+1)/n", "(n+1)/2"
        )
        assert code == 1
        assert payload["result"]["verified"] is False

    def test_rational_solution_true(self, capsys):
        code, payload, _ = run_json(
            capsys, "verify", "ratsolve", "--coeffs", *EX41_COEFFS,
            "--solution", "(2*n-3)/(n^2-1)",
        )
        assert code == 0
        assert payload["result"]["verified"] is True

    def test_rational_solution_false_for_misprinted_form(self, capsys):
        code, payload, _ = run_json(
            capsys, "verify", "ratsolve", "--coeffs", *EX41_COEFFS,
            "--solution", "(2*n+1)/(n^2-1)",
        )
        assert code == 1
        assert payload["result"]["verified"] is False


class TestReadmeExamples:
    """The README's CLI examples print these bytes, in text and in JSON."""

    EXAMPLES = [
        (
            ("dispersion", "n+2", "(n+1)*(n+2)"),
            "dispersion = 1\n",
            {"value": 1, "witnesses": [
                {"shift": 0, "gcd": {"pretty": "n + 2", "coeffs": ["2/1", "1/1"]}},
                {"shift": 1, "gcd": {"pretty": "n + 2", "coeffs": ["2/1", "1/1"]}},
            ]},
        ),
        (
            ("denominator", "--order", "3", "--method", "abramov", EX41_COEFFS[0], EX41_COEFFS[3]),
            "denominator = n^3 - n\n",
            {"order": 3, "method": "abramov", "max_shift": 2,
             "denominator": {"pretty": "n^3 - n", "coeffs": ["0/1", "-1/1", "0/1", "1/1"]}},
        ),
        (
            ("gosper", "(4*n+5)/(2*(4*n+1)*(2*n+3))"),
            "max shift = 0\ndenominator g = n + 1/4\nnumerator f = -n - 1/2\n"
            "certificate y = (-n - 1/2)/(n + 1/4)\n",
            {"max_shift": 0,
             "g": {"pretty": "n + 1/4", "coeffs": ["1/4", "1/1"]},
             "f": {"pretty": "-n - 1/2", "coeffs": ["-1/2", "-1/1"]},
             "y": {"pretty": "(-n - 1/2)/(n + 1/4)",
                   "num": {"pretty": "-n - 1/2", "coeffs": ["-1/2", "-1/1"]},
                   "den": {"pretty": "n + 1/4", "coeffs": ["1/4", "1/1"]}},
             "verified": True},
        ),
        (
            ("gp-rep", "(n+3)/((n+1)*(n+2))"),
            "num factor = 1\nden factor = n + 1\nshift factor = n + 2\ngosper conditions: ok\ngp conditions: ok\n",
            {"num_factor": {"pretty": "1", "coeffs": ["1/1"]},
             "den_factor": {"pretty": "n + 1", "coeffs": ["1/1", "1/1"]},
             "shift_factor": {"pretty": "n + 2", "coeffs": ["2/1", "1/1"]},
             "gosper_conditions_ok": True, "gp_conditions_ok": True},
        ),
        (
            ("ratsolve", "--coeffs", *EX41_COEFFS, "--rhs", "0"),
            "max shift = 2\ndenominator = n^3 - n\nparticular = 0\nhomogeneous[0] = (n - 3/2)/(n^2 - 1)\n",
            {"max_shift": 2,
             "denominator": {"pretty": "n^3 - n", "coeffs": ["0/1", "-1/1", "0/1", "1/1"]},
             "degree_bound": 2,
             "particular": {"pretty": "0", "num": {"pretty": "0", "coeffs": []},
                            "den": {"pretty": "1", "coeffs": ["1/1"]}},
             "homogeneous": [{"pretty": "(n - 3/2)/(n^2 - 1)",
                              "num": {"pretty": "n - 3/2", "coeffs": ["-3/2", "1/1"]},
                              "den": {"pretty": "n^2 - 1", "coeffs": ["-1/1", "0/1", "1/1"]}}],
             "numerator_particular": {"pretty": "0", "coeffs": []},
             "numerator_basis": [{"pretty": "n^2 - 3/2*n", "coeffs": ["0/1", "-3/2", "1/1"]}]},
        ),
        (("verify", "gosper", "(n+1)/n", "(n-1)/2"), "verified: true\n", {"verified": True}),
        (
            ("verify", "ratsolve", "--coeffs", *EX41_COEFFS, "--rhs", "0", "--solution", "(2*n-3)/(n^2-1)"),
            "verified: true\n",
            {"verified": True},
        ),
    ]

    @pytest.mark.parametrize("argv, text, result", EXAMPLES, ids=[e[0][0] + str(i) for i, e in enumerate(EXAMPLES)])
    def test_text_and_json_bytes(self, capsys, argv, text, result):
        assert run(capsys, *argv) == (0, text, "")
        command = argv[0] if argv[0] != "verify" else f"verify {argv[1]}"
        envelope = {"status": "ok", "command": command, "result": result}
        assert run(capsys, *argv, "--json") == (0, json.dumps(envelope) + "\n", "")


# expressions over n, the integers 0-9, + - * /, '^' with exponent at most 3,
# and parentheses at most three deep; never with a leading '-', which
# argparse would take for an option
def _small_expressions(depth: int = 3):
    atom = st.sampled_from("n0123456789")
    if depth == 0:
        return atom
    inner = _small_expressions(depth - 1)
    return st.one_of(
        atom,
        st.builds("{}{}{}".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("({})^{}".format, inner, st.integers(0, 3)),
        st.builds("({})".format, inner),
        st.builds("(-{})".format, inner),
    )


_EXPR = _small_expressions()
_COMMANDS = st.one_of(
    st.builds(lambda a, b: ["dispersion", a, b], _EXPR, _EXPR),
    st.builds(
        lambda a, b, method, order: ["denominator", a, b, "--method", method, "--order", str(order)],
        _EXPR, _EXPR, st.sampled_from(["explicit", "abramov", "gp"]), st.integers(1, 3),
    ),
    st.builds(lambda r: ["gosper", r], _EXPR),
    st.builds(lambda r: ["gp-rep", r], _EXPR),
    st.builds(lambda r, y: ["verify", "gosper", r, y], _EXPR, _EXPR),
    st.builds(lambda cs, rhs: ["ratsolve", "--coeffs", *cs, "--rhs", rhs], st.lists(_EXPR, min_size=2, max_size=4), _EXPR),
)


class TestSmallGrammarInputs:
    @settings(max_examples=500)
    @given(_COMMANDS)
    def test_no_command_exits_3(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--json"])
        assert code in (0, 1, 2), err.getvalue()
        status = json.loads(out.getvalue())["status"]
        assert status == {0: "ok", 1: "no_solution", 2: "error"}[code]


class TestFileInput:
    def test_expressions_from_file(self, capsys, tmp_path):
        path = tmp_path / "exprs.txt"
        path.write_text("n+2\n(n+1)*(n+2)\n")
        code, payload, _ = run_json(capsys, "dispersion", "--file", str(path))
        assert code == 0
        assert payload["result"]["value"] == 1

    def test_ratsolve_from_file(self, capsys, tmp_path):
        path = tmp_path / "rec.txt"
        path.write_text("\n".join(EX41_COEFFS) + "\n0\n")
        code, payload, _ = run_json(capsys, "ratsolve", "--file", str(path))
        assert code == 0
        assert payload["result"]["denominator"]["pretty"] == "n^3 - n"

    def test_verify_ratsolve_from_file(self, capsys, tmp_path):
        path = tmp_path / "check.txt"
        path.write_text("\n".join(EX41_COEFFS) + "\n0\n(2*n-3)/(n^2-1)\n")
        code, payload, _ = run_json(capsys, "verify", "ratsolve", "--file", str(path))
        assert code == 0
        assert payload["result"]["verified"] is True

    def test_wrong_line_count(self, capsys, tmp_path):
        path = tmp_path / "exprs.txt"
        path.write_text("n+2\n")
        code, _, err = run(capsys, "dispersion", "--file", str(path))
        assert code == 2
        assert "2 expression" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "dispersion", "--file", "/no/such/file")
        assert code == 2

    def test_missing_positional_hint(self, capsys):
        code, _, err = run(capsys, "dispersion", "n+2")
        assert code == 2
        assert "second" in err


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_order(self, capsys):
        assert run(capsys, "denominator", "n", "n")[0] == 2


class TestRepeatedCalls:
    ARGVS = [
        ("denominator", "--order", "1", "--method", "abramov", "(n+1)*(n+2)", "n+3", "--verbose"),
        ("gosper", "(4*n+5)/(2*(4*n+1)*(2*n+3))", "--json"),
        ("denominator", "--order", "1", "(n+1)*(n+2)", "n+3"),
        ("ratsolve", "--coeffs", "(-1)", "n+1", "--rhs", "1"),
        ("ratsolve", "--coeffs", *EX41_COEFFS, "--json"),
        ("verify", "ratsolve", "--coeffs", *EX41_COEFFS, "--solution", "(2*n-3)/(n^2-1)"),
        ("gosper", "n/(n", "--json"),
        ("frobnicate",),
        ("dispersion", "n+2", "(n+1)*(n+2)", "--verbose"),
        ("dispersion", "n+2", "(n+1)*(n+2)"),
    ]

    def test_parser_is_built_once(self, capsys, monkeypatch):
        run(capsys, "gosper", "(n+1)/(n+3)")
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run(capsys, "gosper", "(n+1)/(n+3)", "--json")[0] == 0
        assert built == []

    def test_consecutive_calls_match_fresh_calls(self, capsys):
        fresh = []
        for argv in self.ARGVS:
            build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        consecutive = [run(capsys, *argv) for argv in self.ARGVS]
        assert consecutive == fresh


class TestInternalErrors:
    def test_unexpected_exception_exits_3(self, capsys, monkeypatch):
        def broken(ratio):
            raise RuntimeError("inexact division")

        monkeypatch.setattr(ratrec.cli, "gosper", broken)
        code, payload, err = run_json(capsys, "gosper", "(n+1)/(n+3)")
        assert code == 3
        assert payload["status"] == "error"
        assert payload["command"] == "gosper"
        assert payload["result"]["message"] == "internal error: RuntimeError: inexact division"
        assert "Traceback" in err
        code, out, err = run(capsys, "gosper", "(n+1)/(n+3)")
        assert code == 3
        assert out == ""
        assert "error: internal error: RuntimeError: inexact division" in err


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises, as on EPIPE."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    # a reader that stops early (`ratrec ... | head -c 1`) must not turn the
    # outcome into a traceback and exit 1
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("dispersion", "n+2", "(n+1)*(n+2)"), 0),
            (("dispersion", "n+2", "(n+1)*(n+2)", "--json"), 0),
            (("gosper", "(n+1)/(n+2)"), 1),
            (("gosper", "(n+1)/(n+2)", "--json"), 1),
            (("gosper", "n^1001", "--json"), 2),
        ],
    )
    def test_command_code_and_no_traceback(self, capsys, monkeypatch, argv, expected):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert main(list(argv)) == expected
        assert "Traceback" not in capsys.readouterr().err

    def test_last_flush_goes_to_the_null_device(self, monkeypatch):
        read_end, write_end = os.pipe()
        os.close(read_end)
        out = io.TextIOWrapper(io.BufferedWriter(io.FileIO(write_end, "w"), buffer_size=16))
        monkeypatch.setattr(sys, "stdout", out)
        try:
            assert main(["dispersion", "n+2", "(n+1)*(n+2)", "--verbose"]) == 0
            out.write("more output after the reader left\n")
            out.flush()
        finally:
            out.close()
