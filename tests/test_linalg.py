"""The fraction-free solver against the Fraction Gauss-Jordan elimination it
replaced, on generated systems and on Gosper key equations."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratrec import recurrences
from ratrec.expressions import parse_ratfunc
from ratrec.gcdseq import gcd_limit
from ratrec.linalg import solve_exact
from ratrec.polys import shift
from ratrec.recurrences import LinearRecurrence, poly_solutions

from oracles import solve_exact_over_q

# mixed denominators in one row; ints and Fractions both accepted
entries = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
)
multipliers = st.integers(-4, 4)


def agrees_with_oracle(matrix, rhs) -> None:
    got = solve_exact(matrix, rhs)
    assert got == solve_exact_over_q(matrix, rhs)
    particular, basis = got
    assert all(type(x) is Fraction for x in particular or ())
    assert all(type(x) is Fraction for vec in basis for x in vec)


@st.composite
def rank_deficient(draw):
    """Rows that are integer combinations of a few Fraction rows, so the rank
    is at most the number of generators and the system is consistent."""
    cols = draw(st.integers(1, 7))
    rank = draw(st.integers(1, 3))
    gens = draw(st.lists(st.lists(entries, min_size=cols + 1, max_size=cols + 1), min_size=rank, max_size=rank))
    rows = draw(st.integers(1, 8))
    aug = []
    for _ in range(rows):
        ks = draw(st.lists(multipliers, min_size=rank, max_size=rank))
        aug.append([sum((k * g[j] for k, g in zip(ks, gens)), Fraction(0)) for j in range(cols + 1)])
    return [row[:-1] for row in aug], [row[-1] for row in aug]


@given(rank_deficient())
def test_rank_deficient_systems(system):
    agrees_with_oracle(*system)


@given(rank_deficient(), st.data())
def test_inconsistent_right_sides(system, data):
    matrix, rhs = system
    i = data.draw(st.integers(0, len(rhs) - 1))
    bump = data.draw(entries.filter(bool))
    rhs = rhs[:i] + [rhs[i] + bump] + rhs[i + 1 :]
    agrees_with_oracle(matrix, rhs)


@given(rank_deficient(), st.data())
def test_zero_rows_and_columns(system, data):
    matrix, rhs = system
    cols = len(matrix[0])
    zero_col = data.draw(st.integers(0, cols - 1))
    matrix = [row[:zero_col] + [0] + row[zero_col + 1 :] for row in matrix]
    at = data.draw(st.integers(0, len(matrix)))
    matrix = matrix[:at] + [[0] * cols] + matrix[at:]
    rhs = rhs[:at] + [data.draw(st.sampled_from([0, Fraction(3, 7)]))] + rhs[at:]
    agrees_with_oracle(matrix, rhs)


@given(entries, entries)
def test_one_by_one(a, b):
    agrees_with_oracle([[a]], [b])


@st.composite
def wide(draw):
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(rows + 1, rows + 5))
    matrix = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return matrix, draw(st.lists(entries, min_size=rows, max_size=rows))


@given(wide())
def test_more_columns_than_rows(system):
    agrees_with_oracle(*system)


def test_empty_system():
    assert solve_exact([], []) == ([], [])


def gosper_key_equation(k: int) -> LinearRecurrence:
    """The key equation gosper((n+1)/(n+k)) solves, built the same way."""
    ratio = parse_ratfunc(f"(n+1)/(n+{k})")
    a, b = ratio.num, ratio.den
    g = gcd_limit(b, a, 1).limit
    g_up = shift(g, 1)
    return LinearRecurrence((-(b * g_up), a * g), b * g * g_up)


@pytest.mark.parametrize("k", [5, 10, 20])
def test_gosper_key_equations_match_the_oracle_solver(k, monkeypatch):
    rec = gosper_key_equation(k)
    got = poly_solutions(rec)
    monkeypatch.setattr(recurrences, "solve_exact", solve_exact_over_q)
    expected = poly_solutions(rec)
    assert got == expected
    assert got.particular is not None and got.degree_bound >= k - 1
