"""Exact linear algebra: fraction-free Gauss-Jordan elimination over Z.

Each row of the augmented system is cleared of denominators, then
eliminated with one-step fraction-free (Bareiss, 1968) row operations on
Python ints: with pivot p in column c and previous pivot d, every other
row becomes (p * row - row[c] * pivot_row) / d.  Each entry then stays a
minor of the cleared input, so the division is exact and the entries grow
only as minors do.  Fractions are built once, from the final rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def solve_exact(
    matrix: list[list[int | Fraction]], rhs: list[int | Fraction]
) -> tuple[list[Fraction] | None, list[list[Fraction]]]:
    """Solve M x = rhs exactly, for int or Fraction entries.

    Returns (particular, nullspace_basis).  particular is None when the
    system is inconsistent; the nullspace basis comes from the reduced row
    echelon form, one vector per free column with a 1 in that column, so
    the output is deterministic.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = []
    for row, b in zip(matrix, rhs):
        entries = [*row, b]
        scale = lcm(*[v.denominator for v in entries])
        aug.append([v.numerator * (scale // v.denominator) for v in entries])

    pivot_cols: list[int] = []
    r = 0
    prev = 1
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        top = aug[r]
        p = top[c]
        for i in range(rows):
            if i != r:
                f = aug[i][c]
                aug[i] = [(p * v - f * w) // prev for v, w in zip(aug[i], top)]
        prev = p
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break

    consistent = all(aug[i][cols] == 0 for i in range(r, rows))

    particular: list[Fraction] | None = None
    if consistent:
        particular = [Fraction(0)] * cols
        for i, c in enumerate(pivot_cols):
            particular[c] = Fraction(aug[i][cols], aug[i][c])

    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis: list[list[Fraction]] = []
    for f in free_cols:
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for i, c in enumerate(pivot_cols):
            vec[c] = Fraction(-aug[i][f], aug[i][c])
        basis.append(vec)
    return particular, basis
