"""Sparse reduced row echelon form over an exact field.

Only what the graded-piece computations and the Betti ranks need: forward
elimination and deterministic RREF of a list of sparse rows (``{column:
coefficient}`` dicts), smallest pivot column first, pivots normalized to 1.
"""

from __future__ import annotations


def echelon(rows, field):
    """Forward elimination of `rows`: {pivot column: pivot row}, so the
    rank is the number of pivots.  Input rows are not mutated.

    Each row is reduced on its leading column against the pivots found so
    far until it is zero or starts a new pivot, normalized to 1 there.
    """
    inv, mul, sub = field.inv, field.mul, field.sub
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                scale = inv(row[col])
                if scale != 1:
                    row = {j: mul(c, scale) for j, c in row.items()}
                pivots[col] = row
                break
            _subtract(row, row[col], piv, mul, sub)
    return pivots


def rref(rows, field):
    """Reduced row echelon form of `rows` (dicts from column to nonzero entry).

    Returns the nonzero reduced rows as new dicts, ordered by pivot column.
    Works for any exact field object exposing inv, mul, sub (the conventions
    of the ring module's field classes).

    After echelon, back-substitution runs from the largest pivot column
    down, so every row's tail meets only pivot rows that are already reduced.
    """
    mul, sub = field.mul, field.sub
    pivots = echelon(rows, field)
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for j in [j for j in row if j != col and j in pivots]:
            _subtract(row, row[j], pivots[j], mul, sub)
    return [pivots[col] for col in sorted(pivots)]


def _subtract(row, factor, piv, mul, sub):
    """row -= factor * piv in place, dropping the entries that cancel."""
    for j, c in piv.items():
        v = sub(row.get(j, 0), mul(factor, c))
        if v == 0:
            del row[j]
        else:
            row[j] = v
