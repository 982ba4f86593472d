"""Sparse reduced row echelon form over an exact field.

Only what the graded-piece computations and the Betti ranks need: forward
elimination and deterministic RREF of a list of sparse rows (``{column:
coefficient}`` dicts), smallest pivot column first, pivots normalized to 1.

The field is one of the ring module's fields, read as the kernel reads it:
by its prime ``field.p``.  Over F_p the arithmetic is on ints mod p; over Q
(p None) the entries stay in QQ's form, an int wherever the denominator is
1 and a Fraction otherwise.
"""

from __future__ import annotations


def echelon(rows, field, pivots=None):
    """Forward elimination of `rows`: {pivot column: pivot row}, so the
    rank is the number of pivots.  Input rows are not mutated.

    Each row is reduced on its leading column against the pivots found so
    far until it is zero or starts a new pivot, normalized to 1 there; a
    row whose lead is already 1 is kept as it is.  Given the pivots of an
    earlier call, the rows extend them in place: the rank of both row lists
    together grows one batch at a time.
    """
    p = field.p
    pivots = {} if pivots is None else pivots
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                lead = row[col]
                if lead != 1:
                    if p is not None:
                        scale = pow(lead, -1, p)
                        row = {j: c * scale % p for j, c in row.items()}
                    else:
                        scale, mul = field.inv(lead), field.mul
                        row = {j: mul(c, scale) for j, c in row.items()}
                pivots[col] = row
                break
            _subtract(row, row[col], piv, field)
    return pivots


def rref(rows, field):
    """Reduced row echelon form of `rows` (dicts from column to nonzero entry).

    Returns the nonzero reduced rows as new dicts, ordered by pivot column.
    The entries are elements of `field`, a prime field or QQ of the ring
    module; input rows are not mutated.

    After echelon, back-substitution runs from the largest pivot column
    down, so every row's tail meets only pivot rows that are already reduced.
    """
    pivots = echelon(rows, field)
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for j in [j for j in row if j != col and j in pivots]:
            _subtract(row, row[j], pivots[j], field)
    return [pivots[col] for col in sorted(pivots)]


def _subtract(row, factor, piv, field):
    """row -= factor * piv in place, dropping the entries that cancel: mod p
    over F_p, and over Q through field.sub, which keeps QQ's form."""
    p = field.p
    if p is not None:
        for j, c in piv.items():
            v = (row.get(j, 0) - factor * c) % p
            if v:
                row[j] = v
            else:
                del row[j]
        return
    sub = field.sub
    for j, c in piv.items():
        v = sub(row.get(j, 0), factor * c)
        if v:
            row[j] = v
        else:
            del row[j]
