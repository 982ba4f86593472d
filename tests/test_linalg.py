"""Sparse reduced row echelon form, checked against a dense reference, and
over Q for QQ's element form in every value it returns."""

from __future__ import annotations

import copy
import random
from fractions import Fraction

import pytest

from cmreg._linalg import echelon, rref
from cmreg.ring import PrimeField, QQ


def _dense_rref(rows, field):
    """Reference: Gauss-Jordan on dense rows, pivots normalized to 1."""
    work = [list(r) for r in rows]
    width = len(work[0]) if work else 0
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = field.inv(work[rank][col])
        row = work[rank] = [field.mul(c, inv) for c in work[rank]]
        for r in range(len(work)):
            factor = work[r][col]
            if r != rank and factor != 0:
                work[r] = [field.sub(a, field.mul(factor, b)) for a, b in zip(work[r], row)]
        rank += 1
    return work[:rank]


def _random_rows(rng, field, nrows, width, density):
    def entry():
        if isinstance(field, PrimeField):
            return rng.randrange(1, field.p)
        return field(Fraction(rng.choice([-1, 1]) * rng.randrange(1, 9), rng.randrange(1, 5)))

    rows = [{j: entry() for j in range(width) if rng.random() < density}
            for _ in range(nrows)]
    rows.append({})
    rows.append(dict(rows[0]))
    a, b = entry(), entry()
    combo = {}
    for j in set(rows[1]) | set(rows[2]):
        v = field.add(field.mul(a, rows[1].get(j, 0)), field.mul(b, rows[2].get(j, 0)))
        if v != 0:
            combo[j] = v
    rows.append(combo)
    rng.shuffle(rows)
    return rows


# Over Q the second row minus the first is {1: 1, 2: 3} with Fraction
# arithmetic, and back-substitution leaves 1/2 - 3/2 = -1 in the first row:
# every entry of the result is an integral Fraction unless made an int.
INTEGRAL_PAIR = [{0: 1, 1: Fraction(1, 2), 2: Fraction(1, 2)},
                 {0: 1, 1: Fraction(3, 2), 2: Fraction(7, 2)}]


def _trials(field):
    """(width, rows) of the seeded random trials, then over Q the pair above."""
    rng = random.Random(20261018)
    for _ in range(40):
        width = rng.randrange(1, 12)
        yield width, _random_rows(rng, field, rng.randrange(1, 10), width,
                                  rng.choice([0.15, 0.3, 0.6]))
    if field is QQ:
        yield 3, INTEGRAL_PAIR


@pytest.mark.parametrize("field", [PrimeField(7), QQ], ids=["F7", "QQ"])
def test_sparse_rref_matches_dense_reference(field, check_rational_form):
    for trial, (width, rows) in enumerate(_trials(field)):
        before = copy.deepcopy(rows)
        out = rref(rows, field)
        pivots = echelon(rows, field)
        assert rows == before, "input rows were mutated"
        if field is QQ:
            check_rational_form([c for r in out + list(pivots.values()) for c in r.values()])
        dense = [[r.get(j, field(0)) for j in range(width)] for r in rows]
        expected = [{j: c for j, c in enumerate(r) if c != 0}
                    for r in _dense_rref(dense, field)]
        assert out == expected, f"trial {trial}"
        assert all(r[min(r)] == 1 for r in out)
        assert [min(r) for r in out] == sorted({min(r) for r in out})
        assert sorted(pivots) == [min(r) for r in out]


def test_sparse_rref_edge_cases():
    F = PrimeField(7)
    assert rref([], F) == []
    assert rref([{}, {}], F) == []
    assert rref([{2: 3}, {2: 5, 4: 1}], F) == [{2: 1}, {4: 1}]
