"""Invariants and work of the packed-key Groebner and Schreyer kernel."""

from __future__ import annotations

import random

import pytest

from cmreg import _kernel, families
from cmreg.families import build_family, ci_forms, residual_pivot
from cmreg.groebner import Ideal
from cmreg.hilbert import dim_deg
from cmreg.idealops import colon
from cmreg.resolution import _schreyer_levels, regularity_ideal
from cmreg.ring import GREVLEX, LEX, PolyRing, PrimeField, field_of_characteristic


def test_colon_at_4_3_keeps_prime_field_coefficients_reduced():
    # An S-pair coefficient stored as -c, and later as (p - c) - (-c) = p,
    # once reached _monic as a "nonzero" lead and raised ZeroDivisionError.
    R = PolyRing(tuple(f"X{i}" for i in range(6)), field_of_characteristic(32003))
    I = Ideal(R, ci_forms(4, 3, R))
    pivot = residual_pivot(R, 4, 3)
    J = colon(I, pivot)
    assert J.contains_ideal(I)
    assert I.contains_ideal(Ideal(R, [pivot * g for g in J.gens]))
    dim_i, deg_i = dim_deg(I)
    # The residual of the (4,3) curve, of degree 192, in the complete intersection.
    assert dim_deg(J) == (dim_i, deg_i - 192)


def _random_form(rng, ring, degree, nterms):
    terms = {}
    for _ in range(nterms):
        cuts = sorted(rng.randrange(degree + 1) for _ in range(ring.nvars - 1))
        exps = tuple(b - a for a, b in zip((0,) + tuple(cuts), tuple(cuts) + (degree,)))
        terms[exps] = rng.randrange(1, ring.field.p)
    return ring.poly(terms)


def _assert_reduced(pdicts, p):
    for d in pdicts:
        assert d, "empty element"
        assert all(0 < c < p for c in d.values()), sorted(d.values())


@pytest.mark.parametrize("p", [7, 32003])
def test_prime_field_coefficients_in_range_on_random_ideals(p):
    rng = random.Random(20261018 + p)
    R = PolyRing(("a", "b", "c", "d"), PrimeField(p), GREVLEX)
    for _ in range(12):
        gens = [_random_form(rng, R, rng.randrange(2, 4), rng.randrange(2, 5))
                for _ in range(rng.randrange(2, 5))]
        for order in (LEX, GREVLEX):
            ctx = _kernel.Context(order.bind(R.nvars), R.field)
            basis, _ = _kernel.buchberger(ctx, [_kernel.to_packed(ctx, g) for g in gens])
            _assert_reduced(basis, p)
        if basis and max(basis[-1]) != 0:  # a proper ideal, in grevlex
            for level in _schreyer_levels(ctx, basis, R.nvars)[0]:
                _assert_reduced(level, p)


# Pairs and zero reductions summed over every Groebner basis computed by a
# cold build_family(2, 2) and the regularity of its almost complete
# intersection, as measured with the fixed-point start autoreduction.  The
# counts do not depend on the machine, so a change that inflates the work
# fails here even when timings are too noisy to show it.
FAMILY_22_WORK = {"pairs_processed": 221, "zero_reductions": 178}


def test_groebner_work_of_family_22_does_not_grow(monkeypatch):
    totals = dict.fromkeys(FAMILY_22_WORK, 0)
    kernel_buchberger = _kernel.buchberger

    def counted(ctx, pdicts, *args, **kwargs):
        basis, stats = kernel_buchberger(ctx, pdicts, *args, **kwargs)
        for name in totals:
            totals[name] += stats[name]
        return basis, stats

    monkeypatch.setattr(_kernel, "buchberger", counted)
    monkeypatch.setattr(families, "_FAMILY_CACHE", {})
    fam = build_family(2, 2)
    assert regularity_ideal(fam.almost_complete_intersection) == 7
    for name, recorded in FAMILY_22_WORK.items():
        assert totals[name] <= recorded, (name, totals[name])
