"""Shared fixtures: small standard rings, cached family instances, a
counter of the kernel's Groebner work and a check of QQ's element form."""

from __future__ import annotations

from fractions import Fraction

import pytest

from cmreg import _kernel
from cmreg.ring import PolyRing, field_of_characteristic


@pytest.fixture(scope="session")
def ring3():
    return PolyRing(("x", "y", "z"), field_of_characteristic(32003))


@pytest.fixture(scope="session")
def ring3q():
    return PolyRing(("x", "y", "z"), field_of_characteristic(0))


@pytest.fixture(scope="session")
def fam22():
    from cmreg.families import build_family
    return build_family(2, 2)


@pytest.fixture(scope="session")
def fam12p():
    from cmreg.families import build_family
    return build_family(1, 2, primed=True)


@pytest.fixture(scope="session")
def check_rational_form():
    """A function asserting that each given value is a rational in QQ's
    form, an int or a Fraction of denominator > 1 (never a float, a bool or
    an integral Fraction); it returns how many are Fractions."""
    def check(values):
        fractions = 0
        for c in values:
            if type(c) is Fraction:
                assert c.denominator > 1, repr(c)
                fractions += 1
            else:
                assert type(c) is int, repr(c)
        return fractions

    return check


@pytest.fixture
def count_kernel_work(monkeypatch):
    """A function that starts counting _kernel.buchberger calls, pairs and
    zero reductions and returns the running totals."""
    def start():
        totals = {"calls": 0, "pairs_processed": 0, "zero_reductions": 0}
        kernel_buchberger = _kernel.buchberger

        def counted(ctx, pdicts, *args, **kwargs):
            basis, stats = kernel_buchberger(ctx, pdicts, *args, **kwargs)
            totals["calls"] += 1
            totals["pairs_processed"] += stats["pairs_processed"]
            totals["zero_reductions"] += stats["zero_reductions"]
            return basis, stats

        monkeypatch.setattr(_kernel, "buchberger", counted)
        return totals

    return start
