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
    """A function that starts counting the kernel's Buchberger runs (those
    of _kernel.buchberger and the tracked runs of _kernel.intersection),
    their pairs and zero reductions, and returns the running totals."""
    def start():
        totals = {"calls": 0, "pairs_processed": 0, "zero_reductions": 0}

        def counted(run):
            def wrapper(*args, **kwargs):
                out, stats = run(*args, **kwargs)
                totals["calls"] += 1
                totals["pairs_processed"] += stats["pairs_processed"]
                totals["zero_reductions"] += stats["zero_reductions"]
                return out, stats
            return wrapper

        for name in ("buchberger", "intersection"):
            monkeypatch.setattr(_kernel, name, counted(getattr(_kernel, name)))
        return totals

    return start
