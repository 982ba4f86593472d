"""The benchmark's per-layer tracer still fits the program.

cmbench/layers.py patches cmreg functions by name for a traced pass; a name
it wraps that the program no longer has breaks ``cmbench/run.py --trace 1``.
This test installs the tracer and uninstalls it, reading cmbench/ only.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

CMBENCH = Path(__file__).resolve().parent.parent / "cmbench"


def _bindings(cm):
    """Every binding in a cmreg module and in the classes the tracer patches."""
    out = {}
    for m in list(sys.modules.values()):
        if getattr(m, "__name__", "").startswith("cmreg"):
            out.update(((m.__name__, k), v) for k, v in vars(m).items())
    for cls in (cm["groebner"].Ideal, cm["groebner"].GroebnerBasis):
        out.update(((cls.__qualname__, k), v) for k, v in vars(cls).items())
    return out


def test_tracer_installs_and_restores_every_patched_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(CMBENCH))
    run, layers = importlib.import_module("run"), importlib.import_module("layers")
    cm = run.import_cmreg()
    before = _bindings(cm)
    tracer = layers.Tracer(cm)
    try:
        tracer.install()
        during = _bindings(cm)
    finally:
        tracer.uninstall()
    patched = {k for k in before if during[k] is not before[k]}
    assert all(during[k].__wrapped__ is before[k] for k in patched)
    covered = {name.rsplit(".", 1)[1] for names in layers.COVERAGE.values() for name in names}
    assert covered <= {attr for _, attr in patched}
    after = _bindings(cm)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
