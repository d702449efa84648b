"""The benchmark's tracer still finds every library attribute it wraps.

``perfbench/tracing.py`` replaces module attributes such as
``gram.bessel_j0`` with timing wrappers. A library rename that drops one
of them breaks the traced benchmark run; this test makes it fail the
unit tests as well.
"""

import importlib
from pathlib import Path

from apsrec import gram as gram_module
from apsrec import plv
from apsrec.core import ArrayConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls_every_site(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    originals = [getattr(module, attr) for module, attr, _, _ in tracing.SITES]
    tracer = tracing.Tracer()
    # An empty Gram slot, so that the recovery assembles a Gram and calls J0.
    monkeypatch.setattr(gram_module, "_cached", None)
    tracer.install(0)
    try:
        plv.recover([1.0, 0.2, 0.1], ArrayConfig(3, 1.17))
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr, _, _ in tracing.SITES] == originals
    totals, _, _ = tracing.layer_totals(tracer.spans)
    assert totals["specfun.j0"]["count"] == 5
    assert totals["plv.recover"]["calls"] == 1
