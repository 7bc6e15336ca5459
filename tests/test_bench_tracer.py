"""The benchmark's tracer binds tpgabor functions by name; keep them bindable."""
import sys
from pathlib import Path

import numpy as np

import tpgabor.cli  # the tracer wraps functions of every loaded tpgabor module

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as is
    import tracing

    main, svd = tpgabor.cli.main, np.linalg.svd
    tracer = tracing.Tracer()  # getattr on every traced name
    tracer.install(0)
    try:
        assert tpgabor.cli.main is not main
        assert np.linalg.svd is not svd
    finally:
        tracer.uninstall()
    assert tpgabor.cli.main is main
    assert np.linalg.svd is svd
