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


def test_diagnose_span_counts(monkeypatch):
    # the traced benchmark's coverage gate needs diagnose's work inside
    # spans: at sech 1/2 its 8 certificate x share one injectivity scan
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as is
    import tracing

    from tpgabor import pipeline
    from tpgabor.lattice import reduce
    from tpgabor.windows import HyperbolicSecant

    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        pipeline.diagnose(HyperbolicSecant(a=1.0), reduce("4/8", 1))
    finally:
        tracer.uninstall()
    spans = tracer.spans
    root = [i for i, s in enumerate(spans) if s[1] == "pipeline.diagnose"]
    assert len(root) == 1

    def under_root(i):
        while i != -1:
            i = spans[i][2]
            if i == root[0]:
                return True
        return False

    names = [s[1] for i, s in enumerate(spans) if under_root(i)]
    assert names.count("zibulski.injectivity_scan") == 1
    assert names.count("lattice.select_perturbation") == 8
    assert names.count("tpmatrix.alternating_witness") == 8
    assert names.count("pregramian.frame_bounds") == 1
    assert names.count("zak.locate_zero") == 1
