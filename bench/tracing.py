"""Spans and counters around tpgabor's public functions, from outside the package.

The program under test is not modified: ``Tracer.install`` replaces each
wrapped function at every binding site (the defining module and every
``tpgabor`` module or package namespace that imported it by name, e.g.
``pipeline.frame_bounds`` and ``cli._A_stack``), the window classes'
``__call__`` and ``numpy.linalg.svd``; ``uninstall`` puts the originals
back, so untraced ops run the pristine bindings.

A span is [op, name, parent, start, end]; spans live in memory and are
written out once, at the end of the run.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function) pairs that get a span named "<module>.<function>"
SPANNED = (
    ("zak", "locate_zero"), ("zak", "zak_values"),
    ("lattice", "select_perturbation"),
    ("tpmatrix", "alternating_witness"), ("tpmatrix", "tp_minor_audit"),
    ("tpmatrix", "build_G"),
    ("zibulski", "injectivity_scan"), ("zibulski", "_A_stack"),
    ("pregramian", "frame_bounds"), ("pregramian", "pregramian_section"),
    ("pregramian", "upper_bound_cert"),
    ("pipeline", "diagnose"),
    ("cli", "main"),
)
ENTRY_SPANS = ("pipeline.diagnose", "cli.main")


def _svd_flops(shape, is_complex: bool) -> float:
    """Values-only SVD cost from the shape: 4 m n^2 - 4 n^3 / 3 per matrix
    (Golub-Kahan bidiagonalisation, m >= n), times 4 for complex input."""
    m, n = max(shape[-2:]), min(shape[-2:])
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    return batch * (4.0 * m * n * n - 4.0 * n ** 3 / 3.0) * (4 if is_complex else 1)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = defaultdict(float)
        self.max_section = (0, 0)
        self._win_depth = 0
        self._patches = []
        self._build()

    # ----------------------------------------------------------- wrappers
    def _span_wrapper(self, name, fn, on_exit=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [self.op, name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(args, kwargs, out)
            return out
        return wrapper

    def _window_wrapper(self, call):
        counts, clock = self.counts, time.perf_counter

        @functools.wraps(call)
        def wrapper(w, t):
            if self._win_depth:          # Dilated evaluating its base window
                return call(w, t)
            self._win_depth = 1
            t0 = clock()
            try:
                return call(w, t)
            finally:
                counts["windows.eval_s"] += clock() - t0
                counts["windows.eval_calls"] += 1
                counts["windows.eval_points"] += np.size(t)
                self._win_depth = 0
        return wrapper

    def _svd_wrapper(self, svd):
        counts, spans, stack = self.counts, self.spans, self.stack

        @functools.wraps(svd)
        def wrapper(a, *args, **kwargs):
            out = svd(a, *args, **kwargs)
            layer = spans[stack[-1]][1].split(".")[0] if stack else "bench"
            arr = np.asarray(a)
            counts[f"{layer}.svd_calls"] += 1
            counts[f"{layer}.svd_flops"] += _svd_flops(arr.shape,
                                                       np.iscomplexobj(arr))
            return out
        return wrapper

    def _on_section(self, args, kwargs, sec):
        self.counts["pregramian.section_elems"] += sec.entries.size
        self.max_section = max(self.max_section, tuple(sec.entries.shape))

    def _on_zak_values(self, args, kwargs, out):
        self.counts["zak.zak_values.points"] += np.size(out)

    def _build(self):
        """List (owner, attribute, original, replacement) for every binding site."""
        tg_modules = [m for n, m in sorted(sys.modules.items())
                      if n == "tpgabor" or n.startswith("tpgabor.")]
        hooks = {"pregramian.pregramian_section": self._on_section,
                 "zak.zak_values": self._on_zak_values}
        for mod_name, fn_name in SPANNED:
            mod = sys.modules[f"tpgabor.{mod_name}"]   # tpgabor.zak is a function
            orig = getattr(mod, fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapped = self._span_wrapper(name, orig, hooks.get(name))
            for m in tg_modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, attr, orig, wrapped))
        win_mod = sys.modules["tpgabor.windows"]
        pending = [win_mod.TPWindow]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "__call__" in vars(cls) and cls is not win_mod.TPWindow:
                orig = vars(cls)["__call__"]
                self._patches.append((cls, "__call__", orig,
                                      self._window_wrapper(orig)))
        self._patches.append((np.linalg, "svd", np.linalg.svd,
                              self._svd_wrapper(np.linalg.svd)))

    def install(self, op: int):
        self.op = op
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)
        self.op = -1

    @contextlib.contextmanager
    def span(self, op: int):
        """Root span ("bench.op") of one op, opened by the benchmark itself."""
        rec = [op, "bench.op", -1, 0.0, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[3] = time.perf_counter()
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self.stack.pop()

    # ----------------------------------------------------------- analysis
    def summary(self, passes: int):
        """(per-layer totals per pass over the op list, per-op coverage)."""
        spans = self.spans
        children = defaultdict(list)
        for i, s in enumerate(spans):
            children[s[2]].append(i)

        def dur(i):
            return spans[i][4] - spans[i][3]

        busy = defaultdict(float)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (op, name, parent, t0, t1) in enumerate(spans):
            if parent == -1:
                continue
            calls[name] += 1
            anc = parent
            while anc != -1 and spans[anc][1] != name:
                anc = spans[anc][2]
            if anc == -1:                       # outermost span of this name
                busy[name] += t1 - t0
            self_s[name] += (t1 - t0) - sum(dur(c) for c in children[i])

        # (op, entry span, share of op time under the entry's children, op time)
        coverage = []
        for i, (op, name, parent, t0, t1) in enumerate(spans):
            if parent != -1:
                continue
            entry = [c for c in children[i] if spans[c][1] in ENTRY_SPANS]
            covered = sum(dur(g) for e in entry for g in children[e])
            coverage.append((op, spans[entry[0]][1] if entry else None,
                             covered / max(t1 - t0, 1e-12), t1 - t0))

        out = {f"{n}.busy_s": v / passes for n, v in busy.items()}
        out.update({f"{n}.calls": v / passes for n, v in calls.items()})
        out.update({f"{n.split('.')[0]}.self_s": v / passes
                    for n, v in self_s.items() if n in ENTRY_SPANS})
        out.update({k: v / passes for k, v in self.counts.items()})
        op_s = sum(c[3] for c in coverage)
        out["trace.op_s"] = op_s / passes
        out["trace.coverage"] = sum(c[2] * c[3] for c in coverage) / max(op_s, 1e-12)
        return out, coverage

    def dump(self, path, ops: list):
        with open(path, "w") as fh:
            json.dump({"fields": ["op", "name", "parent", "start_s", "end_s"],
                       "ops": ops, "spans": self.spans}, fh)
