"""Workload definitions: the ops each workload runs and how their outputs are checked.

An op is one user-level call: one ``diagnose`` through the public API, or
one plot-data subcommand through the in-process ``tpgabor.cli.main``.  The
seed only shuffles op order and picks the plot-data ``x`` values (from
``X_MENU``, so that every pick has a frozen reference) and the audit seed;
the program receives nothing but the generated inputs.  Why each workload
exists is written down in README.md next to this file.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

WINDOWS = {
    "gauss": {"kind": "gaussian"},
    "tsexp": {"kind": "two_sided_exp", "rate": 1.0},
    "sech": {"kind": "sech", "a": 1.0},
    "ose": {"kind": "one_sided_exp", "gamma": 1.0},
    "fp3": {"kind": "finite_product", "gamma": 0.0,
            "nus": [1.0, -0.5, 0.25], "nu": 0.0, "c": 1.0},
}

# plot-data x values the seed picks from; each has a frozen reference
X_MENU = tuple(i / 8 for i in range(8))

PLOT_WINDOWS = ("gauss", "sech", "tsexp", "ose")
ZAK_GRID_NS = (128, 256)
ZAK_REF_N = 16               # reference sub-grid: x, xi in (1/16) Z
ZZDET_ALPHA = "15/16"        # p = 15
ZZDET_XI_GRID_N = 2048
ZZDET_REF_STRIDE = 64        # reference rows: every 64th xi
WITNESS_ALPHA = "2/3"
WITNESS_K = 512
AUDIT_ALPHA = "1/2"
AUDIT_TRIALS = 10000

# Stated tolerances of the correctness check.
A_REL_TOL = 0.05      # |lower_bound_est - A_ref| / A_ref on Frame points
ZAK_ATOL = 1e-9       # Zak heatmap values (CLI tail tolerance is 1e-10)
WITNESS_ATOL = 1e-9   # u_k against (-1)^k Zg(delta_k, 1/2)
SIGMA_ATOL = 1e-8     # zzdet sigma_min column
DET_RTOL = 1e-6       # zzdet |det| column: atol = DET_RTOL * max |det ref|
AUDIT_TOL = 1e-10     # scaled minors of a TP section must be >= -AUDIT_TOL

VERDICTS_FRAME = frozenset({"Frame"})
VERDICTS_NOT_FRAME = frozenset({"NotFrame"})


@dataclass(frozen=True)
class DiagnosePoint:
    window: str
    alpha: str
    beta: str
    expected: frozenset

    @property
    def key(self) -> str:
        return f"{self.window}@{self.alpha}x{self.beta}"

    @property
    def has_A_ref(self) -> bool:
        # Frame points carry a reference A; so does the critical-density
        # one-sided exponential, whose A is exact (Janssen 1996)
        return "Frame" in self.expected


def _family_point(win: str, k: int) -> DiagnosePoint:
    # density theorem + paper: Frame iff alpha*beta < 1 (Balian-Low at = 1)
    return DiagnosePoint(win, f"{k}/8", "1",
                         VERDICTS_FRAME if k < 8 else VERDICTS_NOT_FRAME)


def frame_set_scan_points() -> list:
    pts = [_family_point(win, k)
           for win in ("gauss", "tsexp", "sech") for k in range(1, 13)]
    pts += [
        DiagnosePoint("ose", "1/2", "1", VERDICTS_FRAME),
        DiagnosePoint("ose", "1", "1", frozenset({"Frame", "Inconclusive"})),
        DiagnosePoint("fp3", "1/2", "1", VERDICTS_FRAME),
        DiagnosePoint("gauss", "1/3", "3/2", VERDICTS_FRAME),
    ]
    return pts


def fine_lattice_points() -> list:
    return [DiagnosePoint("gauss", a, b, VERDICTS_FRAME)
            for a, b in (("15/16", "1"), ("23/24", "1"), ("31/32", "1"),
                         ("31/64", "2"))]


DIAGNOSE_WORKLOADS = {"frame_set_scan": frame_set_scan_points,
                      "fine_lattice": fine_lattice_points}
WORKLOADS = ("frame_set_scan", "fine_lattice", "plot_data")

# Copies of the op list in one pass.  At the seed a pass takes about 40 s
# (frame_set_scan), 22 s (fine_lattice) and 28 s (plot_data) on 2 cores, so
# a run of 40 s is one pass, and the next pass starts only once the program
# gets about 2x faster.  The tail percentile is fixed by the pass size:
# p74 of frame_set_scan's 40 ops, p91 of plot_data's 112 (among the audit
# ops).  Three copies in fine_lattice make its tail (12 samples: p9) fall
# among the three 15/16 ops.
REPEATS = {"frame_set_scan": 1, "fine_lattice": 3, "plot_data": 4}


def all_diagnose_points() -> list:
    seen, out = set(), []
    for make in DIAGNOSE_WORKLOADS.values():
        for pt in make():
            if pt.key not in seen:
                seen.add(pt.key)
                out.append(pt)
    return out


def zzdet_key(win: str, x: float) -> str:
    return f"{win}@{ZZDET_ALPHA}@x={x!r}"


def witness_key(win: str, x: float) -> str:
    return f"{win}@{WITNESS_ALPHA}@x={x!r}"


# ------------------------------------------------------------------- ops

@dataclass
class Op:
    """One timed call; ``run`` returns the raw output, ``check`` judges it.

    ``check`` returns (failed, wrong, err): ``failed`` for exit code 64,
    ``wrong`` for an output the oracle rejects, and
    ``err`` the op's contribution to ``ref_err_max`` (None if it has none).
    """
    label: str
    entry: str
    run: Callable
    check: Callable


def _lookup(refs: dict, section: str, key: str):
    try:
        return refs[section][key]
    except KeyError:
        raise KeyError(f"no frozen reference {section}[{key!r}]; "
                       "regenerate with bench/gen_refs.py") from None


def make_diagnose_ops(tg, points, refs) -> list:
    """Build windows and lattices now (set-up); the ops call tpgabor.diagnose."""
    ops = []
    for pt in points:
        w = tg.window_from_config(WINDOWS[pt.window])
        lat = tg.reduce(pt.alpha, pt.beta)
        a_ref = _lookup(refs, "A", pt.key) if pt.has_A_ref else None

        def run(w=w, lat=lat):
            return tg.diagnose(w, lat)

        def check(diag, pt=pt, a_ref=a_ref):
            wrong = diag.verdict not in pt.expected
            err = None
            if a_ref is not None:
                est = float(diag.lower_bound_est)
                err = abs(est - a_ref) / a_ref if math.isfinite(est) else 1.0
                wrong = wrong or err > A_REL_TOL
            return False, wrong, err

        ops.append(Op(f"diagnose {pt.key}", "pipeline.diagnose", run, check))
    return ops


def _cli_run(cli_mod, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_mod.main(list(argv))
    return rc, buf.getvalue()


def _csv_array(text: str, header: str, n_rows: int):
    """The numeric rows after ``header`` as an (n_rows, ncols) array."""
    import numpy as np
    _, found, body = text.partition(header + "\n")
    if not found:
        raise ValueError(f"missing CSV header {header!r}")
    arr = np.loadtxt(io.StringIO(body), delimiter=",", comments="#", ndmin=2)
    if arr.shape != (n_rows, header.count(",") + 1):
        raise ValueError(f"expected {n_rows} rows, got {arr.shape}")
    return arr


def _check_zak(text: str, n: int, ref: dict):
    import numpy as np
    rows = _csv_array(text, "x,xi,re,im,abs", n * n)
    x, xi, re, im, ab = rows.T
    # rows are ordered xi-major: row j * n + i holds (x, xi) = (i/n, j/n)
    grid = np.arange(n) / n
    bad = not (np.array_equal(x, np.tile(grid, n))
               and np.array_equal(xi, np.repeat(grid, n))
               and np.allclose(np.hypot(re, im), ab, rtol=1e-12, atol=1e-12))
    s = n // ZAK_REF_N
    sub = rows.reshape(n, n, 5)[::s, ::s]
    gap = max(float(np.max(np.abs(sub[..., 2] - ref["re"]))),
              float(np.max(np.abs(sub[..., 3] - ref["im"]))))
    return bad or gap > ZAK_ATOL, gap / ref["max_abs"]


def _check_zzdet(text: str, ref: dict):
    import numpy as np
    rows = _csv_array(text, "xi,abs_det,sigma_min", ZZDET_XI_GRID_N + 1)
    sub = rows[::ZZDET_REF_STRIDE]
    det_atol = DET_RTOL * max(ref["abs_det"])
    return bool(np.any(np.abs(sub[:, 1] - ref["abs_det"]) > det_atol)
                or np.any(np.abs(sub[:, 2] - ref["sigma_min"]) > SIGMA_ATOL)
                or np.any(rows[:, 2] <= 0.0))


def _check_witness(text: str, ref: dict):
    import numpy as np
    rows = _csv_array(text, "k,u", 2 * WITNESS_K + 1)
    k = rows[:, 0].astype(int)
    if not np.array_equal(k, np.arange(-WITNESS_K, WITNESS_K + 1)):
        return True
    z = np.asarray(ref["z"])
    expected = np.where(k % 2 == 0, 1.0, -1.0) * z[k % len(z)]
    return (bool(np.any(np.abs(rows[:, 1] - expected) > WITNESS_ATOL))
            or "# alternating=True" not in text)


def _check_audit(text: str):
    rep = json.loads(text)
    # the window is totally positive: no sampled minor may be negative
    return not (rep["passed"] is True and rep["trials"] == AUDIT_TRIALS
                and rep["min_scaled_det"] >= -AUDIT_TOL)


def make_plot_ops(cli_mod, rng, refs) -> list:
    """The documented data subcommands; x values and audit seeds from rng."""
    ops = []

    def add(label, argv, judge):
        def check(out, judge=judge):
            rc, text = out
            if rc == 64:
                return True, False, None
            wrong, err = judge(rc, text)
            return False, wrong, err
        ops.append(Op(label, "cli.main",
                      lambda argv=tuple(argv): _cli_run(cli_mod, argv), check))

    for win in PLOT_WINDOWS:
        cfg = json.dumps(WINDOWS[win])
        ref = _lookup(refs, "zak", win)
        for n in ZAK_GRID_NS:
            def judge(rc, text, n=n, ref=ref):
                wrong, err = _check_zak(text, n, ref)
                return wrong or rc != 0, err
            add(f"zak {win} n={n}", ["zak", "--window", cfg, "--grid-n", str(n)],
                judge)
        for _ in range(2):
            x = rng.choice(X_MENU)
            ref = _lookup(refs, "zzdet", zzdet_key(win, x))
            add(f"zzdet {win} x={x}",
                ["zzdet", "--window", cfg, "--alpha", ZZDET_ALPHA, "--x", repr(x),
                 "--xi-grid-n", str(ZZDET_XI_GRID_N)],
                lambda rc, text, ref=ref: (rc != 0 or _check_zzdet(text, ref),
                                           None))
            x = rng.choice(X_MENU)
            ref = _lookup(refs, "witness", witness_key(win, x))
            add(f"witness {win} x={x}",
                ["witness", "--window", cfg, "--alpha", WITNESS_ALPHA,
                 "--x", repr(x), "--K", str(WITNESS_K)],
                lambda rc, text, ref=ref: (rc != 0 or _check_witness(text, ref),
                                           None))
        x = rng.choice(X_MENU)
        seed = rng.randrange(2 ** 31)
        add(f"audit {win} x={x}",
            ["audit", "--window", cfg, "--alpha", AUDIT_ALPHA, "--x", repr(x),
             "--trials", str(AUDIT_TRIALS), "--seed", str(seed)],
            lambda rc, text: (rc != 0 or _check_audit(text), None))
    return ops


def make_ops(workload: str, tg, rng, refs) -> list:
    """The op list of one pass over the workload."""
    if workload in DIAGNOSE_WORKLOADS:
        return REPEATS[workload] * make_diagnose_ops(
            tg, DIAGNOSE_WORKLOADS[workload](), refs)
    if workload == "plot_data":
        cli_mod = sys.modules["tpgabor.cli"]
        return [op for _ in range(REPEATS[workload])
                for op in make_plot_ops(cli_mod, rng, refs)]
    raise ValueError(f"unknown workload {workload!r}")
