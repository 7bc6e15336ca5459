"""Regenerate bench/refs.json, the frozen references of the correctness check.

    python3 bench/gen_refs.py            # from the repository root

Every reference value is computed here by direct summation, not through the
package's Zak, Zibulski or pre-Gramian code: the package is used only to
evaluate the windows and, for the plot-data references, to select the same
perturbation the CLI selects (``locate_zero`` + ``select_perturbation``).

* ``A``: the lower frame bound min_{x, xi} sigma_min(B(x, xi))^2 of the dense
  q x p transfer window B(x, xi)_{ab} = Z_p g(x + alpha a - b, xi), with x
  over [0, 1/q) (the spectrum is 1/q-periodic in x) and xi over [0, 1/p]:
  a 128 x 2049 grid, then five rounds of local 9 x 9 zooming around the
  eight best grid cells.
* ``zak``: Zg(x, xi) on the (1/16)Z sub-grid of the zak heatmap.
* ``zzdet``: |det A(xi)| and sigma_min A(xi) on every 64th row of the zzdet
  landscape, for every x the seed can pick.
* ``witness``: Zg(delta_r, 1/2) for each residue r, for every x the seed
  can pick; the witness is u_k = (-1)^k Zg(delta_{k mod p}, 1/2).

Sums run over every term with |argument| <= SPAN, where every window here is
below 1e-26.
"""
from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tpgabor as tg  # noqa: E402
import workloads as wl  # noqa: E402

SPAN = 60.0
X_GRID_N = 128
XI_GRID_N = 2048
ZOOM_ROUNDS = 5
ZOOM_CELLS = 8


def zak_sum(g, p: int, pts: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """Z_p g(t, xi) = sum_k g(t - p k) e^{2 pi i p k xi}; shape (len(pts), len(xis))."""
    pts = np.asarray(pts, dtype=float).ravel()
    kmax = int(math.ceil((SPAN + np.max(np.abs(pts))) / p)) + 1
    k = np.arange(-kmax, kmax + 1)
    arg = pts[:, None] - p * k[None, :]
    gv = np.where(np.abs(arg) <= SPAN, g(arg), 0.0)
    return gv @ np.exp(2j * math.pi * p * np.outer(k, xis))


def transfer_smin2(g, p: int, q: int, xs, xis) -> np.ndarray:
    """sigma_min(B(x, xi))^2 on the grid xs x xis; shape (len(xs), len(xis))."""
    alpha = p / q
    out = np.empty((len(xs), len(xis)))
    a = np.arange(q)[:, None]
    b = np.arange(p)[None, :]
    for i, x in enumerate(xs):
        pts = (x + alpha * a - b).ravel()
        B = np.moveaxis(zak_sum(g, p, pts, xis).reshape(q, p, len(xis)), 2, 0)
        out[i] = np.linalg.svd(B, compute_uv=False)[:, -1] ** 2
    return out


def reference_A(g, lat) -> float:
    p, q = lat.p, lat.q
    xs = np.arange(X_GRID_N) / (X_GRID_N * q)
    xis = np.linspace(0.0, 1.0 / p, XI_GRID_N + 1)
    grid = transfer_smin2(g, p, q, xs, xis)
    best = float(grid.min())
    hx, hxi = xs[1] - xs[0], xis[1] - xis[0]
    for flat in np.argsort(grid, axis=None)[:ZOOM_CELLS]:
        i, j = np.unravel_index(flat, grid.shape)
        cx, cxi, wx, wxi = xs[i], xis[j], hx, hxi
        for _ in range(ZOOM_ROUNDS):
            lx = np.linspace(cx - wx, cx + wx, 9)
            lxi = np.clip(np.linspace(cxi - wxi, cxi + wxi, 9), 0.0, 1.0 / p)
            loc = transfer_smin2(g, p, q, lx, lxi)
            ii, jj = np.unravel_index(np.argmin(loc), loc.shape)
            best = min(best, float(loc[ii, jj]))
            cx, cxi, wx, wxi = lx[ii], lxi[jj], wx / 4, wxi / 4
    return best


def cli_perturbation(g, lat, x):
    """The perturbation the CLI plot commands select (cli._pert_for)."""
    try:
        x0 = tg.locate_zero(g, grid_n=256, zero_tol=1e-10).x0
    except tg.ZakZeroNotFound as e:
        x0 = float(e.argmin[0]) % 1.0 if e.argmin is not None else 0.5
    return tg.select_perturbation(lat, x, x0, M=tg.choose_M(x0 % 1.0))


def main() -> int:
    refs = {"A": {}, "zak": {}, "zzdet": {}, "witness": {},
            "meta": {"generator": "bench/gen_refs.py", "span": SPAN,
                     "A_grid": [X_GRID_N, XI_GRID_N + 1],
                     "A_zoom": [ZOOM_ROUNDS, ZOOM_CELLS]}}
    t0 = time.perf_counter()
    for pt in wl.all_diagnose_points():
        if not pt.has_A_ref:
            continue
        lat = tg.reduce(pt.alpha, pt.beta)
        g = tg.effective_window(tg.window_from_config(wl.WINDOWS[pt.window]), lat)
        refs["A"][pt.key] = reference_A(g, lat)
        print(f"A {pt.key}: {refs['A'][pt.key]!r}", flush=True)

    sub = np.arange(wl.ZAK_REF_N) / wl.ZAK_REF_N
    n = max(wl.ZAK_GRID_NS)
    for win in wl.PLOT_WINDOWS:
        g = tg.window_from_config(wl.WINDOWS[win])
        Z = zak_sum(g, 1, sub, sub).T              # rows xi, columns x
        full = zak_sum(g, 1, np.arange(n) / n, np.arange(n) / n)
        refs["zak"][win] = {"re": Z.real.tolist(), "im": Z.imag.tolist(),
                            "max_abs": float(np.max(np.abs(full)))}

    lat = tg.reduce(wl.ZZDET_ALPHA, 1)
    p = lat.p
    xis = np.linspace(0.0, 1.0 / p, wl.ZZDET_XI_GRID_N + 1)[::wl.ZZDET_REF_STRIDE]
    for win in wl.PLOT_WINDOWS:
        g = tg.window_from_config(wl.WINDOWS[win])
        for x in wl.X_MENU:
            pert = cli_perturbation(g, lat, x)
            pts = np.array([[r + pert.delta(r) - c for c in range(p)]
                            for r in range(p)])
            A = np.moveaxis(zak_sum(g, p, pts, xis).reshape(p, p, len(xis)), 2, 0)
            refs["zzdet"][wl.zzdet_key(win, x)] = {
                "abs_det": np.abs(np.linalg.det(A)).tolist(),
                "sigma_min": np.linalg.svd(A, compute_uv=False)[:, -1].tolist()}

    lat = tg.reduce(wl.WITNESS_ALPHA, 1)
    for win in wl.PLOT_WINDOWS:
        g = tg.window_from_config(wl.WINDOWS[win])
        for x in wl.X_MENU:
            pert = cli_perturbation(g, lat, x)
            z = zak_sum(g, 1, [pert.delta(r) for r in range(lat.p)],
                        np.array([0.5]))[:, 0]
            refs["witness"][wl.witness_key(win, x)] = {"z": z.real.tolist()}

    out = HERE / "refs.json"
    out.write_text(json.dumps(refs, sort_keys=True) + "\n")
    print(f"wrote {out} in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
