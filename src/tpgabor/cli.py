"""Command-line interface: diagnose, scan, bounds, zak, zzdet, witness, audit.

All outputs are deterministic for a fixed configuration: iteration orders
are fixed, randomized audits take an explicit seed, and scan workers are
assembled in input order regardless of completion order.

Exit codes: 0 = Frame, 1 = NotFrame, 2 = Inconclusive, 64 = bad config.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from multiprocessing import Pool

import numpy as np

from .lattice import LatticeError, as_fraction, choose_M, reduce, select_perturbation
from .pipeline import PipelineOptions, diagnose, diagnosis_min_sigma, effective_window
from .pregramian import frame_bounds
from .tpmatrix import build_G, alternating_witness, tp_minor_audit
from .windows import WindowError, window_from_config
from .zak import ZakZeroNotFound, locate_zero, zak_values
from .zibulski import _A_stack

EXIT_BAD_CONFIG = 64
_VERDICT_EXIT = {"Frame": 0, "NotFrame": 1, "Inconclusive": 2}


class ConfigError(ValueError):
    pass


def _load_window(spec: str):
    if spec is None:
        raise ConfigError("--window is required")
    text = spec
    if spec.startswith("@"):
        with open(spec[1:]) as fh:
            text = fh.read()
    elif spec.endswith(".json") and os.path.exists(spec):
        with open(spec) as fh:
            text = fh.read()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"window config is not valid JSON: {e}")
    try:
        return window_from_config(cfg)
    except WindowError as e:
        raise ConfigError(str(e))


def _parse_rational(text: str, name: str) -> Fraction:
    try:
        frac = as_fraction(text)
    except (LatticeError, ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"cannot parse {name} = {text!r}: {e}")
    if frac <= 0:
        raise ConfigError(f"{name} must be positive")
    if "/" not in str(text) and "." in str(text):
        print(f"warning: {name} = {text} rationalized to {frac} "
              "(theory covers rational alpha*beta only)", file=sys.stderr)
    return frac


def _options(args) -> PipelineOptions:
    ladder = tuple(int(s) for s in str(args.j_ladder).split(","))
    opts = PipelineOptions(
        x_grid_n=args.x_grid_n, xi_grid_n=args.xi_grid_n,
        J_ladder=ladder, zak_grid_n=args.zak_grid_n,
        cert_x_grid_n=args.cert_x_grid_n,
        tail_tol=args.tail_tol, zero_tol=args.zero_tol,
        sigma_tol=args.sigma_tol)
    try:
        opts.validate()
    except ValueError as e:
        raise ConfigError(str(e))
    return opts


def _emit(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------- diagnose

def cmd_diagnose(args) -> int:
    w = _load_window(args.window)
    lat = reduce(_parse_rational(args.alpha, "alpha"),
                 _parse_rational(args.beta, "beta"))
    if lat.alpha > 2:
        raise ConfigError("alpha*beta outside the supported range (0, 2]")
    opts = _options(args)
    diag = diagnose(w, lat, opts)
    payload = diag.to_dict()
    payload["alpha"] = str(_parse_rational(args.alpha, "alpha"))
    payload["beta"] = str(_parse_rational(args.beta, "beta"))
    payload["alpha_beta"] = str(lat.alpha)
    _emit(_json_dump(payload), args.output)
    return _VERDICT_EXIT[diag.verdict]


# -------------------------------------------------------------------- scan

def _scan_point(job):
    window_cfg, alpha_str, beta_str, opts_kw = job
    w = window_from_config(window_cfg)
    lat = reduce(as_fraction(alpha_str), as_fraction(beta_str))
    opts = PipelineOptions(**opts_kw)
    try:
        diag = diagnose(w, lat, opts)
        return {"alpha": alpha_str, "beta": beta_str,
                "alphabeta": str(lat.alpha), "verdict": diag.verdict,
                "A_est": diag.lower_bound_est,
                "min_sigma": diagnosis_min_sigma(diag), "error": ""}
    except Exception as e:  # record the failure, keep scanning
        return {"alpha": alpha_str, "beta": beta_str,
                "alphabeta": str(lat.alpha), "verdict": "Error",
                "A_est": None, "min_sigma": None, "error": str(e)}


def cmd_scan(args) -> int:
    w = _load_window(args.window)
    beta = _parse_rational(args.beta, "beta")
    alphas = [s.strip() for s in args.alphas.split(",") if s.strip()] \
        if args.alphas else []
    for a in alphas:
        ab = _parse_rational(a, "alpha") * beta
        if not 0 < ab <= 2:
            raise ConfigError(f"alpha*beta = {ab} outside (0, 2]")
    opts = _options(args)
    jobs = args.jobs or int(os.environ.get("TPGABOR_JOBS", "1"))
    work = [(w.config(), a, str(beta), opts.__dict__.copy()) for a in alphas]
    if jobs > 1 and len(work) > 1:
        with Pool(processes=jobs) as pool:
            rows = pool.map(_scan_point, work)
    else:
        rows = [_scan_point(j) for j in work]
    cols = ["alpha", "beta", "alphabeta", "verdict", "A_est", "min_sigma", "error"]
    lines = ["# schema=tpgabor-scan-v1", ",".join(cols)]
    for r in rows:
        lines.append(",".join(_fmt(r[c]) for c in cols))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


# ------------------------------------------------------------------ bounds

def cmd_bounds(args) -> int:
    """Frame bounds from the transfer window, cross-checked by the ladder."""
    w = _load_window(args.window)
    lat = reduce(_parse_rational(args.alpha, "alpha"),
                 _parse_rational(args.beta, "beta"))
    if lat.alpha > 2:
        raise ConfigError("alpha*beta outside the supported range (0, 2]")
    opts = _options(args)
    g = effective_window(w, lat)
    diag = frame_bounds(g, lat, x_grid_n=opts.x_grid_n,
                        J_ladder=opts.J_ladder, tail_tol=opts.tail_tol)
    trace = next((e for e in diag.evidence if e.get("kind") == "sigma_ladder"), None)
    payload = {"verdict": diag.verdict, "A_est": diag.lower_bound_est,
               "B_est": diag.upper_bound_est, "worst_x": diag.worst_x,
               "ladder_trace": trace}
    _emit(_json_dump(payload), args.output)
    return _VERDICT_EXIT[diag.verdict]


# --------------------------------------------------------------------- zak

def cmd_zak(args) -> int:
    w = _load_window(args.window)
    n = args.grid_n
    if n < 8:
        raise ConfigError("zak grid_n must be >= 8")
    xs = np.arange(n) / n
    xis = np.arange(n) / n
    lines = ["# schema=tpgabor-zak-v1", "x,xi,re,im,abs"]
    for xi in xis:
        zs = zak_values(w, 1.0, xs, float(xi), args.tail_tol)
        for x, z in zip(xs, zs):
            lines.append(f"{float(x)!r},{float(xi)!r},{float(z.real)!r},"
                         f"{float(z.imag)!r},{float(abs(z))!r}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


# ------------------------------------------------------------------- zzdet

def _pert_for(w, lat, x, opts):
    try:
        zz = locate_zero(w, grid_n=opts.zak_grid_n, zero_tol=opts.zero_tol)
        x0 = zz.x0
    except ZakZeroNotFound as e:
        x0 = float(e.argmin[0]) % 1.0 if e.argmin is not None else 0.5
    return select_perturbation(lat, x, x0, M=choose_M(x0 % 1.0))


def cmd_zzdet(args) -> int:
    w = _load_window(args.window)
    lat = reduce(_parse_rational(args.alpha, "alpha"),
                 _parse_rational(args.beta, "beta"))
    lat.require_frame_candidate()
    opts = _options(args)
    g = effective_window(w, lat)
    pert = _pert_for(g, lat, args.x, opts)
    xis = np.linspace(0.0, 1.0 / lat.p, opts.xi_grid_n + 1)
    A = _A_stack(g, lat, pert, xis, opts.tail_tol)
    sig = np.linalg.svd(A, compute_uv=False)
    dets = np.abs(np.linalg.det(A))
    lines = ["# schema=tpgabor-zzdet-v1", "xi,abs_det,sigma_min"]
    for xi, d, s in zip(xis, dets, sig[:, -1]):
        lines.append(f"{float(xi)!r},{float(d)!r},{float(s)!r}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


# ----------------------------------------------------------------- witness

def cmd_witness(args) -> int:
    w = _load_window(args.window)
    lat = reduce(_parse_rational(args.alpha, "alpha"),
                 _parse_rational(args.beta, "beta"))
    lat.require_frame_candidate()
    opts = _options(args)
    g = effective_window(w, lat)
    pert = _pert_for(g, lat, args.x, opts)
    wit = alternating_witness(g, pert, K=args.K, tail_tol=opts.tail_tol)
    lines = ["# schema=tpgabor-witness-v1", "k,u"]
    for k, u in zip(wit.ks, wit.u):
        lines.append(f"{int(k)},{float(u)!r}")
    lines.append(f"# nu={wit.nu!r}")
    lines.append(f"# alternating={wit.sign_pattern_ok}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


# ------------------------------------------------------------------- audit

def cmd_audit(args) -> int:
    w = _load_window(args.window)
    lat = reduce(_parse_rational(args.alpha, "alpha"),
                 _parse_rational(args.beta, "beta"))
    lat.require_frame_candidate()
    opts = _options(args)
    g = effective_window(w, lat)
    pert = _pert_for(g, lat, args.x, opts)
    sec = build_G(g, pert, K=args.K, tail_tol=opts.tail_tol)
    rep = tp_minor_audit(sec, n_max=args.n_max, trials=args.trials,
                         seed=args.seed)
    payload = {"trials": rep.trials, "n_max": rep.n_max,
               "min_det": rep.min_det, "min_scaled_det": rep.min_scaled_det,
               "passed": rep.passed}
    _emit(_json_dump(payload), args.output)
    return 0 if rep.passed else 1


# ------------------------------------------------------------------ parser

def _add_common(sp):
    sp.add_argument("--window", help="window JSON spec, @file, or *.json path")
    sp.add_argument("--alpha", default="1/2")
    sp.add_argument("--beta", default="1")
    sp.add_argument("--tail-tol", type=float, default=1e-10)
    sp.add_argument("--zero-tol", type=float, default=1e-10)
    sp.add_argument("--sigma-tol", type=float, default=1e-8)
    sp.add_argument("--x-grid-n", type=int, default=64)
    sp.add_argument("--xi-grid-n", type=int, default=128)
    sp.add_argument("--zak-grid-n", type=int, default=256)
    sp.add_argument("--cert-x-grid-n", type=int, default=16)
    sp.add_argument("--j-ladder", default="16,32,64")
    sp.add_argument("--output", default=None)
    sp.add_argument("--config", default=None,
                    help="JSON config file; explicit flags win")


def build_parser(defaults=None) -> argparse.ArgumentParser:
    """The CLI parser; ``defaults`` (e.g. from --config) override flag defaults."""
    ap = argparse.ArgumentParser(
        prog="tpgabor",
        description="Gabor frame certification for totally positive windows "
                    "over rational lattices")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("diagnose", help="full certification pipeline")
    _add_common(sp)
    sp.set_defaults(func=cmd_diagnose)

    sp = sub.add_parser("scan", help="phase-diagram scan over alpha values")
    _add_common(sp)
    sp.add_argument("--alphas", required=True,
                    help="comma-separated rationals, e.g. 1/8,2/8,3/8")
    sp.add_argument("--jobs", type=int, default=None)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("bounds", help="frame-bound estimate only")
    _add_common(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("zak", help="Zak transform heatmap CSV")
    _add_common(sp)
    sp.add_argument("--grid-n", type=int, default=128)
    sp.set_defaults(func=cmd_zak)

    sp = sub.add_parser("zzdet", help="injectivity landscape CSV")
    _add_common(sp)
    sp.add_argument("--x", type=float, default=0.0)
    sp.set_defaults(func=cmd_zzdet)

    sp = sub.add_parser("witness", help="alternating witness vector")
    _add_common(sp)
    sp.add_argument("--x", type=float, default=0.0)
    sp.add_argument("--K", type=int, default=16)
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("audit", help="randomized TP minor audit")
    _add_common(sp)
    sp.add_argument("--x", type=float, default=0.0)
    sp.add_argument("--K", type=int, default=16)
    sp.add_argument("--n-max", type=int, default=6)
    sp.add_argument("--trials", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_audit)
    for sp in sub.choices.values():
        sp.set_defaults(**(defaults or {}))
    return ap


def _read_config(path) -> dict:
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.config:
            # config values become the subcommand's defaults, so explicit
            # flags win and string values go through each flag's type
            known = set(vars(args)) - {"command", "func", "config"}
            cfg = {k.replace("-", "_"): v
                   for k, v in _read_config(args.config).items()}
            args = build_parser({k: v for k, v in cfg.items()
                                 if k in known}).parse_args(argv)
        return args.func(args)
    except (ConfigError, LatticeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
