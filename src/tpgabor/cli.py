"""Command-line interface: diagnose, scan, bounds, zak, zzdet, witness, audit.

The CLI parses, validates and formats; every number it prints comes from
the library.  The lattice subcommands read their window, lattice and
options through ``_setup``; the data commands add their perturbation
through ``_perturbation``, anchored as in ``diagnose``.  The option flags
are generated from ``PipelineOptions`` and have no defaults of their own.

All outputs are deterministic for a fixed configuration: iteration orders
are fixed, randomized audits take an explicit seed, and scan workers are
assembled in input order regardless of completion order.

Exit codes: 0 = Frame, 1 = NotFrame, 2 = Inconclusive, 64 = bad input
(a malformed flag, config file, window spec or TPGABOR_JOBS value).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from fractions import Fraction
from multiprocessing import Pool

import numpy as np

from .lattice import LatticeError, as_fraction, reduce, select_perturbation
from .pipeline import (PipelineOptions, diagnose, diagnosis_min_sigma,
                       effective_window, zak_anchor)
from .pregramian import PregramianError, frame_bounds
from .tpmatrix import (MINOR_N_MAX, TPMatrixError, alternating_witness, build_G,
                       tp_minor_audit)
from .windows import WindowError, window_from_config
from .zak import ZakError, zak_bank
from .zibulski import ZibulskiError, a_landscape

EXIT_BAD_CONFIG = 64
_VERDICT_EXIT = {"Frame": 0, "NotFrame": 1, "Inconclusive": 2}
# failures of one scan point that the scan records as an "Error" row
_DOMAIN_ERRORS = (LatticeError, WindowError, ZakError, ZibulskiError,
                  PregramianError, TPMatrixError, np.linalg.LinAlgError)


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports malformed arguments as ConfigError (exit 64), not exit 2."""

    def error(self, message):
        raise ConfigError(message)


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


def _finite_float(text: str) -> float:
    """A float flag value; nan and +-inf are bad input, not a crash later."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"{text!r} is not a finite number")
    return value


def _ladder(text: str) -> tuple:
    return tuple(int(s) for s in text.split(","))


def _options(args) -> PipelineOptions:
    """PipelineOptions from the flags given; absent flags keep its defaults."""
    given = ((f.name, getattr(args, f.name.lower()))
             for f in fields(PipelineOptions))
    opts = PipelineOptions(**{k: v for k, v in given if v is not None})
    try:
        opts.validate()
    except ValueError as e:
        raise ConfigError(str(e))
    return opts


def _setup(args, candidate=False):
    """(window, reduced lattice, options) of a lattice subcommand.

    ``candidate`` requires alpha*beta < 1 (the data commands plot
    certificates that exist only there); otherwise alpha*beta <= 2.
    """
    w = _load_window(args.window)
    lat = reduce(_parse_rational(args.alpha, "alpha"),
                 _parse_rational(args.beta, "beta"))
    if candidate:
        lat.require_frame_candidate()
    elif lat.alpha > 2:
        raise ConfigError("alpha*beta outside the supported range (0, 2]")
    return w, lat, _options(args)


def _perturbation(args, periods=None):
    """(dilated window, lattice, options, perturbation at --x) of a data command.

    With ``periods``, --K must be at least ``periods * p``; it is checked
    before any numerics.
    """
    w, lat, opts = _setup(args, candidate=True)
    if periods is not None and args.K < periods * lat.p:
        raise ConfigError(f"--K = {args.K} must be >= {periods * lat.p}")
    g = effective_window(w, lat)
    return g, lat, opts, select_perturbation(lat, args.x, zak_anchor(g, opts)[0])


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


def _reprs(a) -> list:
    """``repr`` of each element of a 1-d array (float or int), in one C pass."""
    return repr(a.tolist())[1:-1].split(", ") if a.size else []


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------- diagnose

def cmd_diagnose(args) -> int:
    w, lat, opts = _setup(args)
    diag = diagnose(w, lat, opts)
    payload = diag.to_dict()
    payload["alpha"] = str(lat.alpha / lat.beta_original)
    payload["beta"] = str(lat.beta_original)
    payload["alpha_beta"] = str(lat.alpha)
    _emit(_json_dump(payload), args.output)
    return _VERDICT_EXIT[diag.verdict]


# -------------------------------------------------------------------- scan

def _scan_point(job):
    """One CSV row: alpha, beta, alphabeta, verdict, A_est, min_sigma, error."""
    w, alpha_str, beta_str, lat, opts = job
    row = [alpha_str, beta_str, str(lat.alpha)]
    try:
        diag = diagnose(w, lat, opts)
    except _DOMAIN_ERRORS as e:  # record the failure, keep scanning
        return row + ["Error", None, None, f"{type(e).__name__}: {e}"]
    return row + [diag.verdict, diag.lower_bound_est,
                  diagnosis_min_sigma(diag), ""]


def cmd_scan(args) -> int:
    w = _load_window(args.window)
    beta = _parse_rational(args.beta, "beta")
    alphas = [s.strip() for s in args.alphas.split(",") if s.strip()]
    lats = [reduce(_parse_rational(a, "alpha"), beta) for a in alphas]
    for lat in lats:
        if lat.alpha > 2:
            raise ConfigError(f"alpha*beta = {lat.alpha} outside (0, 2]")
    opts = _options(args)
    work = [(w, a, str(beta), lat, opts) for a, lat in zip(alphas, lats)]
    if (args.jobs or 1) > 1 and len(work) > 1:
        with Pool(processes=args.jobs) as pool:
            rows = pool.map(_scan_point, work)
    else:
        rows = [_scan_point(j) for j in work]
    lines = ["# schema=tpgabor-scan-v1",
             "alpha,beta,alphabeta,verdict,A_est,min_sigma,error"]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


# ------------------------------------------------------------------ bounds

def cmd_bounds(args) -> int:
    """Frame bounds from the transfer window, cross-checked by the ladder."""
    w, lat, opts = _setup(args)
    diag = frame_bounds(effective_window(w, lat), lat, x_grid_n=opts.x_grid_n,
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
    grid = np.arange(n) / n
    table = zak_bank(w, 1.0, grid, grid, _options(args).tail_tol)  # [x, xi]
    lines = ["# schema=tpgabor-zak-v1", "x,xi,re,im,abs"]
    xs = _reprs(grid)
    for xi, zs in zip(xs, table.T):  # one xi row at a time keeps memory flat
        re, im = zs.real, zs.imag
        lines += [f"{x},{xi},{r},{i},{a}" for x, r, i, a in
                  zip(xs, _reprs(re), _reprs(im), _reprs(np.hypot(re, im)))]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


# ------------------------------------------------------------------- zzdet

def cmd_zzdet(args) -> int:
    g, lat, opts, pert = _perturbation(args)
    xis = np.linspace(0.0, 1.0 / lat.p, opts.xi_grid_n + 1)
    sig, dets = a_landscape(g, lat, pert, xis, opts.tail_tol)
    lines = ["# schema=tpgabor-zzdet-v1", "xi,abs_det,sigma_min"]
    lines += map(",".join, zip(_reprs(xis), _reprs(dets), _reprs(sig)))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


# ----------------------------------------------------------------- witness

def cmd_witness(args) -> int:
    g, _, opts, pert = _perturbation(args, periods=0)
    wit = alternating_witness(g, pert, K=args.K, tail_tol=opts.tail_tol)
    lines = ["# schema=tpgabor-witness-v1", "k,u"]
    lines += map(",".join, zip(_reprs(wit.ks), _reprs(wit.u)))
    lines.append(f"# nu={wit.nu!r}")
    lines.append(f"# alternating={wit.sign_pattern_ok}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


# ------------------------------------------------------------------- audit

def cmd_audit(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials = {args.trials} must be >= 1")
    if not 1 <= args.n_max <= MINOR_N_MAX:
        raise ConfigError(f"--n-max = {args.n_max} must be in 1..{MINOR_N_MAX}")
    g, _, _, pert = _perturbation(args, periods=1)
    sec = build_G(g, pert, K=args.K)
    rep = tp_minor_audit(sec, n_max=args.n_max, trials=args.trials,
                         seed=args.seed)
    payload = {"trials": rep.trials, "n_max": rep.n_max,
               "min_det": rep.min_det, "min_scaled_det": rep.min_scaled_det,
               "passed": rep.passed}
    _emit(_json_dump(payload), args.output)
    return 0 if rep.passed else 1


# ------------------------------------------------------------------ parser

def build_parser(defaults=None) -> argparse.ArgumentParser:
    """The CLI parser; ``defaults`` (e.g. from --config) override flag defaults."""
    ap = _Parser(
        prog="tpgabor",
        description="Gabor frame certification for totally positive windows "
                    "over rational lattices")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, func, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func)
        sp.add_argument("--window", help="window JSON spec, @file, or *.json path")
        sp.add_argument("--alpha", default="1/2")
        sp.add_argument("--beta", default="1")
        for f in fields(PipelineOptions):  # no default: see _options
            sp.add_argument("--" + f.name.lower().replace("_", "-"),
                            type=_ladder if f.name == "J_ladder" else type(f.default))
        sp.add_argument("--output", default=None)
        sp.add_argument("--config", default=None,
                        help="JSON config file; explicit flags win")
        return sp

    add("diagnose", cmd_diagnose, "full certification pipeline")
    sp = add("scan", cmd_scan, "phase-diagram scan over alpha values")
    sp.add_argument("--alphas", required=True,
                    help="comma-separated rationals, e.g. 1/8,2/8,3/8")
    sp.add_argument("--jobs", type=int, default=os.environ.get("TPGABOR_JOBS"),
                    help="worker processes (default: $TPGABOR_JOBS, else 1)")
    add("bounds", cmd_bounds, "frame-bound estimate only")
    sp = add("zak", cmd_zak, "Zak transform heatmap CSV")
    sp.add_argument("--grid-n", type=int, default=128)
    sp = add("zzdet", cmd_zzdet, "injectivity landscape CSV")
    sp.add_argument("--x", type=_finite_float, default=0.0)
    sp = add("witness", cmd_witness, "alternating witness vector")
    sp.add_argument("--x", type=_finite_float, default=0.0)
    sp.add_argument("--K", type=int, default=16)
    sp = add("audit", cmd_audit, "randomized TP minor audit")
    sp.add_argument("--x", type=_finite_float, default=0.0)
    sp.add_argument("--K", type=int, default=16)
    sp.add_argument("--n-max", type=int, default=6)
    sp.add_argument("--trials", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
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
    try:
        args = build_parser().parse_args(argv)
        if args.config:
            # config values become the subcommand's defaults, so explicit
            # flags win and every value goes through its flag's type
            known = set(vars(args)) - {"command", "func", "config"}
            cfg = {k.replace("-", "_"): v if isinstance(v, str) else json.dumps(v)
                   for k, v in _read_config(args.config).items()}
            args = build_parser({k: v for k, v in cfg.items()
                                 if k in known}).parse_args(argv)
        return args.func(args)
    except (ConfigError, LatticeError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
