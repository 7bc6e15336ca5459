"""Command-line interface: diagnose, scan, bounds, zak, zzdet, witness, audit.

The CLI parses, validates and formats; every number it prints comes from
the library.  The lattice subcommands read their window and lattice
through ``_setup``; the data commands add their perturbation through
``_perturbation``, anchored at the Zak zero as in ``diagnose``, which
takes no setting.  The certificate grids are library constants, so the
one grid flag is zzdet's plot resolution ``--xi-grid-n``; every series is
truncated at the fixed tail ``TAIL_TOL``.  A config file's JSON list is
read as the comma-separated form of its flag (``"alphas": ["1/2",
"3/4"]``).  A window spec is inline JSON, ``@file`` or a file path ending
in ".json".  A rational without "/" that is not an integer literal
(``0.5``, ``25e-2``) is rationalized with a warning on stderr.

All outputs are deterministic for a fixed configuration: iteration orders
are fixed, randomized audits take an explicit seed, and scan workers are
assembled in input order regardless of completion order.

Exit codes: 0 = Frame, 1 = NotFrame, 2 = Inconclusive, 64 = bad input
(a malformed flag, config file, window spec or TPGABOR_JOBS value).  A
command whose certificate fails on valid input (no verdict, no data file)
exits 2.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from .lattice import LatticeError, as_fraction, reduce, select_perturbation
from .pipeline import (diagnose, diagnosis_min_sigma, effective_window,
                       zak_anchor)
from .pregramian import PregramianError, frame_bounds
from .tpmatrix import (MINOR_N_MAX, TPMatrixError, alternating_witness, build_G,
                       tp_minor_audit)
from .windows import TAIL_TOL, WindowError, window_from_config
from .zak import ZakError, zak_bank
from .zibulski import ZibulskiError, a_landscape

EXIT_BAD_CONFIG = 64
_VERDICT_EXIT = {"Frame": 0, "NotFrame": 1, "Inconclusive": 2}
# failures to produce a certificate: a scan records one as an "Error" row,
# and a command that meets one exits 2 (Inconclusive).  A MemoryError is
# an allocation refused for options too large for the machine
_DOMAIN_ERRORS = (LatticeError, WindowError, ZakError, ZibulskiError,
                  PregramianError, TPMatrixError, np.linalg.LinAlgError,
                  MemoryError)


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
    elif spec.endswith(".json"):  # inline JSON cannot end in ".json"
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
    if frac == 0 and "/" not in text and Fraction(text) > 0:
        raise ConfigError(f"{name} = {text} rationalizes to 0 (denominators "
                          "are capped at 10^6); give it as P/Q")
    if frac <= 0:
        raise ConfigError(f"{name} must be positive")
    if "/" not in text and not text.strip().lstrip("+-").isdigit():
        print(f"warning: {name} = {text} rationalized to {frac} "
              "(theory covers rational alpha*beta only)", file=sys.stderr)
    return frac


def _finite_float(text: str) -> float:
    """A float flag value; nan and +-inf are bad input, not a crash later."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _positive_int(text: str) -> int:
    """An integer flag value of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _setup(args, candidate=False):
    """(window, reduced lattice) of a lattice subcommand.

    alpha*beta must lie in (0, 2], and with ``candidate`` below 1 (the data
    commands plot certificates that exist only there).
    """
    w = _load_window(args.window)
    lat = _lattice(args.alpha, _parse_rational(args.beta, "beta"))
    if candidate:
        lat.require_frame_candidate()
    return w, lat


def _lattice(alpha: str, beta: Fraction):
    """The reduced lattice of alpha and beta, if alpha*beta is in (0, 2]."""
    lat = reduce(_parse_rational(alpha, "alpha"), beta)
    if lat.alpha > 2:
        raise ConfigError(f"alpha*beta = {lat.alpha} outside the supported "
                          "range (0, 2]")
    return lat


def _perturbation(args, periods=None):
    """(dilated window, lattice, perturbation at --x) of a data command.

    With ``periods``, --K must be at least ``periods * p``; it is checked
    before any numerics.
    """
    w, lat = _setup(args, candidate=True)
    if periods is not None and args.K < periods * lat.p:
        raise ConfigError(f"--K = {args.K} must be >= {periods * lat.p}")
    g = effective_window(w, lat)
    return g, lat, select_perturbation(lat, args.x, zak_anchor(g)[0])


def _emit(text, path):
    """Write text, a string or an iterable of string chunks, to path or stdout."""
    chunks = [text] if isinstance(text, str) else text
    if path:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _joined(a) -> str:
    """The ``repr`` of each element of a nonempty 1-d array (float or int),
    ", "-joined, in one C pass."""
    return repr(a.tolist())[1:-1]


def _reprs(a) -> list:
    """``repr`` of each element of a 1-d array (float or int), in one C pass."""
    return _joined(a).split(", ") if a.size else []


def _negated(text: str) -> str:
    """``repr(-v)`` in place of ``repr(v)`` for each finite float v of a
    ", "-joined text: a leading "-" is dropped, else one is added.  The only
    other "-" in a finite float's repr follows an "e", so "--" marks exactly
    the values that were negative."""
    return ("-" + text.replace(", ", ", -")).replace("--", "")


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------- diagnose

def cmd_diagnose(args) -> int:
    w, lat = _setup(args)
    diag = diagnose(w, lat)
    payload = diag.to_dict()
    payload["alpha"] = str(lat.alpha / lat.beta_original)
    payload["beta"] = str(lat.beta_original)
    payload["alpha_beta"] = str(lat.alpha)
    _emit(_json_dump(payload), args.output)
    return _VERDICT_EXIT[diag.verdict]


# -------------------------------------------------------------------- scan

def _scan_point(job):
    """One CSV row: alpha, beta, alphabeta, verdict, A_est, min_sigma, error."""
    w, alpha_str, beta_str, lat = job
    row = [alpha_str, beta_str, str(lat.alpha)]
    try:
        diag = diagnose(w, lat)
    except _DOMAIN_ERRORS as e:  # record the failure, keep scanning
        return row + ["Error", None, None, f"{type(e).__name__}: {e}"]
    return row + [diag.verdict, diag.lower_bound_est,
                  diagnosis_min_sigma(diag), ""]


def cmd_scan(args) -> int:
    w = _load_window(args.window)
    beta = _parse_rational(args.beta, "beta")
    # not required by the parser, so that a config file can give it
    alphas = [s.strip() for s in (args.alphas or "").split(",") if s.strip()]
    if not alphas:
        raise ConfigError("--alphas needs at least one value")
    work = [(w, a, str(beta), _lattice(a, beta)) for a in alphas]
    jobs = min(args.jobs or 1, len(work))
    if jobs > 1:
        from multiprocessing import Pool  # only a parallel scan needs it
        with Pool(processes=jobs) as pool:
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
    w, lat = _setup(args)
    diag = frame_bounds(effective_window(w, lat), lat)
    trace = next((e for e in diag.evidence if e.get("kind") == "sigma_ladder"), None)
    payload = {"verdict": diag.verdict, "A_est": diag.lower_bound_est,
               "B_est": diag.upper_bound_est, "worst_x": diag.worst_x,
               "ladder_trace": trace}
    _emit(_json_dump(payload), args.output)
    return _VERDICT_EXIT[diag.verdict]


# --------------------------------------------------------------------- zak

def cmd_zak(args) -> int:
    """Zg(x, xi) on the n x n grid of [0, 1)^2, xi-major.

    g is real, so Zg(x, 1 - xi) = conj Zg(x, xi): only the blocks
    xi = j/n with j <= n/2 are evaluated, and block n - j prints block j's
    re and abs text and its im text negated.
    """
    w = _load_window(args.window)
    n = args.grid_n
    if n < 8:
        raise ConfigError("zak grid_n must be >= 8")
    grid = np.arange(n) / n
    half = zak_bank(w, 1.0, grid, grid[:n // 2 + 1], TAIL_TOL)
    xs = _reprs(grid)

    def rows():
        # one xi row block at a time keeps memory flat; the rows go out as
        # they are, since joined blocks of 10-100 kB fragment the C heap
        # (a later op's peak RSS rose by about 2 MB in-process).  A block
        # waiting for its mirror is held as its three joined texts, not as
        # lists of per-value strings, which cost about 57 bytes per value
        # on top of the text's 20 or so
        yield "# schema=tpgabor-zak-v1\nx,xi,re,im,abs\n"
        waiting = []  # blocks 1 .. (n - 1) // 2, popped by blocks n - j
        for j, xi in enumerate(xs):
            if j <= n // 2:
                re, im = half[:, j].real, half[:, j].imag
                texts = [_joined(re), _joined(im), _joined(np.hypot(re, im))]
                if 0 < j < n - j:
                    waiting.append(texts)
            else:
                re, im, ab = waiting.pop()
                texts = [re, _negated(im), ab]
            yield from [f"{x},{xi},{r},{i},{a}\n" for x, r, i, a in zip(
                xs, *(t.split(", ") for t in texts))]

    _emit(rows(), args.output)
    return 0


# ------------------------------------------------------------------- zzdet

def cmd_zzdet(args) -> int:
    """|det A(xi)| and sigma_min(A(xi)) on linspace(0, 1/p, xi_grid_n + 1).

    g is real, so A(1/p - xi) = conj A(xi) has the same singular values:
    only xi <= 1/(2p) is evaluated, and row i prints row min(i, N - i).
    """
    N = args.xi_grid_n
    if N < 128:
        raise ConfigError("xi_grid_n must be >= 128")
    g, lat, pert = _perturbation(args)
    xis = np.linspace(0.0, 1.0 / lat.p, N + 1)
    sig, dets = a_landscape(g, lat, pert, xis[:N // 2 + 1], TAIL_TOL)
    values = list(map(",".join, zip(_reprs(dets), _reprs(sig))))
    lines = ["# schema=tpgabor-zzdet-v1", "xi,abs_det,sigma_min"]
    lines += [f"{xi},{values[min(i, N - i)]}" for i, xi in enumerate(_reprs(xis))]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


# ----------------------------------------------------------------- witness

def cmd_witness(args) -> int:
    g, _, pert = _perturbation(args, periods=0)
    wit = alternating_witness(g, pert, K=args.K)
    lines = ["# schema=tpgabor-witness-v1", "k,u"]
    lines += map(",".join, zip(_reprs(wit.ks), _reprs(wit.u)))
    lines.append(f"# nu={wit.nu!r}")
    lines.append("# alternating=True")  # alternating_witness raises otherwise
    _emit("\n".join(lines) + "\n", args.output)
    return 0


# ------------------------------------------------------------------- audit

def cmd_audit(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials = {args.trials} must be >= 1")
    if not 1 <= args.n_max <= MINOR_N_MAX:
        raise ConfigError(f"--n-max = {args.n_max} must be in 1..{MINOR_N_MAX}")
    g, _, pert = _perturbation(args, periods=1)
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

    def add(name, func, help, lattice=True):
        """A subcommand, with --alpha/--beta if ``lattice``."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func)
        sp.add_argument("--window", help="window JSON spec, @file, or *.json path")
        if lattice:
            sp.add_argument("--alpha", default="1/2")
            sp.add_argument("--beta", default="1")
        sp.add_argument("--output", default=None)
        sp.add_argument("--config", default=None,
                        help="JSON config file; explicit flags win")
        return sp

    add("diagnose", cmd_diagnose, "full certification pipeline")
    sp = add("scan", cmd_scan, "phase-diagram scan over alpha values",
             lattice=False)
    sp.add_argument("--alphas",
                    help="comma-separated rationals, e.g. 1/8,2/8,3/8")
    sp.add_argument("--beta", default="1")
    sp.add_argument("--jobs", type=_positive_int,
                    default=os.environ.get("TPGABOR_JOBS"),
                    help="worker processes, at least 1 and at most one per "
                         "alpha (default: $TPGABOR_JOBS, else 1)")
    add("bounds", cmd_bounds, "frame-bound estimate only")
    sp = add("zak", cmd_zak, "Zak transform heatmap CSV", lattice=False)
    sp.add_argument("--grid-n", type=int, default=128)
    sp = add("zzdet", cmd_zzdet, "injectivity landscape CSV")
    sp.add_argument("--x", type=_finite_float, default=0.0)
    sp.add_argument("--xi-grid-n", type=int, default=128)
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


def _config_text(value) -> str:
    """A config value as its flag would be typed: a list comma-separated."""
    if isinstance(value, list):
        return ",".join(map(str, value))
    return value if isinstance(value, str) else json.dumps(value)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.config:
            # config values become the subcommand's defaults, so explicit
            # flags win and every value goes through its flag's type
            known = set(vars(args)) - {"command", "func", "config"}
            cfg = {k.replace("-", "_"): _config_text(v)
                   for k, v in _read_config(args.config).items()}
            args = build_parser({k: v for k, v in cfg.items()
                                 if k in known}).parse_args(argv)
        return args.func(args)
    except (ConfigError, LatticeError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except _DOMAIN_ERRORS as e:  # valid input, but no certificate
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return _VERDICT_EXIT["Inconclusive"]


if __name__ == "__main__":
    sys.exit(main())
