"""tpgabor benchmark: certification throughput, latency and accuracy.

    python3 bench/run.py --workload frame_set_scan --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  One caller in one process drives the
program closed-loop: the public API (``tpgabor.diagnose``) for the diagnose
workloads and the in-process ``tpgabor.cli.main`` for plot_data.  A run
makes whole passes over the workload's op list, each in an order shuffled by
the seed, as long as the next pass is expected to end within ``--seconds``
(at least one pass), and checks every output against bench/refs.json.  Op
times are the process's CPU time (children included), which leaves out the
time the shared host takes the CPU away; wall times are recorded next to
them.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
Earlier lines give the same figures by name, the op mix and the
environment record; bench/results/ keeps the full record of each run, and
the spans of a traced run.  README.md next to this file explains the
workloads and metrics.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# One BLAS thread per process: on 2 cores, 2 OpenBLAS threads measured about
# 25% slower and noisier (frame_bounds, sech at 1/2: 2.45-2.76 s against
# 1.83-1.96 s), and one thread keeps the load of one caller within nproc.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_SAMPLES = 5          # set-ups per run: this process plus 4 children
COVERAGE_FLOOR = 0.95      # a traced diagnose op must be this well covered,
COVERAGE_MIN_OP_S = 0.01   # if it takes this long: the density short-circuit
                           # ops (0.3-1.2 ms) spend 7-23 % in diagnose itself
TAIL_BEYOND = 10           # the tail percentile keeps 10 samples of a pass
                           # beyond it

END_TO_END = {             # name -> unit, as BENCHMARK.json lists them
    "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "ratio", "correct_frac": "ratio",
    "ref_err_max": "ratio",
}
PER_LAYER = {
    "pregramian.frame_bounds.busy_s": "s",
    "pregramian.pregramian_section.calls": "count",
    "pregramian.svd_calls": "count",
    "pregramian.svd_flops": "flop",
    "pregramian.section_elems": "count",
    "zibulski.injectivity_scan.busy_s": "s",
    "zibulski.injectivity_scan.calls": "count",
    "zibulski.svd_calls": "count",
    "zibulski.svd_flops": "flop",
    "zibulski._A_stack.busy_s": "s",
    "zak.locate_zero.busy_s": "s",
    "zak.zak_values.busy_s": "s",
    "zak.zak_values.points": "count",
    "tpmatrix.alternating_witness.busy_s": "s",
    "tpmatrix.tp_minor_audit.busy_s": "s",
    "tpmatrix.build_G.busy_s": "s",
    "lattice.select_perturbation.busy_s": "s",
    "lattice.select_perturbation.calls": "count",
    "windows.eval_calls": "count",
    "windows.eval_points": "count",
    "windows.eval_s": "s",
    "pipeline.diagnose.busy_s": "s",
    "pipeline.self_s": "s",
    "cli.main.busy_s": "s",
    "cli.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "trace.op_s": "s",
}


def import_program():
    """Import tpgabor from this checkout's src/, and nothing else."""
    pkg = SRC / "tpgabor"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {pkg} not found; run from a tpgabor checkout")
    sys.path.insert(0, str(SRC))
    import importlib
    tg = importlib.import_module("tpgabor")
    importlib.import_module("tpgabor.cli")
    if Path(tg.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported tpgabor from {tg.__file__}, not {pkg}")
    return tg


def set_up(workload: str, seed: int, refs: dict):
    """The timed set-up: import tpgabor, build the windows and lattices."""
    t0 = time.perf_counter()
    tg = import_program()
    ops = workloads.make_ops(workload, tg, random.Random(seed), refs)
    return time.perf_counter() - t0, tg, ops


def setup_in_child(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def tail(times: list, per_pass: int):
    """Op time at the highest percentile with TAIL_BEYOND samples of one pass
    beyond it, as the Harrell-Davis estimate over all of the run's samples
    (a beta-weighted mean of the order statistics around the percentile,
    steadier than the single order statistic).  Fixing the percentile by the
    pass size keeps it the same whatever the number of passes."""
    from scipy.stats.mstats import hdquantiles
    i = max(per_pass - 1 - TAIL_BEYOND, 0)
    q = i / (per_pass - 1) if per_pass > 1 else 1.0
    return float(hdquantiles(times, prob=[q])[0]), 100.0 * q, per_pass - 1 - i


# ------------------------------------------------------------- environment

def git_commit():
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    import hashlib
    h = hashlib.sha256()
    for f in sorted((SRC / "tpgabor").rglob("*.py")):
        h.update(f.relative_to(SRC).as_posix().encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports (via ctypes)."""
    import ctypes
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return out
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                fn = getattr(dll, sym)
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def environment(seed: int) -> dict:
    import platform
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):   # numpy < 1.25 has no dict form
        blas = None
    return {
        "commit": git_commit(), "src_sha256": src_digest(), "seed": seed,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": blas_threads(),
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "blas_threads_why": "pinned to 1: on 2 cores, 2 OpenBLAS threads measured "
                            "about 25% slower and noisier, and one thread keeps "
                            "the load of one caller within nproc",
    }


# --------------------------------------------------------------- measuring

def host_probe() -> float:
    """Seconds for a fixed kernel that does not touch tpgabor (small dets and
    float formatting, like the program's hot loops).  Its median over a run
    shows how fast the shared host was; it is recorded, not a metric."""
    import numpy as np
    a = np.arange(64.0).reshape(8, 8) + np.eye(8)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(400):
        acc += float(np.linalg.det(a + i))
    "\n".join(f"{i * 0.1!r},{acc!r}" for i in range(3000))
    return time.perf_counter() - t0


def cpu_seconds() -> float:
    """CPU time of this process and its reaped children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def call(op, probes, tracer=None, index=-1):
    """Run one op, traced if a tracer is given; returns (CPU seconds, wall
    seconds, output, exception or None)."""
    gc.collect()        # every op starts from a collected heap
    probes.append(host_probe())
    if tracer is not None:
        tracer.install(index)
    with tracer.span(index) if tracer else contextlib.nullcontext():
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            out, exc = op.run(), None
        except (Exception, SystemExit) as e:   # the op failed; the run goes on
            out, exc = None, e
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
    if tracer is not None:
        tracer.uninstall()
    return cpu, wall, out, exc


class Tally:
    def __init__(self):
        self.times, self.walls, self.errs = [], [], []
        self.by_op, self.by_op_wall = {}, {}
        self.attempted = self.failed = self.wrong = 0

    def add(self, op, dt, wall, out, exc):
        self.attempted += 1
        self.times.append(dt)
        self.walls.append(wall)
        self.by_op.setdefault(op.label, []).append(dt)
        self.by_op_wall.setdefault(op.label, []).append(wall)
        if exc is not None:
            self.failed += 1
            print(f"# FAILED {op.label}: {exc!r}", file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr, limit=3)
            if op.entry == "pipeline.diagnose":
                self.errs.append(1.0)
            return
        try:
            failed, wrong, err = op.check(out)
        except (ValueError, KeyError, IndexError, TypeError) as e:
            failed, wrong, err = False, True, None
            print(f"# UNREADABLE {op.label}: {e!r}", file=sys.stderr)
        self.failed += failed
        self.wrong += wrong
        if wrong:
            print(f"# WRONG {op.label}", file=sys.stderr)
        if err is not None:
            self.errs.append(err)


def measure(ops, rng, seconds, tracer=None):
    """Whole shuffled passes, at least one, as long as the next pass is
    expected (at the mean pass time so far) to end within `seconds`."""
    plain, traced = Tally(), Tally()
    probes = []
    order = list(range(len(ops)))
    t_start = time.perf_counter()
    passes = 0
    while True:
        rng.shuffle(order)
        for n, i in enumerate(order):
            op = ops[i]
            if tracer is None:
                plain.add(op, *call(op, probes))
                continue
            # traced and untraced run of the same op, alternating which is first
            for traced_turn in ((False, True) if n % 2 == 0 else (True, False)):
                if traced_turn:
                    traced.add(op, *call(op, probes, tracer, i))
                else:
                    plain.add(op, *call(op, probes))
        passes += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / passes > seconds:
            return plain, traced, passes, probes


def warm_up(workload, tg):
    """Untimed first calls, so lazy initialisation is not charged to an op."""
    if workload == "plot_data":
        import io
        with contextlib.redirect_stdout(io.StringIO()):
            sys.modules["tpgabor.cli"].main(
                ["zak", "--window", '{"kind": "gaussian"}', "--grid-n", "16"])
    else:
        tg.diagnose(tg.Gaussian(), tg.reduce("1/2", 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: time one set-up and print it")
    args = ap.parse_args(argv)
    for var in BLAS_ENV:                    # before numpy loads OpenBLAS
        os.environ[var] = BLAS_THREADS
    refs = json.loads((BENCH / "refs.json").read_text())

    if args.setup_probe:
        print(repr(set_up(args.workload, args.seed, refs)[0]))
        return 0

    dt, tg, ops = set_up(args.workload, args.seed, refs)
    setup_times = [dt] + [setup_in_child(args.workload, args.seed)
                          for _ in range(SETUP_SAMPLES - 1)]
    env = environment(args.seed)
    warm_up(args.workload, tg)
    gc.collect()
    gc.freeze()         # set-up objects stay out of the per-op collections

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    rng = random.Random(args.seed)
    plain, traced, passes, probes = measure(ops, rng, args.seconds, tracer)

    tally = traced if tracer else plain
    record = {"workload": args.workload, "trace": args.trace, "passes": passes,
              "ops_per_pass": len(ops), "op_mix": op_mix(ops), "env": env,
              "setup_samples_s": setup_times, "op_times_s": plain.by_op,
              "op_wall_s": plain.by_op_wall,
              "host_probe_ms": 1000 * statistics.median(probes),
              "cpu_over_wall": sum(plain.times) / sum(plain.walls)}
    if tracer is None:
        metrics = end_to_end(plain, setup_times, len(ops))
        _, pct, beyond = tail(plain.times, len(ops))
        record["tail"] = {"percentile": pct, "samples_beyond": beyond,
                          "samples": len(plain.times)}
        record["wall"] = {"ops_per_s": len(plain.walls) / sum(plain.walls),
                          "op_p50_s": statistics.median(plain.walls),
                          "op_tail_s": tail(plain.walls, len(ops))[0]}
        print_summary(args.workload, metrics, record, plain)
    else:
        layer, coverage = tracer.summary(passes)
        layer["trace.overhead"] = sum(traced.times) / sum(plain.times) - 1.0
        metrics = {k: layer.get(k, 0.0) for k in PER_LAYER}
        record["max_pregramian_section"] = list(tracer.max_section)
        record["coverage"] = [[ops[c[0]].label, c[1], c[2], c[3]] for c in coverage]
        RESULTS.mkdir(exist_ok=True)
        tracer.dump(RESULTS / f"spans-{args.workload}-seed{args.seed}.json",
                    [op.label for op in ops])
        for name, v in sorted(metrics.items()):
            print(f"{name:40s} {v:.6g} {PER_LAYER[name]}")
        low = [c for c in coverage if c[1] == "pipeline.diagnose"
               and c[3] >= COVERAGE_MIN_OP_S and c[2] < COVERAGE_FLOOR]
        if low:
            for c in low:
                print(f"error: trace covers {c[2]:.3f} < {COVERAGE_FLOOR} of "
                      f"{ops[c[0]].label}", file=sys.stderr)
            return 3
    record["metrics"] = metrics
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    units = END_TO_END if tracer is None else PER_LAYER
    print(json.dumps({
        "correct": tally.wrong == 0 and tally.failed == 0,
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def op_mix(ops) -> dict:
    return dict(collections.Counter(op.label.split()[0] for op in ops))


def end_to_end(t, setup_times, per_pass) -> dict:
    tail_s, _, _ = tail(t.times, per_pass)
    return {
        "ops_per_s": len(t.times) / sum(t.times),
        "op_p50_s": statistics.median(t.times),
        "op_tail_s": tail_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "ok_frac": 1.0 - t.failed / t.attempted,
        "correct_frac": 1.0 - t.wrong / t.attempted,
        "ref_err_max": max(t.errs) if t.errs else 1.0,
    }


def print_summary(workload, m, record, t):
    tl = record["tail"]
    err_name = "A_rel_err_max" if workload != "plot_data" else "zak_rel_err_max"
    print(f"# {workload}: {record['passes']} pass(es) x {record['ops_per_pass']} ops, "
          f"mix {record['op_mix']}")
    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    print(f"# host_probe_ms {record['host_probe_ms']:.3f} (median over the run), "
          f"cpu_over_wall {record['cpu_over_wall']:.3f}")
    rows = [
        ("ops_per_s", m["ops_per_s"], "1/s"),
        ("op_p50_s", m["op_p50_s"], "s"),
        ("op_tail_s", m["op_tail_s"],
         f"s (p{tl['percentile']:.1f}, Harrell-Davis over {tl['samples']} samples; "
         f"{tl['samples_beyond']} of a pass's samples beyond)"),
        ("setup_s", m["setup_s"], f"s (median of {len(record['setup_samples_s'])})"),
        ("peak_rss_mb", m["peak_rss_mb"], "MB"),
        ("fail_frac", t.failed / t.attempted, f"ratio ({t.failed} of {t.attempted})"),
        ("wrong_frac", t.wrong / t.attempted, f"ratio ({t.wrong} of {t.attempted})"),
        (err_name, m["ref_err_max"], "ratio (reported as ref_err_max)"),
    ]
    for name, v, unit in rows:
        print(f"{name:16s} {v:.6g} {unit}")
    print("# op times above are CPU seconds; in wall seconds: " + ", ".join(
        f"{k} {v:.6g}" for k, v in record["wall"].items()))


if __name__ == "__main__":
    sys.exit(main())
