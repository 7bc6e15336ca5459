"""Run-to-run spread of the end-to-end metrics: runs bench/run.py once per
seed, one run at a time, and prints each metric's median, quartiles and
spread, (q3 - q1) / median with statistics.quantiles(values, n=4).

    python3 bench/spread.py --workload plot_data --seeds 101-110 --seconds 40

Run from the root of a checkout.  With --out, the summary is also written as
JSON (bench/baseline.json's end_to_end section has this form).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
BOUNDS = {m["name"]: m["bound"] for m in
          json.loads((BENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]}


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH / "results" /
                         f"{workload}-seed{seed}-trace0.json").read_text())
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["host_probe_ms"] = record["host_probe_ms"]
    values["cpu_over_wall"] = record["cpu_over_wall"]
    values.update({f"wall.{k}": v for k, v in record["wall"].items()})
    values["correct"] = result["correct"]
    return values


def summary(rows: list) -> dict:
    out = {}
    for name in rows[0]:
        if name == "correct":
            continue
        v = [r[name] for r in rows]
        q1, med, q3 = statistics.quantiles(v, n=4)
        out[name] = {"median": statistics.median(v), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / statistics.median(v),
                     "bound": BOUNDS.get(name)}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="101-110", help="e.g. 101-110")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    rows = []
    for seed in seeds(args.seeds):
        rows.append(run(args.workload, seed, args.seconds))
        print(f"seed {seed}: " + " ".join(
            f"{k}={v:.6g}" for k, v in rows[-1].items() if k != "correct"),
            flush=True)
    s = summary(rows)
    for name, m in s.items():
        flag = "" if m["bound"] is None or m["spread"] <= m["bound"] / 3 else \
            "  above a third of the bound"
        print(f"{name:14s} median {m['median']:.6g} spread {m['spread']:.4f} "
              f"bound {m['bound']}{flag}")
    ok = all(r["correct"] for r in rows)
    print("all runs correct" if ok else "some run was not correct")
    if args.out:
        args.out.write_text(json.dumps({"seeds": args.seeds, "runs": rows,
                                        "summary": s}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
