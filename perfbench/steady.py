"""Steadiness evidence for the bounds in BENCHMARK.json; run from the repository root.

    python3 perfbench/steady.py [--workloads paper-figures ...] [--out FILE]

For each workload it makes two sets of ten runs of the same code, each run
as long as ``run_seconds`` in BENCHMARK.json, alternating which set runs
first in each pair, each run with its own seed (set A seeds 1..10, set B
seeds 11..20).  It reports each end-to-end metric's median, quartiles and
spread (quartile distance over the median) per set, the drift of set B's
median from set A's, and whether the failed share is the same in every run.
It then makes two traced runs per workload at one seed and reports every
count that did not repeat exactly.  It exits with 1 unless every run was
correct, every spread and drift is within the metric's bound, the failed
share never changed and every count repeated.  The report goes to stdout and,
as JSON, to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Runs per set.
RUNS = 10

# Per-layer metrics that are counts, which must repeat exactly.
COUNT_SUFFIXES = (".calls", "coeffs_built", "mes_bytes", "fock_bytes", "csv_bytes",
                  "spectra_per_row", "converged_ratio", "import.modules")


def run_once(workload, seed, seconds, trace):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "stamp": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", default=str(HERE / "out" / "steady.json"))
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    report = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        sets = {"A": [], "B": []}
        for i in range(RUNS):
            for name in ("AB" if i % 2 == 0 else "BA"):
                seed = 1 + i + (RUNS if name == "B" else 0)
                sets[name].append(run_once(workload, seed, seconds, 0))
                print(f"{workload} set {name} seed {seed}: {json.dumps(sets[name][-1]['result'])}", flush=True)
        entry = {"stamp": sets["A"][0]["stamp"]["env"], "metrics": {}}
        shares = {Fraction(r["result"]["failed"], r["result"]["attempted"]) for s in sets.values() for r in s}
        entry["failed_share"] = sorted(str(s) for s in shares)
        entry["correct"] = all(r["result"]["correct"] for s in sets.values() for r in s)
        entry["wall_s"] = max(r["wall_s"] for s in sets.values() for r in s)
        entry["kinds_at"] = {q: sorted({r["stamp"]["percentile_kinds"]["at"][q] for s in sets.values() for r in s})
                             for q in ("p50", "p90")}
        ok &= len(shares) == 1 and entry["correct"]
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = summary([r["result"]["metrics"][name]["value"] for r in sets["A"]])
            b = summary([r["result"]["metrics"][name]["value"] for r in sets["B"]])
            worse = (b["median"] - a["median"]) / a["median"]
            if metric["better"] == "higher":
                worse = -worse
            ok &= max(a["spread"], b["spread"]) <= bound and worse <= bound
            entry["metrics"][name] = {"bound": bound, "A": a, "B": b, "b_worse_than_a": worse}
            print(f"{workload:16s} {name:15s} A {a['median']:10.4f} [{a['q1']:.4f}, {a['q3']:.4f}] "
                  f"spread {a['spread']:.3f} | B {b['median']:10.4f} [{b['q1']:.4f}, {b['q3']:.4f}] "
                  f"spread {b['spread']:.3f} | B worse by {worse:+.3f} (bound {bound})", flush=True)
        print(f"{workload}: failed share {entry['failed_share']}, correct {entry['correct']}, "
              f"slowest run {entry['wall_s']:.1f} s, kinds at p50/p90 {entry['kinds_at']}", flush=True)
        first, second = (run_once(workload, 1, seconds, 1)["result"] for _ in range(2))
        differing = [k for k in first["metrics"]
                     if k.endswith(COUNT_SUFFIXES) and first["metrics"][k] != second["metrics"][k]]
        entry["trace_counts_differing"] = differing
        ok &= not differing and first["correct"] and second["correct"]
        print(f"{workload}: traced counts differing between two runs: {differing or 'none'}", flush=True)
        report["workloads"][workload] = entry

    report["ok"] = ok
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"{'all within bounds' if ok else 'NOT within bounds'}; report in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
