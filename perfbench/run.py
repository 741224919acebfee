"""Benchmark gmeslab end to end on one workload; run from the repository root.

    python3 perfbench/run.py --workload paper-figures --seed 1 --seconds 30 --trace 0

With ``--trace 0`` one timed process runs whole rounds of the workload's
operations in a closed loop for ``--seconds`` seconds, and set-up time is
measured in fresh processes before and after it.  With ``--trace 1`` the timed process instead
makes a fixed number of traced passes and the per-layer metrics are printed.
Either way every output is checked against an independent reference after
the timed process has exited.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it is the environment stamp.  Without ``src/gmeslab`` next to
this directory it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
from tracer import layer_metric_specs
from workloads import WORKLOADS, make_round, setup_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh processes timed for set-up, before and after the timed process so
# that the samples span the run; the median of all of them is reported.
SETUP_SPAWNS_BEFORE = 3
SETUP_SPAWNS_AFTER = 4
# Fixed number of passes of a traced run, and -X importtime spawns.
TRACE_PASSES = 5
IMPORT_SPAWNS = 3
# Every run must end within 180 s.
CHILD_TIMEOUT_S = 150
# One BLAS/OpenMP thread in every process the benchmark starts.
THREAD_PINS = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


def child_env():
    env = {**os.environ, **THREAD_PINS}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def env_stamp():
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_pins": THREAD_PINS,
        "machine": platform.machine(),
    }


def measure_setup(plan_path, tmp, spawns):
    """Wall times from spawning a fresh process until its set-up calls returned."""
    samples = []
    for _ in range(spawns):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), "setup", str(plan_path), str(tmp)],
                              env=child_env(), capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def parse_importtime(stderr):
    """gmeslab/scipy/numpy import times (ms) and modules imported for gmeslab."""
    entries = []  # (depth, name, self_us, cumulative_us)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name_field = line[len("import time:"):].split("|")
        depth = (len(name_field) - len(name_field.lstrip()) - 1) // 2
        entries.append((depth, name_field.strip(), int(self_us), int(cumulative_us)))
    gmeslab_us, modules, block_start = 0, 0, 0
    for i, (depth, name, _, cumulative) in enumerate(entries):
        if depth == 0:
            if name == "gmeslab" or name.startswith("gmeslab."):
                gmeslab_us += cumulative
                modules += i + 1 - block_start
            block_start = i + 1

    def self_ms(package):
        return sum(s for _, n, s, _ in entries if n == package or n.startswith(package + ".")) / 1e3

    return {
        "import.gmeslab_ms": gmeslab_us / 1e3,
        "import.scipy_ms": self_ms("scipy"),
        "import.numpy_ms": self_ms("numpy"),
        "import.modules": modules,
    }


def import_metrics():
    samples = []
    for _ in range(IMPORT_SPAWNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gmeslab, gmeslab.cli"],
                              env=child_env(), capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed:\n{proc.stderr[-2000:]}")
        samples.append(parse_importtime(proc.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def load_output(op, tmp, i):
    stem = tmp / f"op{i}"
    if op["kind"] == "cli":
        return (stem.with_suffix(".csv")).read_text(encoding="ascii")
    out = json.loads(stem.with_suffix(".json").read_text(encoding="ascii"))
    if stem.with_suffix(".npy").exists():
        out["array"] = np.load(stem.with_suffix(".npy"))
    return out


def verify(ops, result, tmp):
    """(correct, failing op indices, problems) from the checked round and the fingerprints."""
    problems, failing = [], []
    for i, (op, status) in enumerate(zip(ops, result["checked"])):
        out = load_output(op, tmp, i) if status.startswith("ok") else None
        fault = checks.classify(op, status.split()[0], out)
        if fault is not None:
            failing.append(i)
            if "expect" not in op:
                problems.append(f"op {i} ({op['label']}): unexpected failure: {fault}")
            continue
        if "expect" in op:
            print(f"{op['expect']} no longer shows in {op}", file=sys.stderr)
        problems += [f"op {i} ({op['label']}): {p}" for p in checks.check(op, out)]
    for i, seen in enumerate(result["seen"]):
        if seen != [result["checked"][i]]:
            problems.append(f"op {i} ({ops[i]['label']}): outputs differ between rounds: {seen}")
    return not problems, failing, problems


def percentile_kinds(ops, latencies):
    """Which operation kind sits at p50 and p90, and each kind's median latency."""
    labels = [op["label"] for op in ops] * (len(latencies) // len(ops))
    order = np.argsort(latencies)
    kinds = {}
    for q in (50, 90):
        rank = int(round(q / 100 * (len(latencies) - 1)))
        kinds[f"p{q}"] = labels[order[rank]]
    per_kind = {}
    for label in dict.fromkeys(labels):
        per_kind[label] = round(1e3 * float(np.median([t for t, l in zip(latencies, labels) if l == label])), 3)
    return {"at": kinds, "median_ms": per_kind}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gmeslab" / "__init__.py").is_file():
        print(f"error: no gmeslab sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        ops = make_round(args.workload, args.seed)
        plan_path = tmp / "plan.json"
        plan_path.write_text(json.dumps({
            "ops": ops, "setup_ops": setup_ops(args.workload), "seconds": args.seconds,
            "trace": bool(args.trace), "passes": TRACE_PASSES,
        }), encoding="utf-8")

        metrics = {}
        setup_samples = [] if args.trace else measure_setup(plan_path, tmp, SETUP_SPAWNS_BEFORE)

        with open(tmp / "child.stderr", "w", encoding="utf-8") as err:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), "run", str(plan_path), str(tmp)],
                                  env=child_env(), stdout=err, stderr=err, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            print((tmp / "child.stderr").read_text(encoding="utf-8")[-4000:], file=sys.stderr)
            print(f"error: timed process exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads((tmp / "result.json").read_text(encoding="ascii"))
        if not args.trace:
            setup_samples += measure_setup(plan_path, tmp, SETUP_SPAWNS_AFTER)
            metrics["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}

        correct, failing, problems = verify(ops, result, tmp)
        for problem in problems[:20]:
            print(f"check failed: {problem}", file=sys.stderr)

        rounds = result["rounds"]
        stamp = {"env": env_stamp(), "workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "rounds": rounds, "ops_per_round": len(ops),
                 "failing_ops": [f"{ops[i]['label']} {ops[i].get('expect', '(unexpected)')}" for i in failing]}
        if args.trace:
            layers = dict(result["layers"])
            layers.update(import_metrics())
            layers["trace.ops_per_s"] = result["trace_ops_per_s"]
            for name, unit, _ in layer_metric_specs():
                metrics[name] = {"value": layers[name], "unit": unit}
        else:
            lat = np.asarray(result["latencies_s"])
            p50, p90 = np.percentile(lat, [50, 90])
            metrics["ops_per_s"] = {"value": lat.size / result["elapsed_s"], "unit": "1/s"}
            metrics["latency_ms.p50"] = {"value": 1e3 * float(p50), "unit": "ms"}
            metrics["latency_ms.p90"] = {"value": 1e3 * float(p90), "unit": "ms"}
            metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
            stamp["percentile_kinds"] = percentile_kinds(ops, result["latencies_s"])

        print(json.dumps(stamp))
        print(json.dumps({
            "correct": correct,
            "attempted": rounds * len(ops),
            "failed": rounds * len(failing),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
