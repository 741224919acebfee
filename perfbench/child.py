"""The measured process: one client driving gmeslab in a closed loop.

    python child.py setup PLAN.json OUTDIR
        import gmeslab and gmeslab.cli, make the plan's minimal call of each
        operation kind, print time.monotonic() and exit (set-up time).

    python child.py run PLAN.json OUTDIR
        run one check round, saving every output to OUTDIR for the checks
        made by run.py in another process, then either the timed loop (whole
        rounds until the plan's seconds have passed) or, with "trace" set,
        a fixed number of traced passes; write OUTDIR/result.json.

Each operation starts only after the previous one returns.  Outputs of the
timed rounds are reduced to a fingerprint (exit status plus a CRC of the
output), which run.py compares with the checked round's.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import zlib

# Nothing beyond gmeslab and its own dependencies (no scipy of the
# benchmark's), so that set-up time shows what importing gmeslab costs.
import gmeslab
import gmeslab.cli
import numpy as np


def _fidelity_gmes_mes(b, n_target):
    return gmeslab.fidelity(gmeslab.gmes_spectrum(b), gmeslab.mes_spectrum(n_target))


# Library operations, looked up on the package at call time so that the
# tracer's wrappers are the ones called.
LIB_OPS = {
    "gmes_spectrum": lambda b: gmeslab.gmes_spectrum(b),
    "gmms_distribution": lambda b: gmeslab.gmms_distribution(b),
    "tmsv_spectrum": lambda r: gmeslab.tmsv_spectrum(r),
    "poisson_tail": lambda n, lam: gmeslab.poisson_tail(n, lam),
    "fidelity_gmes_mes": _fidelity_gmes_mes,
}


def execute(op, out_csv):
    """Run one operation; return ("ok" | "exit N" | error name, output)."""
    if op["kind"] == "cli":
        code = gmeslab.cli.main([*op["argv"], "--out", out_csv])
        return ("ok" if code == 0 else f"exit {code}"), None
    try:
        return "ok", LIB_OPS[op["fn"]](*op["args"])
    except gmeslab.GmeslabError as exc:
        return type(exc).__name__, None


def _array_of(value):
    if isinstance(value, gmeslab.SchmidtSpectrum):
        return value.coeffs
    if isinstance(value, gmeslab.NumberDistribution):
        return value.probs
    return None


def fingerprint(op, status, value, out_csv):
    if status != "ok":
        return status
    if op["kind"] == "cli":
        with open(out_csv, "rb") as handle:
            return f"ok {zlib.crc32(handle.read()):08x}"
    array = _array_of(value)
    if array is None:
        return f"ok {float(value).hex()}"
    return f"ok {array.size} {zlib.crc32(array.data):08x} {float(value.tail_bound).hex()}"


def save_output(op, status, value, out_csv, path_stem):
    """Keep the checked round's output for run.py."""
    if status != "ok":
        return
    if op["kind"] == "cli":
        os.replace(out_csv, path_stem + ".csv")
        return
    array = _array_of(value)
    if array is None:
        with open(path_stem + ".json", "w", encoding="ascii") as handle:
            json.dump({"value": float(value)}, handle)
    else:
        np.save(path_stem + ".npy", array)
        with open(path_stem + ".json", "w", encoding="ascii") as handle:
            json.dump({"tail_bound": float(value.tail_bound)}, handle)


def run(plan_path, outdir):
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    ops = plan["ops"]
    out_csv = os.path.join(outdir, "op.csv")

    checked = []
    for i, op in enumerate(ops):
        status, value = execute(op, out_csv)
        checked.append(fingerprint(op, status, value, out_csv))
        save_output(op, status, value, out_csv, os.path.join(outdir, f"op{i}"))
        del value

    result = {"checked": checked}
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer(gmeslab)
        passes = plan["passes"]
        seen = [set() for _ in ops]
        start = time.perf_counter()
        for _ in range(passes):
            for i, op in enumerate(ops):
                with tracer.cli_op(op["kind"] == "cli"):
                    status, value = execute(op, out_csv)
                if op["kind"] == "cli" and status == "ok":
                    tracer.count_csv(out_csv)
                seen[i].add(fingerprint(op, status, value, out_csv))
                del value
        elapsed = time.perf_counter() - start
        tracer.restore()
        result.update(rounds=passes, seen=[sorted(s) for s in seen],
                      layers=tracer.metrics(passes), trace_ops_per_s=passes * len(ops) / elapsed)
    else:
        seconds = plan["seconds"]
        seen = [set() for _ in ops]
        latencies = []
        rounds = 0
        start = time.perf_counter()
        while True:
            for i, op in enumerate(ops):
                t0 = time.perf_counter()
                status, value = execute(op, out_csv)
                latencies.append(time.perf_counter() - t0)
                seen[i].add(fingerprint(op, status, value, out_csv))
                del value
            rounds += 1
            if time.perf_counter() - start >= seconds:
                break
        elapsed = time.perf_counter() - start
        result.update(
            rounds=rounds,
            seen=[sorted(s) for s in seen],
            elapsed_s=elapsed,
            latencies_s=latencies,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    with open(os.path.join(outdir, "result.json"), "w", encoding="ascii") as handle:
        json.dump(result, handle)


def setup(plan_path, outdir):
    with open(plan_path, encoding="utf-8") as handle:
        ops = json.load(handle)["setup_ops"]
    out_csv = os.path.join(outdir, "setup.csv")
    for op in ops:
        status, _ = execute(op, out_csv)
        if status != "ok":
            raise SystemExit(f"set-up call {op} failed: {status}")
    print(repr(time.monotonic()), flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], sys.argv[3])
    else:
        run(sys.argv[2], sys.argv[3])
