"""Tests of the benchmark itself: python3 -m pytest perfbench -q

Every output check must accept gmeslab's real output and reject the same
output with its values perturbed by 1e-6 relative.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import gmeslab  # noqa: E402
import gmeslab.cli  # noqa: E402
from child import LIB_OPS, _array_of  # noqa: E402
from run import parse_importtime, verify  # noqa: E402
from tracer import Tracer, layer_metric_specs  # noqa: E402
from workloads import WORKLOADS, make_round, qutrit_triple  # noqa: E402

REL = 1e-6


def cli_output(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert gmeslab.cli.main([*argv, "--out", str(out)]) == 0
    return out.read_text(encoding="ascii")


def perturb_csv(text, columns, factor):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    picked = [i for i, name in enumerate(header) if any(name.startswith(c) for c in columns)]
    assert picked, (header, columns)
    for row in rows[1:]:
        for i in picked:
            row[i] = f"{float(row[i]) * factor:.12g}"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def assert_rejects(op, out, columns, factors=(1 + REL, 1 - REL)):
    assert checks.check(op, out) == []
    for factor in factors:
        assert checks.check(op, perturb_csv(out, columns, factor)), (columns, factor)


TRIPLE = [repr(x) for x in qutrit_triple("gmes", 3.7)]
CLI_CASES = [
    (["fig1"], [["bell_gmes"], ["bell_tmsv"]]),
    (["fig2", "--variant", "a"], [["fid_N"]]),
    (["fig2", "--variant", "b"], [["fid_N"]]),
    (["fig2", "--variant", "c"], [["fidelity"]]),
    (["fig2", "--variant", "d"], [["fidelity"]]),
    (["kerr", "--alpha", "1.7", "--d", "3"], [["fidelity"], ["norm2_k"], ["gram_0"]]),
    (["kerr", "--alpha", "6.2", "--d", "5", "--cutoff", "1000"], [["fidelity"], ["norm2_k"]]),
]


@pytest.mark.parametrize("argv,column_sets", CLI_CASES, ids=[" ".join(c[0]) for c in CLI_CASES])
def test_cli_checks_accept_output_and_reject_perturbation(tmp_path, argv, column_sets):
    op = {"kind": "cli", "argv": argv}
    out = cli_output(tmp_path, argv)
    for columns in column_sets:
        assert_rejects(op, out, columns)


def test_bell_oracle_check(tmp_path):
    argv = ["bell-oracle", "--a", *TRIPLE, "--seed", "7"]
    op = {"kind": "cli", "argv": argv}
    out = cli_output(tmp_path, argv)
    assert_rejects(op, out, ["analytic"])
    assert_rejects(op, out, ["oracle"])


def lib_output(fn, *args):
    value = LIB_OPS[fn](*args)
    array = _array_of(value)
    if array is None:
        return {"value": value}
    return {"array": array.copy(), "tail_bound": value.tail_bound}


LIB_CASES = [
    ("gmes_spectrum", 131),
    ("gmes_spectrum", 347),
    ("gmms_distribution", 50),
    ("tmsv_spectrum", 5.01),
    ("poisson_tail", 157000, 158000.0),
    ("poisson_tail", 10300, 9900.0),
    ("fidelity_gmes_mes", 108, 11500),
]


@pytest.mark.parametrize("case", LIB_CASES, ids=[f"{c[0]}{c[1:]}" for c in LIB_CASES])
def test_lib_checks_accept_output_and_reject_perturbation(case):
    fn, *args = case
    op = {"kind": "lib", "fn": fn, "args": args}
    out = lib_output(fn, *args)
    assert checks.check(op, out) == []
    for factor in (1 + REL, 1 - REL):
        bad = dict(out)
        if "array" in out:
            bad["array"] = out["array"].copy()
            bad["array"][out["array"].size // 2] *= factor
        else:
            bad["value"] = out["value"] * factor
        assert checks.check(op, bad), factor


def test_overlap_slack_is_bounded_by_sqrt_tail():
    for b in (0.5, 3.0, 15.0):
        refs, slack = checks.gmes_overlaps(b, [5, 1000, 20000])
        assert np.all(slack <= np.sqrt(2 * checks.TOL) * (1 + 1e-9))
        assert slack[0] == 0.0
    refs, slack = checks.tmsv_overlaps(0.3, [3, 10**6])
    assert slack[0] == 0.0 and 0.0 < slack[1] <= np.sqrt(2 * checks.TOL)


def test_classify():
    gmes = {"kind": "lib", "fn": "gmes_spectrum", "args": [60]}
    assert checks.classify(gmes, "ok", {"tail_bound": 1.04e-12, "array": np.ones(1)})
    assert checks.classify(gmes, "ok", {"tail_bound": 0.9e-12, "array": np.ones(1)}) is None
    assert checks.classify(gmes, "TruncationError", None) == "TruncationError"
    assert checks.classify({"kind": "cli", "argv": ["kerr"]}, "exit", None) == "exit"


def save_lib_output(tmp_path, i, out):
    np.save(tmp_path / f"op{i}.npy", out["array"])
    (tmp_path / f"op{i}.json").write_text(json.dumps({"tail_bound": out["tail_bound"]}), encoding="ascii")


@pytest.mark.parametrize("expect", [None, "F-tail"])
def test_verify_flags_only_unexpected_failures(tmp_path, expect):
    # gmes_spectrum(60) records a tail above tol today (F-tail); an error
    # status fails the same way.
    tail = {"kind": "lib", "label": "gmes_spectrum", "fn": "gmes_spectrum", "args": [60]}
    trunc = {"kind": "lib", "label": "gmes_spectrum", "fn": "gmes_spectrum", "args": [300]}
    if expect:
        tail["expect"], trunc["expect"] = expect, "F-trunc"
    save_lib_output(tmp_path, 0, lib_output("gmes_spectrum", 60))
    result = {"checked": ["ok 1", "TruncationError"], "seen": [["ok 1"], ["TruncationError"]]}
    correct, failing, problems = verify([tail, trunc], result, tmp_path)
    assert failing == [0, 1]
    assert correct is (expect is not None)
    assert len(problems) == (0 if expect else 2)


def test_verify_flags_outputs_that_change_between_rounds(tmp_path):
    op = {"kind": "lib", "label": "gmes_spectrum", "fn": "gmes_spectrum", "args": [40]}
    save_lib_output(tmp_path, 0, lib_output("gmes_spectrum", 40))
    assert verify([op], {"checked": ["ok 1"], "seen": [["ok 1"]]}, tmp_path)[0] is True
    assert verify([op], {"checked": ["ok 1"], "seen": [["ok 1", "ok 2"]]}, tmp_path)[0] is False


@pytest.mark.parametrize("workload", WORKLOADS)
def test_rounds_follow_the_seed(workload):
    first, again, other = make_round(workload, 3), make_round(workload, 3), make_round(workload, 4)
    assert first == again
    assert first != other
    assert len(first) == len(other)
    # operations kept for a named fault do not depend on the seed
    assert [op for op in first if "expect" in op] == [op for op in other if "expect" in op]
    json.dumps(first)


def test_benchmark_json_lists_what_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == layer_metric_specs()
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "ops_per_s", "latency_ms.p50", "latency_ms.p90", "peak_rss_mb"}


def test_parse_importtime():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:       300 |        300 |     numpy.core",
        "import time:       200 |        500 |   numpy",
        "import time:       400 |        400 |   scipy.special",
        "import time:        50 |        950 | gmeslab",
        "import time:        10 |         10 |   csv",
        "import time:        20 |         30 | gmeslab.cli",
    ])
    assert parse_importtime(log) == {
        "import.gmeslab_ms": 0.98, "import.scipy_ms": 0.4, "import.numpy_ms": 0.5, "import.modules": 6}


def test_tracer_counts_nested_calls_and_restores():
    original = gmeslab.states.gmes_spectrum
    tracer = Tracer(gmeslab)
    try:
        spectrum = gmeslab.gmes_spectrum(10.0)
        gmeslab.states.solve_b_for_nbar(2.0)
    finally:
        tracer.restore()
    assert gmeslab.states.gmes_spectrum is original and gmeslab.gmes_spectrum is original
    metrics = tracer.metrics(1)
    assert metrics["states.solve_b_for_nbar.calls"] == 1
    assert metrics["states.gmes_spectrum.calls"] == metrics["states.bounded_f_profile.calls"] > 2
    assert metrics["states.coeffs_built"] >= len(spectrum)
    assert all(metrics[f"{key}.self_ms"] >= 0.0 for key in tracer.calls)


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "deep-spectra", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_short_run_end_to_end():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "deep-spectra", "--seed", "5",
                           "--seconds", "1", "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    ops = make_round("deep-spectra", 5)
    assert result["attempted"] % len(ops) == 0
    assert result["failed"] * len(ops) == sum("expect" in op for op in ops) * result["attempted"]
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "latency_ms.p50", "latency_ms.p90", "peak_rss_mb"}
