"""Command-line interface: CSV contracts, config files and exit codes."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import pdtrc

import gmeslab.cli
import gmeslab.crosskerr
import gmeslab.states
from gmeslab import ConfigError, DomainError, QutritState, bell_max_analytic, fidelity, gmes_spectrum, mes_spectrum, tmsv_spectrum
from gmeslab.cli import _sweep, main
from test_golden import CASES as GOLDEN_CASES


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*args):
    """``python -W error -m gmeslab.cli *args`` in a fresh process: its exit code, stdout and stderr.

    The process goes through the module's ``__main__`` guard and ``entrypoint``; the timeout fails a hang, which
    no in-process call can.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(gmeslab.cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-W", "error", "-m", "gmeslab.cli", *args], env=env, capture_output=True,
                          text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def rows_of(text):
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_vacuum(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", "tmsv", "--r", "0")
    assert code == 0
    assert out == "n,coeff\n0,1.0\n"


def test_spectrum_gmes_leading_row(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", "gmes", "--b", "1", "--tol", "1e-12")
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["n", "coeff"]
    assert rows[0][0] == "0"
    assert float(rows[0][1]) == pytest.approx(math.sqrt(-math.expm1(-1.0)), rel=1e-12)
    assert len(rows) == len(gmes_spectrum(1.0))


def test_spectrum_mes(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", "mes", "--N", "4")
    assert code == 0
    _, rows = rows_of(out)
    assert [r[1] for r in rows] == ["0.5"] * 4


@pytest.mark.parametrize(
    "args",
    [
        ("spectrum",),  # missing family
        ("spectrum", "--family", "tmsv"),  # missing parameter
        ("spectrum", "--family", "tmsv", "--r", "-1"),
        ("spectrum", "--family", "gmes", "--b", "0"),
        ("spectrum", "--family", "nope", "--r", "1"),
        ("spectrum", "--family", "tmsv", "--r", "1", "--tol", "2"),
        ("spectrum", "--family", "gmes", "--b", "25", "--cap", "100"),
        ("spectrum", "--family", "tmsv", "--r", "400"),
        # a cutoff past the hard cap of 200000
        ("spectrum", "--family", "tmsv", "--r", "30"),
    ],
)
def test_spectrum_usage_errors(capsys, args):
    code, _, _ = run(capsys, *args)
    assert code == 2


@pytest.mark.parametrize(
    "args",
    [
        ("spectrum", "--family", "gmes", "--b", "1e-200"),
        ("fidelity", "gmes:b=1e-200", "mes:N=3"),
        ("fig2", "--variant", "a", "--start", "1e-200", "--stop", "1", "--steps", "2"),
        ("spectrum", "--family", "gmes", "--b", "1e155"),
    ],
)
def test_gmes_radius_whose_square_is_not_a_positive_float(capsys, args):
    # b^2 rounds to 0 below about 1.6e-162 (log(0) raised a bare ValueError)
    # and overflows above about 1.3e154
    code, out, err = run(capsys, *args)
    assert code == 2
    assert out == ""
    assert "1.6e-162 < b < 1.3e154" in err
    assert run(capsys, "spectrum", "--family", "gmes", "--b", "1e-161")[1] == "n,coeff\n0,1.0\n"


def test_spectrum_mes_above_cap(capsys):
    # refused before any N-entry vector is allocated
    code, _, err = run(capsys, "spectrum", "--family", "mes", "--N", str(10**15))
    assert code == 2
    assert "hard cap" in err
    assert run(capsys, "spectrum", "--family", "mes", "--N", "50", "--cap", "49")[0] == 2


def test_spectrum_gmes_past_the_cap_allocates_nothing(capsys):
    # every f(n, b) is below 1/b^2, so at b = 1e4 no cutoff within the
    # 200000 cap can hold 1 - tol of the mass; that is known before any
    # O(b) array is built
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "spectrum", "--family", "gmes", "--b", "1e4")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert "hard cap" in err
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "args",
    [
        # the cutoff search at r = 30 never returned
        ("spectrum", "--family", "tmsv", "--r", "30", "--cap", str(10**30)),
        # a 537 TiB coefficient array raised MemoryError
        ("spectrum", "--family", "tmsv", "--r", "15", "--cap", str(10**14)),
        ("spectrum", "--family", "mes", "--N", "5", "--cap", "-1"),
        ("fidelity", "gmes:b=15", "mes:N=200", "--cap", "200001"),
        ("fig2", "--variant", "a", "--cap", "200001"),
    ],
    ids=["tmsv-hang", "tmsv-memory", "mes-negative", "fidelity", "fig2"],
)
def test_cap_outside_the_hard_cap(capsys, args):
    code, out, err = run(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cutoff cap must lie in [0, 200000]") and err.count("\n") == 1


def test_cap_outside_the_hard_cap_is_refused_within_a_minute():
    # the cutoff search at r = 30 and cap 1e30 never returned: a fresh process under a 60 s timeout fails a hang
    code, out, err = run_module("spectrum", "--family", "tmsv", "--r", "30", "--cap", str(10**30))
    assert (code, out) == (2, "")
    assert err == f"error: cutoff cap must lie in [0, 200000], got {10**30}\n"


def test_import_and_default_subcommands_load_no_scipy():
    # log k! comes from the committed table at every default, so scipy loads
    # only for a pmf range past k = 4095; the Kerr weights come from the saddle-point kernel, which reads no log k!
    # even at |alpha| = 100, where the pmf range passes the table
    script = (
        "import json, os, sys, gmeslab, gmeslab.cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "loaded = {'import': scipy_modules()}\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    assert gmeslab.cli.main([*args, '--out', os.devnull]) == 0, args\n"
        "    loaded[' '.join(args)] = scipy_modules()\n"
        "print(json.dumps(loaded))\n"
    )
    src = str(Path(gmeslab.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    commands = [*GOLDEN_CASES.values(), ["kerr", "--alpha", "100", "--d", "3"]]
    done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    loaded = json.loads(done.stdout)
    assert len(loaded) == 1 + len(commands) == 11
    assert loaded == dict.fromkeys(loaded, [])


def test_no_command(capsys):
    assert run(capsys)[0] == 2


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------


def test_fidelity_command(capsys):
    code, out, _ = run(capsys, "fidelity", "tmsv:r=1.0", "mes:N=3")
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["state_a", "state_b", "fidelity"]
    want = fidelity(tmsv_spectrum(1.0), mes_spectrum(3))
    assert rows[0][:2] == ["tmsv:r=1.0", "mes:N=3"]
    assert float(rows[0][2]) == pytest.approx(want, rel=1e-12)


def test_fidelity_mes_target_is_exact(capsys):
    # (1 - t^N) / ((1 - t) cosh(r) sqrt(N)) at t = tanh(1), N = 1000; the
    # spectrum truncated at tol = 1e-12 gives 0.0859595391659
    for states in (("tmsv:r=1.0", "mes:N=1000"), ("mes:N=1000", "tmsv:r=1.0")):
        code, out, _ = run(capsys, "fidelity", *states)
        assert code == 0
        assert out.splitlines()[1] == ",".join(states) + ",0.0859596190018"
    # O(1) whatever N, also far past the spectrum cap
    code, out, _ = run(capsys, "fidelity", "tmsv:r=1.0", f"mes:N={10**15}")
    assert code == 0
    assert float(rows_of(out)[1][0][2]) == pytest.approx(0.0859596190018 / math.sqrt(1e12), rel=1e-11)
    code, out, _ = run(capsys, "fidelity", "mes:N=3", "mes:N=12")
    assert out.splitlines()[1].endswith(",0.5")


# <GMES_15|TMSV_1> = sum_n sqrt(P(X > n)) t^n / (b cosh r), X ~ Poisson(b^2),
# t = tanh(r), b = 15, r = 1, summed at 30 digits
GMES_15_TMSV_1 = 0.181218788563936


def test_gmes_tmsv_overlap_reference():
    # the terms past n = 400 are below tanh(1)^400 ~ 1e-47
    with mpmath.workdps(30):
        b, r = mpmath.mpf(15), mpmath.mpf(1)
        t = mpmath.tanh(r)
        want = mpmath.fsum(
            mpmath.sqrt(mpmath.gammainc(n + 1, 0, b * b, regularized=True)) * t**n for n in range(400)
        ) / (b * mpmath.cosh(r))
    assert float(want) == pytest.approx(GMES_15_TMSV_1, rel=1e-14)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="F-fid: the dot product of two spectra each truncated at tol loses up to "
    "about sqrt(tol) of the overlap; prints 0.181218620255, 9.3e-7 relative off",
)
def test_fidelity_of_two_truncated_families_is_exact(capsys):
    code, out, _ = run(capsys, "fidelity", "gmes:b=15", "tmsv:r=1")
    assert code == 0
    assert float(rows_of(out)[1][0][2]) == pytest.approx(GMES_15_TMSV_1, rel=1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        "foo:r=1", "tmsv:b=1", "tmsv", "tmsv:r=abc", "gmes:b=1,r=2", "mes:N=0", "mes:N=2.5",
        # a repeated key, and line breaks: a spec is echoed as one CSV cell
        "gmes:b=15,b=16", "mes:N=200,N=200", "gmes:b=15\n", "tmsv\r:r=1.0", "mes:N=\n200",
    ],
)
def test_fidelity_bad_specs(capsys, spec):
    code, _, err = run(capsys, "fidelity", spec, "mes:N=3")
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# fig1
# ---------------------------------------------------------------------------


def test_fig1_small_sweep(capsys):
    code, out, _ = run(capsys, "fig1", "--start", "0.5", "--stop", "2", "--steps", "3")
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["nbar", "bell_gmes", "bell_tmsv"]
    assert len(rows) == 3
    assert float(rows[0][0]) == pytest.approx(0.5, rel=1e-12)
    for row in rows:
        assert 0.0 < float(row[1]) < 4.0
        assert 0.0 < float(row[2]) < 4.0


def test_fig1_deterministic(capsys):
    args = ("fig1", "--start", "0.1", "--stop", "5", "--steps", "7")
    out1 = run(capsys, *args)[1]
    out2 = run(capsys, *args)[1]
    assert out1 == out2


@pytest.mark.parametrize(
    "args",
    [
        # below nbar = 1e-150, P(X > 1) ~ 2 nbar^2 nears the float underflow
        ("--start", "1e-300", "--stop", "1", "--steps", "2"),
        ("--start", "0", "--stop", "1", "--steps", "2", "--spacing", "linear"),
        # 2 nbar overflows
        ("--start", "1", "--stop", "1e308", "--steps", "2", "--spacing", "linear"),
        # fig1 builds no spectrum, so it takes neither option
        ("--tol", "1e-3"),
        ("--cap", "10"),
    ],
    ids=["nbar-underflow", "nbar-zero", "nbar-overflow", "tol", "cap"],
)
def test_fig1_domain_and_option_errors(capsys, args):
    code, out, err = run(capsys, "fig1", *args)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_fig1_builds_no_spectrum(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fig1 built a spectrum or a per-point qutrit state")

    # the Bell columns are one grid expression, with no QutritState per point
    for name in ("gmes_spectrum", "tmsv_spectrum", "mes_spectrum", "QutritState", "bell_max_analytic"):
        monkeypatch.setattr(gmeslab.cli, name, refuse)
    monkeypatch.setattr(gmeslab.states, "bounded_f_profile", refuse)
    code, out, _ = run(capsys, "fig1")
    assert code == 0
    assert len(rows_of(out)[1]) == 200


def test_fig1_makes_one_tail_array_call(capsys, monkeypatch):
    # the whole grid in one call over its vector of means, not one call per point
    calls = []
    tail_array = gmeslab.cli._poisson_tail_array

    def spy(lam, nmax, nmin=0):
        calls.append((np.shape(lam), nmax, nmin))
        return tail_array(lam, nmax, nmin)

    monkeypatch.setattr(gmeslab.cli, "_poisson_tail_array", spy)
    code, out, _ = run(capsys, "fig1")
    assert code == 0
    assert len(rows_of(out)[1]) == 200
    assert calls == [((200,), 2, 0)]


def test_fig1_kernel_terms_only_for_the_sums_read(capsys, monkeypatch):
    # 26,800 terms when every row's block also ran the upper sum: the rows with
    # 2 nbar >= 3 never read it, and the lower sums start ceil(12 sqrt(lam)) below the mean
    terms = []
    pmf_terms = gmeslab.states._pmf_terms

    def count_terms(start, stop, lam):
        out = pmf_terms(start, stop, lam)
        terms.append(out.size)
        return out

    monkeypatch.setattr(gmeslab.states, "_pmf_terms", count_terms)
    code, out, _ = run(capsys, "fig1")
    assert code == 0
    assert len(terms) == 2 and sum(terms) <= 12_000


def test_fig1_means_past_the_int64_range(capsys):
    # floor(2 nbar) passes int64 at every point, so the kernel clips each row's
    # bounds before any integer cast: a cast would warn, an error under this
    # suite's filterwarnings.  Every tail is 1.0, as for the uniform qutrit.
    code, out, err = run(capsys, "fig1", "--start", "1e290", "--stop", "8e307", "--steps", "3")
    assert (code, err) == (0, "")
    uniform = gmeslab.cli._fmt(float(gmeslab.cli._bell_of_rows(np.ones((1, 3)))[0]))
    assert [row[1:] for row in rows_of(out)[1]] == [[uniform, uniform]] * 3


def fig1_row(nbar):
    """``(bell_gmes, bell_tmsv)`` as fig1 prints them at ``nbar``, the first point of its grid."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["fig1", "--start", repr(nbar), "--stop", repr(2.0 * nbar), "--steps", "2",
                     "--spacing", "linear"])
    assert code == 0
    return tuple(float(v) for v in rows_of(out.getvalue())[1][0][1:])


def bell_closed_form(a, sqrt=math.sqrt):
    norm = sqrt(sum(x * x for x in a))
    a0, a1, a2 = (x / norm for x in a)
    return 4 * a0 * a1 + 4 / sqrt(3) * (a0 * a2 + a1 * a2)


def fig1_oracle(nbar):
    """Both fig1 columns at ``nbar`` to 50 digits: GMES from P(X > n) at X ~ Poisson(2 nbar),
    TMSV from (1, t, t^2) with t^2 = nbar / (1 + nbar)."""
    with mpmath.workdps(50):
        x = mpmath.mpf(nbar)
        gmes = [mpmath.sqrt(mpmath.gammainc(n + 1, 0, 2 * x, regularized=True)) for n in range(3)]
        t = mpmath.sqrt(x / (1 + x))
        return tuple(float(bell_closed_form(a, mpmath.sqrt)) for a in (gmes, [1, t, t * t]))


@pytest.mark.parametrize("nbar", [1e-8, 0.01, 1.0, 50.0, 1e6])
def test_fig1_matches_mpmath(nbar):
    # a spectrum cut at tol = 1e-12 drops a2 at nbar = 1e-8 (4.7e-5 and 5.8e-5
    # off) and passes the spectrum cap at nbar = 1e6
    assert fig1_row(nbar) == pytest.approx(fig1_oracle(nbar), rel=1e-11)


@given(st.floats(-8.0, 6.0))
@example(-8.0)
@example(6.0)
def test_fig1_gmes_matches_pdtrc(exponent):
    nbar = 10.0**exponent
    want = bell_closed_form(np.sqrt(pdtrc(np.arange(3), 2.0 * nbar)))
    assert fig1_row(nbar)[0] == pytest.approx(want, rel=1e-11)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-150.0, 300.0), min_size=1, max_size=20))
@example([-150.0, 300.0])
def test_fig1_grid_expression_matches_the_per_point_closed_form(exponents):
    # B(a)/|a|^2 over the whole grid against bell_max_analytic on each unit vector
    nbars = 10.0 ** np.array(exponents)
    gmes = np.sqrt([gmeslab.states._poisson_tail_array(2.0 * nbar, 2) for nbar in nbars])
    t = np.sqrt(nbars / (1.0 + nbars))
    tmsv = np.stack((np.ones_like(t), t, t * t), axis=1)
    for rows in (gmes, tmsv):
        want = [bell_max_analytic(QutritState(gmeslab.cli._unit(a.tolist()))) for a in rows]
        np.testing.assert_allclose(gmeslab.cli._bell_of_rows(rows), want, rtol=1e-15, atol=0.0)


def test_fig1_bad_range(capsys):
    assert run(capsys, "fig1", "--start", "5", "--stop", "1", "--steps", "3")[0] == 2
    assert run(capsys, "fig1", "--start", "1", "--stop", "2", "--steps", "1")[0] == 2


@pytest.mark.parametrize("command", [("fig1",), ("fig2", "--variant", "c")])
def test_sweep_bounds_must_be_finite(capsys, command):
    # refused by _sweep, before numpy would warn on an inf grid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *command, "--start", "1", "--stop", "inf")
    assert code == 2
    assert out == ""
    assert err.startswith("error: sweep needs finite start < stop") and err.count("\n") == 1
    with pytest.raises(ConfigError):
        _sweep(-math.inf, 1.0, 2, "linear")


@pytest.mark.parametrize("command", [("fig1",), ("fig2", "--variant", "a"), ("fig2", "--variant", "b"),
                                     ("fig2", "--variant", "c"), ("fig2", "--variant", "d")])
@pytest.mark.parametrize("bounds", [("--start=-1e308", "--stop", "1e308", "--spacing", "linear"),
                                    ("--start", "1", "--stop", "1.7976931348623157e308", "--spacing", "log")])
def test_sweep_grid_must_be_finite(capsys, command, bounds):
    # a linear width past the float range, or a last point that rounds to inf:
    # numpy warned, or int(inf) raised, before the grid itself was checked
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *command, *bounds, "--steps", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: sweep needs finite start < stop") and err.count("\n") == 1


SWEEP_BOUNDS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308])


@settings(max_examples=500, deadline=None)
@given(SWEEP_BOUNDS, SWEEP_BOUNDS, st.integers(2, 1000), st.sampled_from(["linear", "log"]))
@example(-1e308, 1e308, 3, "linear")
@example(1.0, 1.7976931348623157e308, 3, "log")
@example(-1.797e308, -1.0, 7, "linear")
@example(5e-324, 1.7976931348623157e308, 1000, "log")
def test_sweep_is_finite_or_refused(start, stop, steps, spacing):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            grid = _sweep(start, stop, steps, spacing)
        except ConfigError:
            return
    assert grid.shape == (steps,)
    assert np.isfinite(grid).all()
    assert (np.diff(grid) >= 0.0).all()


@pytest.mark.parametrize("command", [("fig1",), ("fig2", "--variant", "a"), ("fig2", "--variant", "c")])
def test_sweep_steps_bound(capsys, command):
    # refused by _sweep before any grid is allocated
    code, _, err = run(capsys, *command, "--steps", str(10**15))
    assert code == 2
    assert "steps" in err


# ---------------------------------------------------------------------------
# fig2
# ---------------------------------------------------------------------------


def test_fig2_variant_a_columns(capsys):
    code, out, _ = run(
        capsys, "fig2", "--variant", "a", "--start", "1", "--stop", "5",
        "--steps", "3", "--dims", "5,20",
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["b", "fid_N5", "fid_N20"]
    assert len(rows) == 3
    want = fidelity(mes_spectrum(5), gmes_spectrum(1.0))
    assert float(rows[0][1]) == pytest.approx(want, rel=1e-12)


def test_fig2_variant_a_nbar_axis(capsys):
    code, out, _ = run(
        capsys, "fig2", "--variant", "a", "--start", "2", "--stop", "4",
        "--steps", "2", "--dims", "5", "--x", "nbar",
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["nbar", "fid_N5"]
    assert float(rows[0][0]) == pytest.approx(2.0, rel=1e-12)  # b^2/2 at b=2


def test_fig2_nbar_axis_at_the_top_of_the_float_range(capsys):
    # sinh(r)^2 stays finite up to r ~ 355.3: r = 355 prints its row, r = 356 exits 2
    sweep = ("fig2", "--variant", "b", "--x", "nbar", "--steps", "2", "--dims", "5")
    code, out, _ = run(capsys, *sweep, "--start", "354", "--stop", "355")
    assert code == 0
    assert float(rows_of(out)[1][-1][0]) == pytest.approx(math.sinh(355.0) ** 2, rel=1e-11)
    code, out, err = run(capsys, *sweep, "--start", "355", "--stop", "356")
    assert code == 2
    assert out == ""
    assert err == "error: fig2 --x nbar needs a finite sinh(r)^2, got r=356.0\n"
    # and over the default grid from 0 to 800, refused at its first point past 355.3
    code, out, err = run(capsys, "fig2", "--variant", "b", "--x", "nbar", "--start", "0", "--stop", "800")
    assert (code, out) == (2, "")
    assert err == "error: fig2 --x nbar needs a finite sinh(r)^2, got r=355.852842809\n"


def test_fig2_variant_b_columns(capsys):
    code, out, _ = run(
        capsys, "fig2", "--variant", "b", "--start", "0.5", "--stop", "1.5",
        "--steps", "2", "--dims", "5",
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["r", "fid_N5"]
    want = fidelity(mes_spectrum(5), tmsv_spectrum(0.5))
    assert float(rows[0][1]) == pytest.approx(want, rel=1e-12)


def test_fig2_variant_c(capsys):
    code, out, _ = run(
        capsys, "fig2", "--variant", "c", "--start", "10", "--stop", "100", "--steps", "5",
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["N", "fidelity"]
    dims = [int(r[0]) for r in rows]
    assert dims == sorted(set(dims))
    want = fidelity(mes_spectrum(dims[0]), gmes_spectrum(15.0))
    assert float(rows[0][1]) == pytest.approx(want, rel=1e-12)


def test_fig2_variant_d(capsys):
    code, out, _ = run(
        capsys, "fig2", "--variant", "d", "--start", "10", "--stop", "50",
        "--steps", "3", "--r", "1.0",
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["N", "fidelity"]
    want = fidelity(mes_spectrum(10), tmsv_spectrum(1.0))
    assert float(rows[0][1]) == pytest.approx(want, rel=1e-12)


def test_fig2_overlap_memory(capsys):
    # the overlap with MES_N needs O(1) memory, not an N-entry target vector
    tracemalloc.start()
    try:
        code, out, _ = run(
            capsys, "fig2", "--variant", "c", "--start", "9999999", "--stop", "10000000",
            "--steps", "2",
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    rows = rows_of(out)[1]
    assert [r[0] for r in rows] == ["9999999", "10000000"]
    # N is far past the support, so the overlap is the untruncated sum
    # sum_n sqrt(P(X > n) / b^2) / sqrt(N) with X ~ Poisson(b^2 = 225)
    want = float(np.sum(np.sqrt(pdtrc(np.arange(3000), 225.0) / 225.0))) / math.sqrt(1e7)
    assert float(rows[1][1]) == pytest.approx(want, rel=1e-11)
    assert peak < 8_000_000


def test_fig2_a_sums_to_the_largest_dimension_from_the_table(capsys, monkeypatch):
    # at b <= 30 every pmf term comes from the log k! table, none from gammaln,
    # and no tail past n = 999 is built for N = 1000
    terms = {"kernel": 0, "cells": 0, "gammaln": 0, "tail arrays": 0}
    pmf_terms, gammaln = gmeslab.states._pmf_terms, gmeslab.states.gammaln
    tail_array = gmeslab.states._poisson_tail_array

    def count_terms(start, stop, lam):
        terms["kernel"] += max(0, stop - start)
        out = pmf_terms(start, stop, lam)
        terms["cells"] += out.size
        return out

    def count_gammaln(x):
        terms["gammaln"] += np.size(x)
        return gammaln(x)

    def count_tail_arrays(*args):
        terms["tail arrays"] += 1
        return tail_array(*args)

    monkeypatch.setattr(gmeslab.states, "_pmf_terms", count_terms)
    monkeypatch.setattr(gmeslab.states, "gammaln", count_gammaln)
    monkeypatch.setattr(gmeslab.states, "_poisson_tail_array", count_tail_arrays)
    code, out, _ = run(capsys, "fig2", "--variant", "a")
    assert code == 0
    assert len(rows_of(out)[1]) == 300
    # 470,376 terms when every sum ran to b^2 + 40 b + 60, 325,403 on the whole
    # support, and 229,986 with the sums cut where they stop seeing terms
    assert 0 < terms["kernel"] <= 230_000
    assert terms["gammaln"] == 0
    # the 300 radii go in 17 blocks of neighbouring b, one tail array each (300 with
    # one per radius), whose kernels hold 238,562 cells (252,622 with the window
    # constants that preceded _chernoff_range)
    assert terms["tail arrays"] <= 25
    assert terms["cells"] <= 256_000


@pytest.mark.parametrize(
    "args,dim",
    [
        (("--variant", "d", "--r", "20", "--start", "1000000", "--stop", "2000000"), 2_000_000),
        (("--variant", "b", "--start", "19", "--stop", "20", "--dims", "2000000"), 2_000_000),
    ],
)
def test_fig2_tmsv_overlap_memory(capsys, args, dim):
    # strong squeezing needs millions of terms per spectrum, but the
    # geometric closed form needs O(1) memory per overlap
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "fig2", *args, "--steps", "2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # tanh(20) = 1 - 8.5e-18, so the first 2e6 terms are equal to 1e-11
    assert float(rows_of(out)[1][-1][-1]) == pytest.approx(math.sqrt(dim) / math.cosh(20.0), rel=1e-9)
    assert peak < 8_000_000


def test_fig2_gmes_past_spectrum_cap(capsys):
    # gmes_spectrum(300) raises TruncationError (fault F-trunc); the overlap
    # window _chernoff_range(b^2, 99)'s hi of every b on this grid is under the cap
    code, out, _ = run(capsys, "fig2", "--variant", "a", "--start", "299", "--stop", "301", "--steps", "3")
    assert code == 0
    header, rows = rows_of(out)
    assert [row[0] for row in rows] == ["299.0", "300.0", "301.0"]
    for row in rows:
        assert all(0.0 < float(v) <= 1.0 for v in row[1:])


def test_fig2_integer_grid_past_int64(capsys):
    # an int64 cast wrapped 1e19 to a negative N, which was then dropped
    code, out, _ = run(capsys, "fig2", "--variant", "c", "--stop", "1e19", "--steps", "3")
    assert code == 0
    assert [row[0] for row in rows_of(out)[1]] == ["1", "3162277660", "10000000000000000000"]
    assert _sweep(1.0, 1e19, 3, "log").tolist() == [1.0, pytest.approx(3162277660.17), 1e19]


def test_dimensions_past_the_float_range(capsys):
    huge = str(10**309)
    for args in (
        ("fig2", "--variant", "b", "--steps", "2", "--dims", huge),
        ("fidelity", "tmsv:r=1.0", f"mes:N={huge}"),
        ("fidelity", f"mes:N={huge}", "mes:N=3"),
    ):
        code, out, err = run(capsys, *args)
        assert code == 2
        assert out == ""
        assert "1.798e+308" in err
    # N M = 1e400 is past the float range, though N and M are not
    big = str(10**200)
    code, out, _ = run(capsys, "fidelity", f"mes:N={big}", f"mes:N={big}")
    assert code == 0
    assert out.splitlines()[1].endswith(",1.0")


@pytest.mark.parametrize("argv", [("--variant", "a"), ("--variant", "b"), ("--variant", "b", "--x", "nbar")])
def test_fig2_sweep_is_one_overlap_call(capsys, monkeypatch, argv):
    calls = []
    overlaps = gmeslab.cli.mes_overlaps

    def count_calls(*args, **kwargs):
        calls.append(args[0])
        return overlaps(*args, **kwargs)

    monkeypatch.setattr(gmeslab.cli, "mes_overlaps", count_calls)
    code, out, _ = run(capsys, "fig2", *argv)
    assert code == 0
    assert len(rows_of(out)[1]) == 300
    assert len(calls) == 1


def test_fig2_usage_errors(capsys):
    assert run(capsys, "fig2")[0] == 2
    assert run(capsys, "fig2", "--variant", "e")[0] == 2
    assert run(capsys, "fig2", "--variant", "a", "--steps", "1")[0] == 2
    # --dims that are not integers, or not positive
    for dims in ("5,x", "0"):
        code, out, err = run(capsys, "fig2", "--variant", "a", "--dims", dims)
        assert (code, out) == (2, "")
        assert "error: argument --dims" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# bell-oracle
# ---------------------------------------------------------------------------


def test_bell_oracle_uniform(capsys):
    code, out, _ = run(capsys, "bell-oracle", "--a", "1", "1", "1", "--restarts", "2")
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["analytic", "oracle", "gap", "restarts", "converged"]
    analytic, oracle, gap, restarts, converged = rows[0]
    assert float(analytic) == pytest.approx(2.872934051172335, abs=1e-11)
    assert float(gap) <= 1e-3
    assert restarts == "2"
    assert converged in ("true", "false")


def test_bell_oracle_seeded_deterministic(capsys):
    args = ("bell-oracle", "--a", "0.8", "0.5", "0.33", "--restarts", "2", "--seed", "7")
    assert run(capsys, *args)[1] == run(capsys, *args)[1]
    # the starts come from one seeded stream, so two fresh processes print the same bytes
    fresh = [run_module("bell-oracle", "--a", "1", "0.8", "0.5", "--seed", "7") for _ in range(2)]
    assert fresh[0] == fresh[1]
    code, out, err = fresh[0]
    assert (code, err) == (0, "")
    assert rows_of(out)[0] == ["analytic", "oracle", "gap", "restarts", "converged"]


@pytest.mark.parametrize("argv", [
    # the restart cap's worst case
    ("--a", "1", "0.7", "0.4", "--restarts", "10000"),
    # a skewed state, where the search stops by its relative rule
    ("--a", "1", "1e-4", "1e-8", "--seed", "3"),
], ids=["restart-cap", "skewed"])
def test_bell_oracle_converges_to_the_closed_form(capsys, argv):
    code, out, err = run(capsys, "bell-oracle", *argv)
    assert (code, err) == (0, "")
    header, rows = rows_of(out)
    row = dict(zip(header, rows[0]))
    assert row["converged"] == "true"
    assert float(row["gap"]) <= 1e-12 * float(row["analytic"])


def test_bell_oracle_zero_vector(capsys):
    # the zero direction, and no direction at all
    for argv in (("--a", "0", "0", "0"), ()):
        code, out, err = run(capsys, "bell-oracle", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err


def test_bell_oracle_negative_seed(capsys):
    code, out, err = run(capsys, "bell-oracle", "--a", "1", "1", "1", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "seed" in err and "Traceback" not in err


def test_bell_oracle_gap_exit_code(capsys, monkeypatch):
    def stub(state, restarts=32, seed=0):
        return SimpleNamespace(value=0.1, restarts_used=restarts, converged=True)

    monkeypatch.setattr(gmeslab.cli, "maximize_bell", stub)
    code, out, _ = run(capsys, "bell-oracle", "--a", "1", "1", "1")
    assert code == 4
    _, rows = rows_of(out)
    assert float(rows[0][2]) > 1e-3  # the gap column


@pytest.mark.parametrize("a", [("1e308",) * 3, ("1.7e308",) * 3])
def test_bell_oracle_past_the_float_range_of_the_norm(capsys, a):
    # |a| is 1.7e308 and 2.9e308: the squared norm overflows at both, the norm at the second
    code, out, err = run(capsys, "bell-oracle", "--a", *a, "--restarts", "2")
    assert (code, err) == (0, "")
    assert rows_of(out)[1][0][0] == "2.87293405117"


def test_bell_oracle_subnormal_direction(capsys):
    # the squared norm 1e-640 underflows, the direction (1, 0, 0) does not
    code, out, err = run(capsys, "bell-oracle", "--a", "1e-320", "0", "0", "--restarts", "2")
    assert (code, err) == (0, "")
    assert rows_of(out)[1][0][:3] == ["0.0", "0.0", "0.0"]


@pytest.mark.parametrize("a", [("nan", "1", "1"), ("1", "inf", "1"), ("0", "0", "inf")])
def test_bell_oracle_rejects_non_finite(capsys, a):
    code, out, err = run(capsys, "bell-oracle", "--a", *a)
    assert (code, out) == (2, "")
    assert "finite" in err and "Warning" not in err


@given(st.lists(st.floats(1.0, 2.0, exclude_max=True), min_size=3, max_size=3),
       st.lists(st.integers(0, 2**20), min_size=3, max_size=3).filter(any))
def test_unit_is_scale_free_past_the_float_range(big, small):
    # the norm is taken after exact scaling by a power of two, so a direction
    # whose norm overflows, or is subnormal, keeps every bit
    unit = gmeslab.cli._unit
    assert np.array_equal(unit(np.ldexp(big, 1023)), unit(big))
    assert np.array_equal(unit(np.ldexp(small, -1074)), unit(small))


# ---------------------------------------------------------------------------
# kerr
# ---------------------------------------------------------------------------


def test_kerr_report(capsys):
    code, out, _ = run(capsys, "kerr", "--alpha", "1", "--d", "2")
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["alpha", "d", "cutoff", "fidelity", "norm2_k0", "norm2_k1", "gram_01"]
    row = rows[0]
    assert row[0] == "1.0" and row[1] == "2"
    assert float(row[3]) == pytest.approx(0.995399929630411, abs=1e-9)
    assert float(row[4]) + float(row[5]) == pytest.approx(1.0, abs=1e-10)
    assert float(row[6]) == pytest.approx(math.exp(-2.0), abs=1e-8)


def test_kerr_errors(capsys):
    assert run(capsys, "kerr", "--alpha", "1")[0] == 2  # missing --d
    assert run(capsys, "kerr", "--alpha", "0.001", "--d", "3")[0] == 2  # degenerate Gram
    assert run(capsys, "kerr", "--alpha", "4", "--d", "2", "--cutoff", "20")[0] == 2
    assert run(capsys, "kerr", "--alpha", "4", "--d", "2", "--tol", "1e-3")[0] == 2  # kerr reads no tol
    # a non-finite alpha, a cutoff past the cap and a modulus past the cutoff
    # are typed errors, raised before any array of that size exists
    for argv in (
        ("--d", "2"),
        ("--alpha", "nan", "--d", "2"),
        ("--alpha", "inf", "--d", "2"),
        ("--alpha", "1e200", "--d", "2"),
        ("--alpha", "1", "--d", "2", "--cutoff", "1000000000000000"),
        ("--alpha", "4", "--d", "1000000000000"),
    ):
        code, out, err = run(capsys, "kerr", *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: ") and "Traceback" not in err
    # past |alpha| ~ 37.7, where alpha^n / sqrt(n!) leaves the float range, the row prints
    code, out, err = run(capsys, "kerr", "--alpha", "38", "--d", "2", "--cutoff", "5000")
    assert (code, err) == (0, "")
    assert rows_of(out)[1][0][2:] == ["5000", "1.0", "0.5", "0.5", "0.0"]


@pytest.mark.parametrize("argv, code, text", [
    (("--alpha", "0", "--d", "1"), 0, "alpha,d,cutoff,fidelity,norm2_k0\n0.0,1,20,1.0,1.0\n"),
    # |alpha|^2 rounds to 0: the vacuum again, and no log 0 is taken
    (("--alpha", "1e-200", "--d", "2"), 2,
     "error: pseudo-number component k=1 has negligible weight for alpha=(1e-200+0j)\n"),
    (("--alpha", "4", "--d", "2", "--cutoff", "20"), 2,
     "error: cutoff 20 is too small for |alpha|^2 = 16.000; need at least 2|alpha|^2\n"),
])
def test_kerr_vacuum_and_the_cutoff_policy(capsys, argv, code, text):
    got = run(capsys, "kerr", *argv)
    assert got == ((0, text, "") if code == 0 else (code, "", text))


def test_kerr_builds_no_coherent_vector(capsys, monkeypatch):
    calls = {"coherent_fock": 0, "_pmf_saddle": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    # every gmeslab name for each, so no call escapes the count
    for name in calls:
        monkeypatch.setattr(gmeslab.crosskerr, name, counting(name, getattr(gmeslab.crosskerr, name)))
    monkeypatch.setattr(gmeslab.cli, "coherent_fock", gmeslab.crosskerr.coherent_fock, raising=False)
    for d in (2, 5):
        calls.update(coherent_fock=0, _pmf_saddle=0)
        assert run(capsys, "kerr", "--alpha", "2.5", "--d", str(d))[0] == 0
        assert calls == {"coherent_fock": 0, "_pmf_saddle": 1}
    calls.update(coherent_fock=0, _pmf_saddle=0)
    gmeslab.crosskerr.pseudo_phase_gram(2.5, 3)
    assert calls == {"coherent_fock": 0, "_pmf_saddle": 1}


def test_kerr_memory_is_the_pmf_support(capsys):
    # at |alpha| = 1 the pmf support ends near n = 1500, so a cutoff of 200000
    # needs no array of that length: no amplitude vector, no FockVector
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "kerr", "--alpha", "1", "--d", "2", "--cutoff", "200000")
        kerr_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        gram = gmeslab.crosskerr.pseudo_phase_gram(1.0, 3, 200000)
        gram_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and rows_of(out)[1][0][2] == "200000"
    assert abs(gram[0, 1]) == pytest.approx(math.exp(-1.5), rel=1e-14)
    assert kerr_peak < 512_000
    assert gram_peak < 512_000


def poisson_weights(alpha, d, cutoff):
    """n_k^2 and the truncated Gram row |sum_r n_r^2 w^(kr)|, summed term by term to 50 digits."""
    # the row falls to exp(-2 |alpha|^2 sin^2(pi k/d)) or to the pmf terms past
    # the cutoff, whichever is larger, so 2 |alpha|^2 / ln 10 more digits cover what cancels
    with mpmath.workdps(60 + math.ceil(2.0 * alpha * alpha / math.log(10.0))):
        lam = mpmath.mpf(alpha) ** 2
        weights = [mpmath.mpf(0)] * d
        term = mpmath.exp(-lam)
        for n in range(cutoff + 1):
            if n:
                term = term * lam / n
            weights[n % d] += term
        row = [
            abs(mpmath.fsum(w * mpmath.expjpi(mpmath.mpf(2 * k * r) / d) for r, w in enumerate(weights)))
            for k in range(d)
        ]
        assert min(row) > mpmath.mpf(10) ** (50 - mpmath.mp.dps)
        return [float(w) for w in weights], [float(g) for g in row]


@pytest.mark.parametrize("alpha, d, cutoff", [pytest.param(10, 5, 200, id="5"), pytest.param(10, 7, 200, id="7"),
                                                pytest.param(4, 2, 68, id="golden")])
def test_kerr_alpha_10_at_the_default_cutoff(capsys, alpha, d, cutoff):
    # no rotated alpha is formed, so |alpha w^j|^2 cannot round past the
    # 2|alpha|^2 guard of the default cutoff 200; alpha = 4 is the golden case
    code, out, _ = run(capsys, "kerr", "--alpha", str(alpha), "--d", str(d))
    assert code == 0
    _, rows = rows_of(out)
    values = [float(x) for x in rows[0]]
    assert values[2] == cutoff
    weights, gram = poisson_weights(alpha, d, cutoff)
    np.testing.assert_allclose(values[4 : 4 + d], weights, rtol=1e-11)
    # relative, though the moduli reach down to 1.6e-19 (d = 7): the row is
    # exp(|alpha|^2 (w^k - 1)) minus the pmf terms past the cutoff, with no cancellation
    np.testing.assert_allclose(values[4 + d :], gram[1:], rtol=1e-11)


@pytest.mark.parametrize("alpha, cutoff", [(11, 242), (12, 288), (15, 450), (37, 2738), (38, 2888)])
def test_kerr_past_alpha_10_at_the_default_cutoff(capsys, alpha, cutoff):
    # past |alpha| = 10 the default cutoff is the 2|alpha|^2 of the truncation policy
    # (|alpha|^2 + 8|alpha| + 20 = 229 at alpha = 11 fell short of it)
    code, out, err = run(capsys, "kerr", "--alpha", str(alpha), "--d", "2")
    assert code == 0 and err == ""
    _, rows = rows_of(out)
    values = [float(x) for x in rows[0]]
    assert values[2] == cutoff
    np.testing.assert_allclose(values[4:6], poisson_weights(alpha, 2, cutoff)[0], rtol=1e-11)


@pytest.mark.parametrize("argv, d, cutoff", [(("--alpha", "38", "--cutoff", "5000"), 2, 5000),
                                              (("--alpha", "38", "--cutoff", "5000"), 7, 5000),
                                              (("--alpha", "100"), 3, 20000)])
def test_kerr_past_the_float_range_of_the_amplitudes(capsys, argv, d, cutoff):
    # no amplitude alpha^n / sqrt(n!) is formed, so nothing overflows from |alpha| ~ 37.7 on
    code, out, err = run(capsys, "kerr", *argv, "--d", str(d))
    assert (code, err) == (0, "")
    values = [float(x) for x in rows_of(out)[1][0]]
    assert values[2] == cutoff
    weights, gram = poisson_weights(int(argv[1]), d, cutoff)
    np.testing.assert_allclose(values[4 : 4 + d], weights, rtol=1e-11)
    np.testing.assert_allclose(values[4 + d :], gram[1:], rtol=1e-11, atol=0.0)


@settings(max_examples=100, deadline=2000, derandomize=True)
@given(st.floats(0.0, 37.0, exclude_min=True), st.integers(2, 8))
@example(37.0, 2)
@example(37.0, 8)
@example(35.76144042875384, 4)
@example(4.0, 2)
@example(0.2, 8)
def test_kerr_gram_is_the_truncated_sum(alpha, d):
    # every printed gram_0k, down to 1e-233 at alpha = 37, is the truncated-space sum to 1e-11
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["kerr", "--alpha", repr(alpha), "--d", str(d)])
    cutoff = gmeslab.crosskerr.default_cutoff(alpha)
    weights, gram = poisson_weights(alpha, d, cutoff)
    if code == 2:
        # refused only where the pseudo-number weights are numerically dependent
        assert out.getvalue() == "" and err.getvalue().startswith("error: pseudo-")
        assert min(weights) < 1.000001e-12 * max(weights)
        return
    assert code == 0 and err.getvalue() == ""
    _, rows = rows_of(out.getvalue())
    assert int(rows[0][2]) == cutoff
    np.testing.assert_allclose([float(x) for x in rows[0][4 + d :]], gram[1:], rtol=1e-11, atol=0.0)


# ---------------------------------------------------------------------------
# registered options
# ---------------------------------------------------------------------------

# Between them, the runs of a subcommand take every branch that reads an option.
OPTION_RUNS = [
    ("spectrum", "--family", "tmsv", "--r", "1"),
    ("spectrum", "--family", "gmes", "--b", "1"),
    ("spectrum", "--family", "mes", "--N", "3"),
    ("fidelity", "tmsv:r=1", "gmes:b=1"),
    ("fig1", "--start", "1", "--stop", "2", "--steps", "2"),
    ("fig2", "--variant", "a", "--steps", "2", "--x", "nbar"),
    ("fig2", "--variant", "c", "--steps", "2"),
    ("fig2", "--variant", "d", "--steps", "2"),
    ("bell-oracle", "--a", "1", "1", "1", "--restarts", "1"),
    ("kerr", "--alpha", "1", "--d", "2"),
]


def test_every_registered_option_is_read(tmp_path):
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    assert list(gmeslab.cli._COMMANDS) == list(gmeslab.cli._DISPATCH)
    parsers = {name: gmeslab.cli._command_parser(name) for name in gmeslab.cli._COMMANDS}
    seen = {name: set() for name in parsers}
    for argv in OPTION_RUNS:
        args = parsers[argv[0]].parse_args([*argv[1:], "--out", str(tmp_path / "out.csv")], namespace=Recording())
        reads.clear()
        assert gmeslab.cli._DISPATCH[argv[0]](args) == 0
        seen[argv[0]] |= reads
    for name, parser in parsers.items():
        dests = {action.dest for action in parser._actions} - {"config", "help"}
        assert dests <= seen[name], f"{name} never reads {sorted(dests - seen[name])}"


# ---------------------------------------------------------------------------
# output files and config
# ---------------------------------------------------------------------------


def test_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "spec.csv"
    code, out, _ = run(capsys, "spectrum", "--family", "tmsv", "--r", "1", "--out", str(path))
    assert code == 0
    assert out == ""
    on_disk = path.read_text(encoding="ascii")
    assert on_disk == run(capsys, "spectrum", "--family", "tmsv", "--r", "1")[1]
    assert on_disk.endswith("\n")


def test_out_file_holds_a_non_ascii_spec_as_utf8(capsys, tmp_path):
    # float() reads fullwidth digits, and the spec is echoed as given
    path = tmp_path / "u.csv"
    argv = ("fidelity", "gmes:b=\uff11\uff15", "mes:N=200")
    assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == "state_a,state_b,fidelity\ngmes:b=\uff11\uff15,mes:N=200,0.9421707088\n"
    assert path.read_bytes() == out.encode("utf-8")


def test_config_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep setup\nr=2.0\n\ntol=1e-10\n")
    with_config = run(capsys, "spectrum", "--family", "tmsv", "--config", str(cfg))
    explicit = run(capsys, "spectrum", "--family", "tmsv", "--r", "2.0", "--tol", "1e-10")
    assert with_config[0] == 0
    assert with_config[1] == explicit[1]


def test_config_flags_win(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r=2.0\n")
    overridden = run(capsys, "spectrum", "--family", "tmsv", "--config", str(cfg), "--r", "1.0")
    explicit = run(capsys, "spectrum", "--family", "tmsv", "--r", "1.0")
    assert overridden[1] == explicit[1]


def test_config_list_and_choice_values(capsys, tmp_path):
    cfg = tmp_path / "fig2.cfg"
    cfg.write_text("variant=a\nstart=1\nstop=5\nsteps=3\ndims=5 20\nx=nbar\n")
    code, out, _ = run(capsys, "fig2", "--config", str(cfg))
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["nbar", "fid_N5", "fid_N20"]
    assert len(rows) == 3
    # a value list for an option that takes several, commas allowed
    cfg = tmp_path / "oracle.cfg"
    cfg.write_text("a = 1, 0.8, 0.5\n")
    explicit = run(capsys, "bell-oracle", "--a", "1", "0.8", "0.5")
    assert explicit[0] == 0
    assert run(capsys, "bell-oracle", "--config", str(cfg)) == explicit


@pytest.mark.parametrize(
    "content",
    ["bogus=1\n", "r=abc\n", "spacing=cubic\n", "config=other.cfg\n", "r 2.0\n"],
)
def test_config_rejects_bad_files(capsys, tmp_path, content):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(content)
    code, _, err = run(capsys, "spectrum", "--family", "tmsv", "--config", str(cfg))
    assert code == 2
    assert "error:" in err


def test_defaults_do_not_leak_between_calls(capsys):
    assert run(capsys, "fig2", "--variant", "c", "--b", "20", "--steps", "5")[0] == 0
    after = run(capsys, "fig2", "--variant", "c", "--steps", "5")
    assert after == run(capsys, "fig2", "--variant", "c", "--steps", "5", "--b", "15")


def test_config_values_do_not_outlive_their_call(capsys, tmp_path):
    cfg = tmp_path / "fig2.cfg"
    cfg.write_text("variant=c\nb=20\nsteps=5\n")
    with_config = run(capsys, "fig2", "--config", str(cfg))
    assert with_config == run(capsys, "fig2", "--variant", "c", "--b", "20", "--steps", "5")
    after = run(capsys, "fig2", "--variant", "c", "--steps", "5")
    assert after == run(capsys, "fig2", "--variant", "c", "--steps", "5", "--b", "15")
    assert after != with_config


def test_config_missing_file(capsys, tmp_path):
    code, _, _ = run(capsys, "spectrum", "--family", "tmsv", "--config", str(tmp_path / "nope"))
    assert code == 2


def test_config_file_that_is_not_utf8(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe=1\n")
    code, out, err = run(capsys, "bell-oracle", "--config", str(cfg), "--a", "1", "1", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(cfg) in err and "UTF-8" in err


@pytest.mark.parametrize("where", ["missing/x.csv", "."])
def test_out_path_that_cannot_be_opened(capsys, tmp_path, where):
    # a missing directory, or a directory in place of a file
    path = tmp_path / where
    code, out, err = run(capsys, "fig1", "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output file ") and err.count("\n") == 1
    assert str(path) in err


def test_number_formatting(capsys):
    # floats carry 12 significant digits; integer-valued floats keep a .0 marker
    code, out, _ = run(capsys, "fidelity", "mes:N=3", "mes:N=3")
    assert code == 0
    assert out.splitlines()[1].endswith(",1.0")
    code, out, _ = run(capsys, "fidelity", "tmsv:r=1.0", "mes:N=3")
    value = out.splitlines()[1].split(",")[2]
    assert value == f"{fidelity(tmsv_spectrum(1.0), mes_spectrum(3)):.12g}"


def csv_reference(header, rows):
    """The CSV csv.writer wrote before the joined writer, with its per-cell rule."""

    def cell(value):
        if isinstance(value, str):
            return value
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        text = f"{float(value):.12g}"
        if text.lstrip("-").isdigit():
            text += ".0"
        return text

    handle = io.StringIO()
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell(value) for value in row])
    return handle.getvalue()


def accepted(spec):
    try:
        gmeslab.cli._parse_state_spec(spec)
    except DomainError:
        return False
    return True


# str.strip() and float() both drop these; none of them makes csv quote a cell
SPACE = st.text(" \t\x0b\x0c\x1c\x85\u2028\u3000", max_size=2)
SPEC_VALUES = {
    "tmsv:r": st.floats().map(repr),
    "gmes:b": st.floats().map(repr) | st.just("\uff11\uff15"),
    "mes:N": st.integers(-10, 10**30).map(str),
}


def padded_spec(name, value, pads):
    family, key = name.split(":")
    return "{}{}{}:{}{}{}={}{}{}".format(pads[0], family, pads[1], pads[2], key, pads[3], pads[4], value, pads[5])


SPECS = st.sampled_from(sorted(SPEC_VALUES)).flatmap(
    lambda name: st.builds(padded_spec, st.just(name), SPEC_VALUES[name], st.tuples(*[SPACE] * 6))
).filter(accepted)
CELLS = (
    st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])
    | st.integers(-10**20, 10**20).map(float)
    | st.integers()
    | st.booleans()
    | SPECS
)


@settings(max_examples=200, deadline=None)
@given(st.lists(SPECS, min_size=1, max_size=3), st.lists(st.lists(CELLS, min_size=1, max_size=5), max_size=4))
def test_emit_writes_what_csv_writer_wrote(header, rows):
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        gmeslab.cli._emit(header, rows, None)
    assert stdout.getvalue() == csv_reference(header, rows)
