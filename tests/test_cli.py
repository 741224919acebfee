"""Command-line interface: CSV contracts, config files and exit codes."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import gmeslab.cli
from gmeslab import SolverError, fidelity, gmes_spectrum, mes_spectrum, tmsv_spectrum
from gmeslab.cli import main


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    ],
)
def test_spectrum_usage_errors(capsys, args):
    code, _, _ = run(capsys, *args)
    assert code == 2


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


@pytest.mark.parametrize(
    "spec",
    ["foo:r=1", "tmsv:b=1", "tmsv", "tmsv:r=abc", "gmes:b=1,r=2"],
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


def test_fig1_solver_failure_exit_code(capsys, monkeypatch):
    def boom(nbar, tol=1e-8):
        raise SolverError("no bracket")

    monkeypatch.setattr(gmeslab.cli, "solve_b_for_nbar", boom)
    code, _, err = run(capsys, "fig1", "--start", "1", "--stop", "2", "--steps", "2")
    assert code == 3
    assert "nbar=" in err


def test_fig1_bad_range(capsys):
    assert run(capsys, "fig1", "--start", "5", "--stop", "1", "--steps", "3")[0] == 2
    assert run(capsys, "fig1", "--start", "1", "--stop", "2", "--steps", "1")[0] == 2


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
    # N exceeds the cutoff, so the overlap is sum_n c_n / sqrt(N)
    want = float(np.sum(gmes_spectrum(15.0).coeffs)) / math.sqrt(1e7)
    assert float(rows[1][1]) == pytest.approx(want, rel=1e-11)
    assert peak < 8_000_000


def test_fig2_usage_errors(capsys):
    assert run(capsys, "fig2")[0] == 2
    assert run(capsys, "fig2", "--variant", "e")[0] == 2
    assert run(capsys, "fig2", "--variant", "a", "--steps", "1")[0] == 2


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


def test_bell_oracle_zero_vector(capsys):
    assert run(capsys, "bell-oracle", "--a", "0", "0", "0")[0] == 2


def test_bell_oracle_gap_exit_code(capsys, monkeypatch):
    def stub(state, restarts=32, seed=0):
        return SimpleNamespace(value=0.1, restarts_used=restarts, converged=True)

    monkeypatch.setattr(gmeslab.cli, "maximize_bell", stub)
    code, out, _ = run(capsys, "bell-oracle", "--a", "1", "1", "1")
    assert code == 4
    _, rows = rows_of(out)
    assert float(rows[0][2]) > 1e-3  # the gap column


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


def test_config_missing_file(capsys, tmp_path):
    code, _, _ = run(capsys, "spectrum", "--family", "tmsv", "--config", str(tmp_path / "nope"))
    assert code == 2


def test_number_formatting(capsys):
    # floats carry 12 significant digits; integer-valued floats keep a .0 marker
    code, out, _ = run(capsys, "fidelity", "mes:N=3", "mes:N=3")
    assert code == 0
    assert out.splitlines()[1].endswith(",1.0")
    code, out, _ = run(capsys, "fidelity", "tmsv:r=1.0", "mes:N=3")
    value = out.splitlines()[1].split(",")[2]
    assert value == f"{fidelity(tmsv_spectrum(1.0), mes_spectrum(3)):.12g}"
