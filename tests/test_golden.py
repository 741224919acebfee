"""Golden outputs: the CLI's CSVs at the paper's defaults, byte for byte.

The files under ``tests/golden/`` were written by the CLI before the figure
paths were vectorized.  A change that means to move a printed digit has to
regenerate them on purpose, with the command named next to each file here.
"""

from pathlib import Path

import pytest

from gmeslab.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "fig1.csv": ["fig1"],
    "fig2_a.csv": ["fig2", "--variant", "a"],
    "fig2_b.csv": ["fig2", "--variant", "b"],
    "fig2_c.csv": ["fig2", "--variant", "c"],
    "fig2_d.csv": ["fig2", "--variant", "d"],
    "bell_oracle_a_1_1_1.csv": ["bell-oracle", "--a", "1", "1", "1"],
    "kerr_alpha_4_d_2.csv": ["kerr", "--alpha", "4", "--d", "2"],
    "spectrum_gmes_b_15.csv": ["spectrum", "--family", "gmes", "--b", "15"],
    "fidelity_gmes_b_15_mes_N_200.csv": ["fidelity", "gmes:b=15", "mes:N=200"],
}


def test_every_golden_file_has_a_case():
    assert sorted(path.name for path in GOLDEN.glob("*.csv")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, name):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode("ascii") == (GOLDEN / name).read_bytes()
