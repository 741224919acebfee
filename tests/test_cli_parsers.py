"""Parser construction and usage errors: each call builds only the parser it dispatches to.

The usage corpus below is what the CLI printed when ``main`` still built every
command's parser on each call; it pins stdout, stderr and the exit code byte
for byte, at an 80-column terminal.
"""

import argparse

import pytest

from gmeslab.cli import _COMMANDS, main
from test_golden import CASES as GOLDEN_CASES

USAGE = "usage: gmeslab [-h] command ...\n"
CHOICES = "(choose from 'spectrum', 'fidelity', 'fig1', 'fig2', 'bell-oracle', 'kerr')"

HELP = USAGE + """
Schmidt spectra, Bell values and fidelities for Gaussian-mode entangled
states.

positional arguments:
  command
    spectrum   emit one Schmidt spectrum as CSV rows n,coeff
    fidelity   fidelity between two states given as family:key=value specs
    fig1       Bell ceiling of the qutrit truncation vs mean photon number
    fig2       fidelity sweeps against N-dimensional maximally entangled
               targets
    bell-oracle
               compare the Bell closed form with the measurement search
    kerr       cross-Kerr fidelity report with component norms and Gram
               entries

options:
  -h, --help   show this help message and exit
"""

KERR_USAGE = """usage: gmeslab kerr [-h] [--out OUT] [--config CONFIG] [--alpha ALPHA] [--d D]
                    [--cutoff CUTOFF]
"""

KERR_HELP = KERR_USAGE + """
options:
  -h, --help       show this help message and exit
  --out OUT        output CSV path (default: stdout)
  --config CONFIG  flat key=value file mirroring flags; flags win
  --alpha ALPHA    coherent amplitude
  --d D            pseudo-number modulus
  --cutoff CUTOFF  Fock cutoff (default: adaptive)
"""

FIG2_USAGE = """usage: gmeslab fig2 [-h] [--cap CAP] [--out OUT] [--config CONFIG]
                    [--variant {a,b,c,d}] [--start START] [--stop STOP]
                    [--steps STEPS] [--spacing {linear,log}] [--dims DIMS]
                    [--x {param,nbar}] [--b B] [--r R]
"""

BELL_USAGE = """usage: gmeslab bell-oracle [-h] [--out OUT] [--config CONFIG] [--a A0 A1 A2]
                           [--restarts RESTARTS] [--seed SEED]
"""

# argv -> (exit code, stdout, stderr)
CORPUS = [
    ([], (2, "", USAGE)),
    (["bogus"], (2, "", USAGE + f"gmeslab: error: argument command: invalid choice: 'bogus' {CHOICES}\n")),
    (["--help"], (0, HELP, "")),
    # argparse takes a command only as the first token
    (["--", "kerr", "--alpha", "4", "--d", "2"],
     (2, "", USAGE + f"gmeslab: error: argument command: invalid choice: '--' {CHOICES}\n")),
    (["-x"], (2, "", USAGE + "gmeslab: error: unrecognized arguments: -x\n")),
    # tokens no parser takes are reported by the top-level parser
    (["kerr", "--alpha", "4", "--d", "2", "--bogus"], (2, "", USAGE + "gmeslab: error: unrecognized arguments: --bogus\n")),
    (["fidelity", "a", "b", "c"], (2, "", USAGE + "gmeslab: error: unrecognized arguments: c\n")),
    (["kerr", "--", "x"], (2, "", USAGE + "gmeslab: error: unrecognized arguments: -- x\n")),
    (["kerr", "--help"], (0, KERR_HELP, "")),
    (["fig2", "--variant", "e"],
     (2, "", FIG2_USAGE + "gmeslab fig2: error: argument --variant: invalid choice: 'e' (choose from 'a', 'b', 'c', 'd')\n")),
    (["bell-oracle", "--a", "1"], (2, "", BELL_USAGE + "gmeslab bell-oracle: error: argument --a: expected 3 arguments\n")),
]


@pytest.fixture
def columns(monkeypatch):
    # argparse wraps help text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("argv, expected", CORPUS, ids=[" ".join(argv) or "none" for argv, _ in CORPUS])
def test_usage_output_is_pinned(capsys, columns, argv, expected):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected


def test_config_unknown_key_is_pinned(capsys, columns, tmp_path):
    cfg = tmp_path / "unknown.cfg"
    cfg.write_text("bogus = 1\n")
    code = main(["kerr", "--config", str(cfg), "--alpha", "4", "--d", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {cfg}:1: unknown option 'bogus'\n")


@pytest.fixture
def built(monkeypatch):
    """The prog of every ArgumentParser constructed, in order."""
    progs = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    return progs


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_each_command_builds_one_parser(capsys, built, name):
    argv = GOLDEN_CASES[name]
    assert main(argv) == 0
    assert built == [f"gmeslab {argv[0]}"]


def test_config_is_read_by_the_same_parser(capsys, built, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 4\nd = 2\n")
    assert main(["kerr", "--config", str(cfg)]) == 0
    assert built == ["gmeslab kerr"]


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"]], ids=["none", "help", "unknown"])
def test_only_an_argv_without_a_command_builds_the_listing(capsys, built, argv):
    # the listing's commands carry their help lines and no options
    main(argv)
    assert built == ["gmeslab", *(f"gmeslab {name}" for name in _COMMANDS)]
