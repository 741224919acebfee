"""Pinned command outputs: the sha256 of what a subcommand prints, warning-free."""

import hashlib
import warnings

import pytest

from gmeslab.cli import main

PINS = [
    # gmes at b = 350 from a fill of its repeated head and a window: the bytes of the forward sum over the
    # whole profile; the cut lies inside the head at b = 350, tol 0.5 and at b = 56.81, tol 0.3, where the
    # whole buffer is the fill; b = 3 has no head, and the whole buffer is the window
    ("bd089026ea673924fb65626807ff9ea971ed193cc1f8a1fa487df96291ca1ecc", "spectrum --family gmes --b 350"),
    ("e99714cd6c6288a634d011de0c1270903a1ee6790923c0a03fd63b54131e131a", "spectrum --family gmes --b 350 --tol 0.5"),
    ("b79e2b0170ffad4124e40ade775aa76a32c881de984ccad375921b48268d061f", "spectrum --family gmes --b 3"),
    ("33c8daf57868ebaa52ceb693d1b7c661e22f7e7fe9081225019165ae7efb7c06",
     "spectrum --family gmes --b 56.81 --tol 0.3"),
    # fig2 a's radii in blocks of neighbouring b print the bytes of one tail array per radius: 2000 radii over
    # N = 1 to 5000, and 40 near the cap, each a block of one row
    ("780064657adff5955e5f0a05c46184badfa502ceb2544b2e6d71a2d29e769f4b",
     "fig2 --variant a --steps 2000 --dims 1,7,300,5000"),
    ("67e7de3b29a50fb3d672877aa5f77e6bcd451e8af196ca94aa0b5c2e5f39c004",
     "fig2 --variant a --start 380 --stop 430 --steps 40 --dims 5,200000"),
]


@pytest.mark.parametrize("want,argv", PINS, ids=[argv for _, argv in PINS])
def test_output_is_pinned(capsys, want, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv.split())
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == want
