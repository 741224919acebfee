"""Operation lists of the three workloads, drawn from a seed.

An operation is a JSON-able dict:

* ``{"kind": "cli", "label": ..., "argv": [...]}`` runs ``gmeslab.cli.main``
  with ``argv`` plus ``--out <file>``;
* ``{"kind": "lib", "label": ..., "fn": ..., "args": [...]}`` calls one
  public library function (see ``child.LIB_OPS``).

``expect`` names the fault an operation shows today (``F-tail``,
``F-trunc`` or ``F-kerr``); those operations have inputs that do not depend
on the seed.  Every other operation draws its inputs from the seed and
passes today.  A round is the same list every time, so every run attempts
whole rounds and the share of failed operations is the same in every run.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import pdtrc

from checks import FIG1_NBAR

WORKLOADS = ("paper-figures", "deep-spectra", "kerr-generation")

# Integer boundary radii b near each band centre at which gmes_spectrum and
# gmms_distribution meet their own contract today (tail_bound <= 1e-12 and no
# TruncationError).  The faults at the other radii are kept as the fixed
# F-tail and F-trunc operations below; drawing seeded radii from these lists
# keeps every seeded operation passing, so the failed share does not depend
# on the seed.  Each band gives two operations a round.
GMES_BANDS = (
    (38, 39, 40, 41, 42),
    (69, 70, 71),
    (98, 100, 101, 103),
    (128, 130, 131, 132, 133),
    (158, 159, 160, 161, 163),
    (186, 187, 188, 189, 190, 191),
    (229, 232, 235, 237),
)
GMMS_BANDS = ((48, 49, 50, 51, 52), (147, 148, 149, 150, 152))
FIDELITY_BANDS = ((107, 108, 109, 110, 112), (262, 264, 267, 272, 273, 276))
# Six spectra near b = 350 (about 12 ms each, all numpy) hold the 80-95 %
# share of the latencies, where p90 falls; only F-trunc and the summed-CDF
# poisson_tail lie above them.
LARGE_BAND = (339, 347, 348, 356)
LARGE_COUNT = 6

# kerr-generation: (alpha centre, d) at the default cutoff, and (cutoff, d)
# with an explicit cutoff.  The cost of a Kerr call grows with d and with the
# cutoff squared, not with alpha, so the seed only moves alpha and the cost
# of each slot does not depend on it.  Four cutoff-2000 calls hold the top
# fifth of the latencies, where p90 falls, and set the peak RSS.
KERR_GRID = ((1.5, 2), (2.5, 3), (3.5, 4), (4.5, 5), (5.5, 6), (6.5, 7),
             (7.5, 2), (8.5, 3), (9.3, 4), (3.0, 7), (6.0, 5), (9.0, 6))
KERR_CUTOFFS = ((1000, 7), (1500, 5), (2000, 3), (2000, 4), (2000, 5), (2000, 6))


def _cli(label, *argv, expect=None):
    op = {"kind": "cli", "label": label, "argv": [str(a) for a in argv]}
    if expect:
        op["expect"] = expect
    return op


def _lib(label, fn, *args, expect=None):
    op = {"kind": "lib", "label": label, "fn": fn, "args": list(args)}
    if expect:
        op["expect"] = expect
    return op


def qutrit_triple(family: str, nbar: float) -> list[float]:
    """First three Schmidt coefficients of a point on the fig1 curve.

    Computed here, not by gmeslab: GMES from b = sqrt(2 nbar) and
    c_n = sqrt(pdtrc(n, b^2)/b^2), TMSV from t = sqrt(nbar/(1 + nbar)).
    """
    if family == "gmes":
        lam = 2.0 * nbar
        return [math.sqrt(pdtrc(n, lam) / lam) for n in range(3)]
    t = math.sqrt(nbar / (1.0 + nbar))
    return [1.0, t, t * t]


def paper_figures(rng: np.random.Generator) -> list[dict]:
    # fig1 runs twice per round so that it holds the top sixth of the
    # latencies and p90 falls inside its cluster; the six oracle calls (near
    # 45 ms) hold the middle half, where p50 falls.
    ops = [_cli("fig1", "fig1")]
    ops += [_cli(f"fig2 {v}", "fig2", "--variant", v) for v in "abcd"]
    points = rng.choice(FIG1_NBAR.size, size=6, replace=False)
    for family, idx in zip(("gmes", "tmsv") * 3, points):
        triple = qutrit_triple(family, float(FIG1_NBAR[idx]))
        seed = int(rng.integers(0, 2**31 - 1))
        ops.append(_cli("bell-oracle", "bell-oracle", "--a", *[repr(x) for x in triple], "--seed", seed))
    ops.append(_cli("fig1", "fig1"))
    return ops


def deep_spectra(rng: np.random.Generator) -> list[dict]:
    ops = []
    for _ in range(2):
        ops += [_lib("gmes_spectrum", "gmes_spectrum", int(rng.choice(band))) for band in GMES_BANDS]
        ops += [_lib("gmms_distribution", "gmms_distribution", int(rng.choice(band))) for band in GMMS_BANDS]
        for band in FIDELITY_BANDS:
            b = int(rng.choice(band))
            n_target = int(round(b * b * rng.uniform(0.95, 1.05)))
            ops.append(_lib("fidelity gmes-mes", "fidelity_gmes_mes", b, n_target))
        ops.append(_lib("tmsv_spectrum", "tmsv_spectrum", float(5.0 + rng.uniform(-0.02, 0.02))))
        # poisson_tail above the mean at large means
        for b in (100.0, 400.0):
            lam = float(b + rng.uniform(-2.0, 0.0)) ** 2
            ops.append(_lib("poisson_tail above mean", "poisson_tail",
                            int(lam + rng.uniform(0.5, 3.0) * math.sqrt(lam)) + 1, lam))
    ops += [_lib("gmes_spectrum near 350", "gmes_spectrum", int(rng.choice(LARGE_BAND)))
            for _ in range(LARGE_COUNT)]
    # poisson_tail below a mean near 1.6e5 sums the CDF term by term: the
    # costliest operation of the round.
    lam = float(rng.uniform(396.0, 400.0)) ** 2
    ops.append(_lib("poisson_tail below mean", "poisson_tail",
                    int(lam - rng.uniform(0.5, 3.0) * math.sqrt(lam)), lam))
    # F-tail: tail_bound above tol; F-trunc: TruncationError below the cap.
    ops += [
        _lib("gmes_spectrum", "gmes_spectrum", 60, expect="F-tail"),
        _lib("gmms_distribution", "gmms_distribution", 120, expect="F-tail"),
        _lib("gmes_spectrum", "gmes_spectrum", 200, expect="F-tail"),
        _lib("gmes_spectrum", "gmes_spectrum", 300, expect="F-trunc"),
    ]
    return ops


def kerr_generation(rng: np.random.Generator) -> list[dict]:
    ops = []
    for centre, d in KERR_GRID:
        alpha = round(centre + float(rng.uniform(-0.3, 0.3)), 6)
        ops.append(_cli("kerr default cutoff", "kerr", "--alpha", alpha, "--d", d))
    for cutoff, d in KERR_CUTOFFS:
        alpha = round(float(rng.uniform(3.0, 15.0)), 6)
        ops.append(_cli(f"kerr cutoff {cutoff}", "kerr", "--alpha", alpha, "--d", d, "--cutoff", cutoff))
    # F-kerr: the default cutoff falls below the 2|alpha|^2 guard.
    ops += [
        _cli("kerr default cutoff", "kerr", "--alpha", 11, "--d", 2, expect="F-kerr"),
        _cli("kerr default cutoff", "kerr", "--alpha", 10, "--d", 5, expect="F-kerr"),
        _cli("kerr default cutoff", "kerr", "--alpha", 10, "--d", 7, expect="F-kerr"),
    ]
    return ops


_ROUND_MAKERS = {
    "paper-figures": paper_figures,
    "deep-spectra": deep_spectra,
    "kerr-generation": kerr_generation,
}


def make_round(workload: str, seed: int) -> list[dict]:
    """The operations of one round of ``workload``; the same seed gives the same list."""
    return _ROUND_MAKERS[workload](np.random.default_rng([seed % 2**64, WORKLOADS.index(workload)]))


def setup_ops(workload: str) -> list[dict]:
    """One minimal call of each operation kind of ``workload``, for set-up time."""
    if workload == "paper-figures":
        return [
            _cli("fig1", "fig1", "--steps", 2),
            *[_cli(f"fig2 {v}", "fig2", "--variant", v, "--steps", 2) for v in "abcd"],
            _cli("bell-oracle", "bell-oracle", "--a", 1, 1, 1, "--restarts", 1),
        ]
    if workload == "deep-spectra":
        return [
            _lib("gmes_spectrum", "gmes_spectrum", 1.0),
            _lib("gmms_distribution", "gmms_distribution", 1.0),
            _lib("fidelity gmes-mes", "fidelity_gmes_mes", 1.0, 1),
            _lib("tmsv_spectrum", "tmsv_spectrum", 0.1),
            _lib("poisson_tail", "poisson_tail", 1, 1.0),
        ]
    return [_cli("kerr", "kerr", "--alpha", 1, "--d", 2)]
