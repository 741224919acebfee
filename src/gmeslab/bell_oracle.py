"""Local-phase search for the two-qutrit Bell value.

The Bell combination is

    B = Re[Q11 + Q12 - Q21 + Q22] + (1/sqrt(3)) Im[Q11 - Q12 - Q21 + Q22]

with correlations Q_ij = <psi| A_i (x) B_j |psi> for the Schmidt-diagonal
state |psi> = sum_k a_k |kk> and unitary three-outcome observables with
spectrum {1, w, w^2}, w = exp(2 pi i / 3).

``maximize_bell`` deliberately does not roam all measurement settings.  The
closed form ``bell_max_analytic`` is a ceiling only for interferometric
settings: phase-decorated cyclic shifts D S D+, S |l> = |l+1 mod 3>, with the
decoration difference between each party's two settings frozen at the
configuration that is optimal for the uniform state (``_BASE_DECORATIONS``).
A setting of that family is fixed by its local reference phases, three per
party, so the search holds six phases and no 3x3 matrices.  On the family the
Bell value is a cosine combination (``_phase_bell``) that never exceeds the
closed form and reaches it at aligned phases.  The unrestricted settings
attain strictly larger values for skewed states (up to the three-outcome
optimum near 2.9149), so searching them would say nothing about the closed
form.

The search is exact coordinate ascent from random phases: along any one phase
the Bell value is a sinusoid, so each move goes straight to its maximum, and a
restart stops once a sweep of all six moves gains at most a relative ``_TOL``
of its value.  It never evaluates the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_integer
from .metrics import SQRT3, QutritState

# Diagonal decorations (A1, A2, B1, B2) whose link phases put the weight
# pattern (4, 4/sqrt3, 4/sqrt3) on the coefficient pairs (01), (12), (02):
# at these settings the Bell value equals the closed-form ceiling for every
# nonnegative coefficient triple.
_BASE_DECORATIONS = np.array(
    [
        [0.0, np.pi / 3.0, np.pi / 6.0],
        [0.0, np.pi, np.pi / 2.0],
        [0.0, 0.0, 0.0],
        [0.0, 4.0 * np.pi / 3.0, 5.0 * np.pi / 3.0],
    ]
)
_BASE_DECORATIONS.setflags(write=False)

# Index of the next level, l + 1 mod 3: link l joins levels l and l + 1.
_NEXT = np.array([1, 2, 0])
_NEXT.setflags(write=False)

_DEFAULT_RESTARTS = 32
_TOL = 1e-12  # relative gain of a sweep at which a restart stops
_MAX_SWEEPS = 5000
# Most restarts; each one costs only a row of six phases in every array of
# the search, so more than this is taken for a typo, not a request.
_MAX_RESTARTS = 10_000


def _links(chis: np.ndarray) -> np.ndarray:
    """Link phases exp(i (chi_{l+1} - chi_l)), l = 0, 1, 2, of diagonal phases (..., 3)."""
    return np.exp(1j * (chis[..., _NEXT] - chis))


@dataclass(frozen=True)
class BellResult:
    """Best Bell value found by the oracle, with the local phases that achieved it.

    ``phases`` holds Alice's three reference phases, then Bob's: the settings
    are the base decorations (A1, A2, B1, B2) shifted by them.
    """

    value: float
    phases: np.ndarray
    restarts_used: int
    converged: bool

    def __post_init__(self):
        if not (-4.0 - 1e-9 <= self.value <= 4.0 + 1e-9):
            raise DomainError(f"Bell value {self.value} outside [-4, 4]")


def _bell_from_correlations(qmat: np.ndarray) -> np.ndarray:
    """The Bell combination of correlation blocks Q_ij, i and j in the last two axes."""
    re = qmat.real
    im = qmat.imag
    return (
        re[..., 0, 0] + re[..., 0, 1] - re[..., 1, 0] + re[..., 1, 1]
        + (im[..., 0, 0] - im[..., 0, 1] - im[..., 1, 0] + im[..., 1, 1]) / SQRT3
    )


# Link l of the base decorations (A1, A2, B1, B2) gives the block Q_ij =
# G^A_il G^B_jl.  The Bell combination B is real-linear, so B(z Q) =
# Re(z C_l) with C_l = B(Q) - i B(iQ): (4, 4/sqrt3, 4/sqrt3) up to rounding.
_BASE_LINKS = np.einsum("il,jl->lij", _links(_BASE_DECORATIONS[:2]), _links(_BASE_DECORATIONS[2:]))
_LINK_WEIGHTS = _bell_from_correlations(_BASE_LINKS) - 1j * _bell_from_correlations(1j * _BASE_LINKS)


def _phase_bell(q: QutritState, phases: np.ndarray) -> np.ndarray:
    """Bell value of the decorated canonical settings at local phases (..., 6)."""
    pair = _LINK_WEIGHTS * q.a * q.a[_NEXT]
    return np.sum(pair * _links(phases[..., :3]) * _links(phases[..., 3:]), axis=-1).real


def _exact_move(terms: np.ndarray, coord: int) -> np.ndarray:
    """Turn of phase ``coord`` maximizing Re sum_l T_l over link terms T (..., 3).

    It turns link c - 1 by exp(i delta) and link c by exp(-i delta), indexed
    mod 3, so the value is a sinusoid in delta peaking at -arg(T_{c-1} + conj T_c).
    """
    return -np.angle(terms[..., coord - 1] + np.conjugate(terms[..., coord]))


def maximize_bell(q: QutritState, restarts: int = _DEFAULT_RESTARTS, seed: int = 0) -> BellResult:
    """Multi-start exact coordinate ascent over the parties' local reference phases.

    Restart i starts from row i of one uniform stream seeded by ``seed``.  A
    stream's first rows do not depend on how many are drawn and restarts never
    interact, so results are deterministic for a fixed seed and monotone
    nondecreasing when ``restarts`` grows with the same seed.  A
    sweep moves party A's three phases, then party B's, each to the exact
    maximizer of the Bell value along it.  A restart stops on the first sweep
    that raises its value by at most ``_TOL * |value|`` and is frozen from
    then on; ``converged`` reports whether the winner stopped so within the
    hard sweep limit.  The winning six phases are returned as they stand,
    not reduced mod 2 pi.

    Moves are computed on link phases, not on 3x3 matrices.  A decorated
    shift D S D+ is nonzero only at (l+1, l), where it holds the link
    phase L_l = exp(i (chi_{l+1} - chi_l)), so the Bell value at local phases
    (phi_A, phi_B) is Re sum_l C_l a_l a_{l+1} L_l(phi_A) L_l(phi_B) with
    C = ``_LINK_WEIGHTS``.  Moving phi_c by delta turns link c - 1 by
    exp(i delta) and link c by exp(-i delta).  With T_l the terms at the
    other phases, the value is Re T_{c+1} + Re((T_{c-1} + conj T_c) exp(i delta)),
    a sinusoid in delta whose maximum lies at delta = -arg(T_{c-1} + conj T_c)
    (``_exact_move``); arg 0 = 0 leaves a flat coordinate where it is.  A move
    costs O(restarts).  The returned value is ``_phase_bell`` at the winning phases.
    """
    restarts = check_integer(restarts, "restarts", 1, _MAX_RESTARTS)
    seed = check_integer(seed, "seed", 0)

    phases = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=(restarts, 6))
    pair = _LINK_WEIGHTS * q.a * q.a[_NEXT]
    value = _phase_bell(q, phases)
    active = np.ones(restarts, dtype=bool)
    sweeps = 0
    while sweeps < _MAX_SWEEPS and active.any():
        for party in range(2):
            block = slice(3 * party, 3 * party + 3)
            # the other party's links stay fixed while this party moves
            pull = pair * _links(phases[:, 3 - 3 * party : 6 - 3 * party])
            for coord in range(3):
                move = _exact_move(pull * _links(phases[:, block]), coord)
                phases[:, 3 * party + coord] += np.where(active, move, 0.0)
        previous, value = value, _phase_bell(q, phases)
        active &= value - previous > _TOL * np.abs(previous)
        sweeps += 1

    winner = int(np.argmax(value))
    return BellResult(
        value=float(value[winner]),
        phases=phases[winner].copy(),
        restarts_used=restarts,
        converged=not active[winner],
    )
