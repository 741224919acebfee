"""Measurement-settings search for the two-qutrit Bell value.

The Bell combination is

    B = Re[Q11 + Q12 - Q21 + Q22] + (1/sqrt(3)) Im[Q11 - Q12 - Q21 + Q22]

with correlations Q_ij = <psi| A_i (x) B_j |psi> for the Schmidt-diagonal
state |psi> = sum_k a_k |kk> and unitary three-outcome observables with
spectrum {1, w, w^2}, w = exp(2 pi i / 3).  A setting is stored as 8 real
generator coefficients, so a full measurement choice is 32 numbers.

``maximize_bell`` deliberately does not roam the whole 32-parameter manifold.
The closed form ``bell_max_analytic`` is a ceiling only for interferometric
settings: phase-decorated cyclic shifts D S D+ with the decoration difference
between each party's two settings frozen at the configuration that is optimal
for the uniform state (``canonical_settings``).  The search scans the six
local reference phases (three per party); on that family the Bell value is a
cosine combination that never exceeds the closed form and reaches it at
aligned phases.  The unrestricted manifold attains strictly larger values for
skewed states (up to the three-outcome optimum near 2.9149), so searching it
would say nothing about the closed form.

The search is exact coordinate ascent from random phases: along any one phase
the Bell value is a sinusoid, so each move goes straight to its maximum, and a
restart stops once a sweep of all six moves gains at most a relative ``tol``
of its value.  It never evaluates the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .metrics import SQRT3, QutritState

_W = np.exp(2j * np.pi / 3.0)

#: Reference observable: diagonal with the three cube roots of unity.
REF_OBSERVABLE = np.diag([1.0 + 0.0j, _W, _W**2])
REF_OBSERVABLE.setflags(write=False)


def _gell_mann() -> np.ndarray:
    g = np.zeros((8, 3, 3), dtype=complex)
    g[0, 0, 1] = g[0, 1, 0] = 1.0
    g[1, 0, 1] = -1j
    g[1, 1, 0] = 1j
    g[2, 0, 0] = 1.0
    g[2, 1, 1] = -1.0
    g[3, 0, 2] = g[3, 2, 0] = 1.0
    g[4, 0, 2] = -1j
    g[4, 2, 0] = 1j
    g[5, 1, 2] = g[5, 2, 1] = 1.0
    g[6, 1, 2] = -1j
    g[6, 2, 1] = 1j
    g[7] = np.diag([1.0, 1.0, -2.0]) / math.sqrt(3.0)
    g.setflags(write=False)
    return g


#: The eight traceless Hermitian generators spanning the observable parameterization.
GENERATORS = _gell_mann()

#: Cyclic raising matrix: SHIFT |l> = |l+1 mod 3>.
SHIFT = np.roll(np.eye(3, dtype=complex), 1, axis=0)
SHIFT.setflags(write=False)

# F (x) index swap diagonalizes the shift: SHIFT = M REF_OBSERVABLE M+.
_FOURIER = np.exp(2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3.0) / math.sqrt(3.0)
_SHIFT_DIAGONALIZER = _FOURIER @ np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)

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

_UNITARY_TOL = 1e-10
_EIGENVALUE_TOL = 1e-8
_DEFAULT_RESTARTS = 32
_DEFAULT_TOL = 1e-12
_MAX_SWEEPS = 5000
# Most restarts; each one holds its own generator and array rows, so more
# than this is taken for a typo, not a request.
_MAX_RESTARTS = 10_000


def observable_from_params(theta) -> np.ndarray:
    """Unitary observable exp(iH) Omega exp(-iH) for H = sum_j theta_j G_j."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (8,):
        raise DomainError(f"observable parameters must have shape (8,), got {theta.shape}")
    return _observables_from_params(theta[np.newaxis])[0]


def _observables_from_params(thetas: np.ndarray) -> np.ndarray:
    """Batched form: (..., 8) parameter blocks -> (..., 3, 3) observables."""
    h = np.einsum("...j,jkl->...kl", thetas, GENERATORS)
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(1j * w)[..., np.newaxis, :]) @ np.conjugate(np.swapaxes(v, -1, -2))
    return u @ REF_OBSERVABLE @ np.conjugate(np.swapaxes(u, -1, -2))


def _links(chis: np.ndarray) -> np.ndarray:
    """Link phases exp(i (chi_{l+1} - chi_l)), l = 0, 1, 2, of diagonal phases (..., 3)."""
    return np.exp(1j * (chis[..., _NEXT] - chis))


def _params_from_unitary(u: np.ndarray) -> np.ndarray:
    """Generator coefficients of the principal logarithm of a unitary."""
    w, v = np.linalg.eig(u)
    gen = (v * np.angle(w)) @ np.linalg.inv(v)
    gen = 0.5 * (gen + np.conjugate(gen.T))
    # project onto the generator basis; any trace part only shifts U by a
    # global phase, which the conjugation U Omega U+ ignores
    return np.einsum("jkl,lk->j", GENERATORS, gen).real / 2.0


def _settings_from_phases(phases: np.ndarray) -> "MeasurementSettings":
    """Parameter block for the decorated canonical settings at given local phases."""
    chis = _BASE_DECORATIONS + np.reshape(phases, (2, 3))[[0, 0, 1, 1]]
    params = np.empty((4, 8))
    for row, chi in enumerate(chis):
        unitary = np.exp(1j * chi)[:, np.newaxis] * _SHIFT_DIAGONALIZER
        params[row] = _params_from_unitary(unitary)
    return MeasurementSettings(params)


def canonical_settings() -> "MeasurementSettings":
    """The settings at which the Bell value equals the closed-form ceiling.

    For every state with nonnegative coefficients these four observables give
    exactly 4 a0 a1 + (4/sqrt(3)) (a0 a2 + a1 a2); for the uniform state that
    is the peak value 2.8729...
    """
    return _settings_from_phases(np.zeros(6))


def _check_observable_unitary(m: np.ndarray, name: str) -> None:
    m = np.asarray(m)
    if m.shape != (3, 3):
        raise DomainError(f"{name} must be a 3x3 matrix, got shape {m.shape}")
    defect = np.max(np.abs(m @ np.conjugate(m.T) - np.eye(3)))
    if defect > _UNITARY_TOL:
        raise DomainError(f"{name} is not unitary (defect {defect:.3e})")


@dataclass(frozen=True)
class MeasurementSettings:
    """Four observables (Alice's A1, A2 then Bob's B1, B2) as a (4, 8) parameter block."""

    params: np.ndarray

    def __post_init__(self):
        params = np.asarray(self.params, dtype=float)
        object.__setattr__(self, "params", params)
        if params.shape != (4, 8):
            raise DomainError(f"settings parameters must have shape (4, 8), got {params.shape}")
        if not np.all(np.isfinite(params)):
            raise DomainError("settings parameters must be finite")

    def observables(self) -> np.ndarray:
        """The four 3x3 unitaries in order A1, A2, B1, B2."""
        return _observables_from_params(self.params)

    def validate(self) -> None:
        """Check unitarity and the {1, w, w^2} spectrum of every observable."""
        roots = np.array([1.0 + 0.0j, _W, _W**2])
        for name, obs in zip(("A1", "A2", "B1", "B2"), self.observables()):
            _check_observable_unitary(obs, name)
            eigs = np.linalg.eigvals(obs)
            # each cube root must be matched by exactly one eigenvalue
            dist = np.abs(eigs[:, np.newaxis] - roots[np.newaxis, :])
            order = np.argmin(dist, axis=1)
            if sorted(order.tolist()) != [0, 1, 2] or np.max(np.min(dist, axis=1)) > _EIGENVALUE_TOL:
                raise DomainError(f"{name} spectrum is not the three cube roots of unity")


@dataclass(frozen=True)
class BellResult:
    """Best Bell value found by the oracle, with the settings that achieved it."""

    value: float
    settings: MeasurementSettings
    restarts_used: int
    converged: bool

    def __post_init__(self):
        if not (-4.0 - 1e-9 <= self.value <= 4.0 + 1e-9):
            raise DomainError(f"Bell value {self.value} outside [-4, 4]")


def correlation(q: QutritState, a_obs, b_obs) -> complex:
    """Correlation <psi| A (x) B |psi> for |psi> = sum_k a_k |kk>."""
    a_obs = np.asarray(a_obs, dtype=complex)
    b_obs = np.asarray(b_obs, dtype=complex)
    _check_observable_unitary(a_obs, "A")
    _check_observable_unitary(b_obs, "B")
    outer = q.a[:, np.newaxis] * q.a[np.newaxis, :]
    return complex(np.sum(outer * a_obs * b_obs))


def _bell_from_correlations(qmat: np.ndarray) -> np.ndarray:
    re = qmat.real
    im = qmat.imag
    return (
        re[..., 0, 0] + re[..., 0, 1] - re[..., 1, 0] + re[..., 1, 1]
        + (im[..., 0, 0] - im[..., 0, 1] - im[..., 1, 0] + im[..., 1, 1]) / SQRT3
    )


def bell_value(q: QutritState, settings: MeasurementSettings) -> float:
    """Bell combination evaluated at the given measurement settings."""
    obs = settings.observables()
    outer = q.a[:, np.newaxis] * q.a[np.newaxis, :]
    qmat = np.einsum("kl,ikl,jkl->ij", outer, obs[:2], obs[2:])
    return float(_bell_from_correlations(qmat))


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


def maximize_bell(
    q: QutritState,
    restarts: int = _DEFAULT_RESTARTS,
    seed: int = 0,
    tol: float = _DEFAULT_TOL,
) -> BellResult:
    """Multi-start exact coordinate ascent over the parties' local reference phases.

    Each restart starts from phases drawn with an independent seed sequence
    (seed, restart index), so results are deterministic for a fixed seed and
    monotone nondecreasing when ``restarts`` grows with the same seed.  A
    sweep moves party A's three phases, then party B's, each to the exact
    maximizer of the Bell value along it.  A restart stops on the first sweep
    that raises its value by at most ``tol * |value|`` and is frozen from
    then on; ``converged`` reports whether the winner stopped so within the
    hard sweep limit.  The winning phases are returned as a regular (4, 8)
    parameter block.

    Moves are computed on link phases, not on 3x3 matrices.  A decorated
    shift D SHIFT D+ is nonzero only at (l+1, l), where it holds the link
    phase L_l = exp(i (chi_{l+1} - chi_l)), so the Bell value at local phases
    (phi_A, phi_B) is Re sum_l C_l a_l a_{l+1} L_l(phi_A) L_l(phi_B) with
    C = ``_LINK_WEIGHTS``.  Moving phi_c by delta turns link c - 1 by
    exp(i delta) and link c by exp(-i delta).  With T_l the terms at the
    other phases, the value is Re T_{c+1} + Re((T_{c-1} + conj T_c) exp(i delta)),
    a sinusoid in delta whose maximum lies at delta = -arg(T_{c-1} + conj T_c)
    (``_exact_move``); arg 0 = 0 leaves a flat coordinate where it is.  A move
    costs O(restarts).  The returned value is ``_phase_bell`` at the winning phases.
    """
    if int(restarts) != restarts or not (1 <= restarts <= _MAX_RESTARTS):
        raise DomainError(f"restarts must be an integer in [1, {_MAX_RESTARTS}], got {restarts}")
    if int(seed) != seed or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {seed}")
    if not (0.0 < tol < 1.0):
        raise DomainError(f"relative tolerance must lie in (0, 1), got {tol}")
    restarts = int(restarts)

    rngs = (np.random.default_rng([seed, i]) for i in range(restarts))
    phases = np.stack([rng.uniform(-np.pi, np.pi, size=6) for rng in rngs])
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
        active &= value - previous > tol * np.abs(previous)
        sweeps += 1

    winner = int(np.argmax(value))
    return BellResult(
        value=float(value[winner]),
        settings=_settings_from_phases(phases[winner]),
        restarts_used=restarts,
        converged=not active[winner],
    )
