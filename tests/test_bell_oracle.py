"""The settings search, checked against an explicit 3x3 model of the Bell value.

The search in ``gmeslab.bell_oracle`` works on link phases only.  This module
holds the reference it is checked against: unitary three-outcome observables
built from Gell-Mann generators, their correlations, and the Bell value at a
full measurement choice.  The Bell combination itself is the library's
``_bell_from_correlations``, so it exists once.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import schur

from gmeslab import (
    DomainError,
    QutritState,
    bell_max_analytic,
    maximize_bell,
)
from gmeslab import bell_oracle
from gmeslab.bell_oracle import (
    _BASE_DECORATIONS,
    _LINK_WEIGHTS,
    _MAX_RESTARTS,
    _bell_from_correlations,
    _exact_move,
    _links,
    _phase_bell,
)

# ---------------------------------------------------------------------------
# reference model: 3x3 observables with spectrum {1, w, w^2}
# ---------------------------------------------------------------------------

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

_UNITARY_TOL = 1e-10
_EIGENVALUE_TOL = 1e-8


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


def schur_params(u):
    # principal logarithm through the complex Schur form; any trace part only
    # shifts U by a global phase, which the conjugation U Omega U+ ignores
    t, z = schur(u, output="complex")
    gen = (z * np.angle(np.diag(t))) @ np.conjugate(z.T)
    gen = 0.5 * (gen + np.conjugate(gen.T))
    return np.einsum("jkl,lk->j", GENERATORS, gen).real / 2.0


def _settings_from_phases(phases) -> "MeasurementSettings":
    """Parameter block of the decorated shifts D SHIFT D+ at the search's local phases."""
    chis = _BASE_DECORATIONS + np.reshape(phases, (2, 3))[[0, 0, 1, 1]]
    unitaries = np.exp(1j * chis)[:, :, np.newaxis] * _SHIFT_DIAGONALIZER
    return MeasurementSettings(np.array([schur_params(u) for u in unitaries]))


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
        roots = np.diag(REF_OBSERVABLE)
        for name, obs in zip(("A1", "A2", "B1", "B2"), self.observables()):
            _check_observable_unitary(obs, name)
            eigs = np.linalg.eigvals(obs)
            # each cube root must be matched by exactly one eigenvalue
            dist = np.abs(eigs[:, np.newaxis] - roots[np.newaxis, :])
            order = np.argmin(dist, axis=1)
            if sorted(order.tolist()) != [0, 1, 2] or np.max(np.min(dist, axis=1)) > _EIGENVALUE_TOL:
                raise DomainError(f"{name} spectrum is not the three cube roots of unity")


def correlation(q: QutritState, a_obs, b_obs) -> complex:
    """Correlation <psi| A (x) B |psi> for |psi> = sum_k a_k |kk>."""
    a_obs = np.asarray(a_obs, dtype=complex)
    b_obs = np.asarray(b_obs, dtype=complex)
    _check_observable_unitary(a_obs, "A")
    _check_observable_unitary(b_obs, "B")
    outer = q.a[:, np.newaxis] * q.a[np.newaxis, :]
    return complex(np.sum(outer * a_obs * b_obs))


def bell_value(q: QutritState, settings: MeasurementSettings) -> float:
    """Bell combination evaluated at the given measurement settings."""
    obs = settings.observables()
    outer = q.a[:, np.newaxis] * q.a[np.newaxis, :]
    qmat = np.einsum("kl,ikl,jkl->ij", outer, obs[:2], obs[2:])
    return float(_bell_from_correlations(qmat))


UNIFORM = QutritState(np.full(3, 1.0 / math.sqrt(3.0)))


def random_state(rng):
    a = rng.uniform(0.02, 1.0, 3)
    return QutritState(a / np.linalg.norm(a))


def random_settings(rng, scale=1.0):
    return MeasurementSettings(scale * rng.normal(size=(4, 8)))


# ---------------------------------------------------------------------------
# fixed algebraic objects
# ---------------------------------------------------------------------------


def test_reference_observable():
    omega = np.exp(2j * np.pi / 3.0)
    np.testing.assert_allclose(REF_OBSERVABLE, np.diag([1.0, omega, omega**2]), atol=1e-15)
    assert not REF_OBSERVABLE.flags.writeable


def test_generators_traceless_hermitian():
    assert GENERATORS.shape == (8, 3, 3)
    for g in GENERATORS:
        assert abs(np.trace(g)) < 1e-14
        np.testing.assert_allclose(g, g.conj().T, atol=1e-14)
    # orthogonality tr(G_i G_j) = 2 delta_ij
    overlaps = np.einsum("ijk,lkj->il", GENERATORS, GENERATORS)
    np.testing.assert_allclose(overlaps, 2.0 * np.eye(8), atol=1e-13)


def test_shift_is_cyclic():
    np.testing.assert_allclose(SHIFT @ SHIFT @ SHIFT, np.eye(3), atol=1e-15)
    e0 = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(SHIFT @ e0, [0.0, 1.0, 0.0], atol=1e-15)


def test_observable_from_params():
    np.testing.assert_allclose(observable_from_params(np.zeros(8)), REF_OBSERVABLE, atol=1e-15)
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = observable_from_params(rng.normal(size=8))
        np.testing.assert_allclose(a @ a.conj().T, np.eye(3), atol=1e-12)
        got = np.sort(np.angle(np.linalg.eigvals(a)))
        want = np.sort(np.angle(np.diag(REF_OBSERVABLE)))
        np.testing.assert_allclose(got, want, atol=1e-8)
    with pytest.raises(DomainError):
        observable_from_params(np.zeros(5))


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------


def test_correlation_reference_pairs():
    # <psi| O x O |psi> sums the cube roots of unity for the uniform state
    assert abs(correlation(UNIFORM, REF_OBSERVABLE, REF_OBSERVABLE)) < 1e-15
    conj = REF_OBSERVABLE.conj().T
    assert correlation(UNIFORM, REF_OBSERVABLE, conj) == pytest.approx(1.0, abs=1e-15)


def test_correlation_bounded():
    rng = np.random.default_rng(17)
    for _ in range(50):
        q = random_state(rng)
        a_obs, _, b_obs, _ = random_settings(rng).observables()
        assert abs(correlation(q, a_obs, b_obs)) <= 1.0 + 1e-12


def test_correlation_rejects_non_unitary():
    with pytest.raises(DomainError):
        correlation(UNIFORM, 2.0 * np.eye(3), REF_OBSERVABLE)


# ---------------------------------------------------------------------------
# bell_value
# ---------------------------------------------------------------------------


def test_bell_value_all_reference():
    # zero parameters give the reference observable on every setting, so all
    # four correlations coincide and B = 2 sum_k a_k^2 cos(4 pi k / 3)
    settings = MeasurementSettings(np.zeros((4, 8)))
    rng = np.random.default_rng(23)
    for _ in range(5):
        q = random_state(rng)
        want = 2.0 * float(np.dot(q.a**2, np.cos(4.0 * np.pi * np.arange(3) / 3.0)))
        assert bell_value(q, settings) == pytest.approx(want, abs=1e-13)
    assert bell_value(UNIFORM, settings) == pytest.approx(0.0, abs=1e-13)


def test_canonical_settings_attain_the_closed_form():
    settings = canonical_settings()
    settings.validate()
    s = 1.0 / math.sqrt(2.0)
    anchors = [
        UNIFORM,
        QutritState(np.array([s, s, 0.0])),
        QutritState(np.array([s, 0.0, s])),
        QutritState(np.array([0.0, s, s])),
    ]
    rng = np.random.default_rng(29)
    anchors += [random_state(rng) for _ in range(8)]
    for q in anchors:
        assert bell_value(q, settings) == pytest.approx(
            bell_max_analytic(q), abs=1e-10
        )


def test_two_level_anchor_values():
    settings = canonical_settings()
    s = 1.0 / math.sqrt(2.0)
    assert bell_value(QutritState(np.array([s, s, 0.0])), settings) == pytest.approx(
        2.0, abs=1e-12
    )
    assert bell_value(QutritState(np.array([s, 0.0, s])), settings) == pytest.approx(
        2.0 / math.sqrt(3.0), abs=1e-12
    )


def test_product_state_respects_classical_bound():
    q = QutritState(np.array([1.0, 0.0, 0.0]))
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(300):
        value = bell_value(q, random_settings(rng, scale=rng.uniform(0.2, 2.0)))
        worst = max(worst, abs(value))
    assert worst <= 2.0 + 1e-9


def test_bell_value_range():
    rng = np.random.default_rng(43)
    for _ in range(100):
        value = bell_value(random_state(rng), random_settings(rng))
        assert -4.0 <= value <= 4.0


# ---------------------------------------------------------------------------
# settings container
# ---------------------------------------------------------------------------


def test_settings_validation():
    with pytest.raises(DomainError):
        MeasurementSettings(np.zeros((4, 7)))
    bad = np.zeros((4, 8))
    bad[0, 0] = np.nan
    with pytest.raises(DomainError):
        MeasurementSettings(bad)
    rng = np.random.default_rng(47)
    random_settings(rng).validate()


# ---------------------------------------------------------------------------
# maximize_bell
# ---------------------------------------------------------------------------


def test_maximize_uniform():
    result = maximize_bell(UNIFORM, restarts=4, seed=0)
    assert result.value == pytest.approx(2.872934051172335, abs=1e-12)
    assert result.converged
    assert result.restarts_used == 4


def test_maximize_matches_formula_on_random_states():
    rng = np.random.default_rng(53)
    for _ in range(6):
        q = random_state(rng)
        want = bell_max_analytic(q)
        result = maximize_bell(q, restarts=3, seed=1)
        assert abs(result.value - want) <= 1e-12 * want
        assert result.value <= want + 1e-9


def test_maximize_product_state():
    result = maximize_bell(QutritState(np.array([1.0, 0.0, 0.0])), restarts=2, seed=0)
    assert result.value <= 2.0 + 1e-6


def test_maximize_deterministic():
    r1 = maximize_bell(UNIFORM, restarts=3, seed=7)
    r2 = maximize_bell(UNIFORM, restarts=3, seed=7)
    assert r1.value == r2.value
    assert np.array_equal(r1.phases, r2.phases)


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(lambda a: max(a) >= 1e-3),
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(1, 6),
)
@example((1.0, 1.0, 1.0), 5, 2, 3)
def test_maximize_monotone_in_restarts(a, seed, fewer, extra):
    # restart i starts from row i of one seeded stream, whose first rows do
    # not depend on how many are drawn, and a stopped restart is frozen, so
    # each path ignores the others: adding restarts keeps the earlier paths
    # bit for bit and can only improve the best value
    q = QutritState(np.divide(a, math.hypot(*a)))
    small = maximize_bell(q, restarts=fewer, seed=seed)
    large = maximize_bell(q, restarts=fewer + extra, seed=seed)
    assert large.value >= small.value
    if large.value == small.value:
        assert np.array_equal(large.phases, small.phases)


def test_maximize_reports_the_sweep_limit(monkeypatch):
    # one sweep leaves a random start short of the optimum, so no restart has
    # stopped by the tol rule when the limit ends the search
    monkeypatch.setattr(bell_oracle, "_MAX_SWEEPS", 1)
    assert not maximize_bell(UNIFORM, restarts=4, seed=0).converged
    monkeypatch.undo()
    assert maximize_bell(UNIFORM, restarts=4, seed=0).converged


def test_maximize_freezes_a_stopped_restart(monkeypatch):
    # once a sweep gains at most tol |value| for a restart, its phases never
    # move again, whatever the other restarts still do
    seen = []
    phase_bell = bell_oracle._phase_bell

    def spy(q, phases):
        value = phase_bell(q, phases)
        seen.append((phases.copy(), value))
        return value

    monkeypatch.setattr(bell_oracle, "_phase_bell", spy)
    rng = np.random.default_rng(71)
    # a draw whose restarts all stop at one sweep leaves no stopped restart
    # beside a moving one, so it counts only towards the cap, not the quota
    staggered = 0
    for _ in range(30):
        seen.clear()
        maximize_bell(random_state(rng), restarts=32, seed=int(rng.integers(2**32)))
        stopped_at = np.full(32, len(seen))
        for sweep in range(len(seen) - 1, 0, -1):
            gain = seen[sweep][1] - seen[sweep - 1][1]
            stopped_at[gain <= 1e-12 * np.abs(seen[sweep - 1][1])] = sweep
        for row, sweep in enumerate(stopped_at):
            for phases, _ in seen[sweep:]:
                assert np.array_equal(phases[row], seen[sweep][0][row])
        staggered += len(set(stopped_at.tolist())) > 1  # the restarts stop at different sweeps
        if staggered == 10:
            break
    assert staggered == 10


def criterion_2_states():
    # the 20 states of acceptance criterion 2
    rng = np.random.default_rng(2024)
    states = []
    for _ in range(20):
        a = rng.uniform(0.0, 1.0, 3)
        states.append(QutritState(a / np.linalg.norm(a)))
    return states


def test_maximize_sweeps_on_the_criterion_2_states(monkeypatch):
    # _phase_bell runs once on the starts and once per sweep
    calls = []
    phase_bell = bell_oracle._phase_bell

    def spy(q, phases):
        calls.append(1)
        return phase_bell(q, phases)

    monkeypatch.setattr(bell_oracle, "_phase_bell", spy)
    for q in criterion_2_states():
        calls.clear()
        result = maximize_bell(q, restarts=32, seed=0)
        assert result.converged
        assert 1 <= len(calls) - 1 <= 10
        assert abs(result.value - bell_max_analytic(q)) <= 1e-12 * result.value


def test_reference_settings_reproduce_the_value_on_the_criterion_2_states():
    # the 3x3 model at the settings of the returned phases gives the value the
    # link-phase search reports
    for q in criterion_2_states():
        result = maximize_bell(q, restarts=32, seed=0)
        assert result.phases.shape == (6,)
        reference = _settings_from_phases(result.phases)
        reference.validate()
        assert abs(bell_value(q, reference) - result.value) <= 1e-14 * result.value


def test_maximize_argument_validation():
    with pytest.raises(DomainError):
        maximize_bell(UNIFORM, restarts=0)
    with pytest.raises(DomainError):
        maximize_bell(UNIFORM, restarts=2.5)
    for seed in (-1, 2.5):
        with pytest.raises(DomainError, match="seed"):
            maximize_bell(UNIFORM, restarts=1, seed=seed)


@pytest.mark.parametrize("restarts", [1, 32, 1000])
def test_maximize_builds_one_generator(monkeypatch, restarts):
    # every restart's starts come from one stream, whatever the count
    built = []
    default_rng = np.random.default_rng

    def counting(*args, **kwargs):
        built.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    maximize_bell(UNIFORM, restarts=restarts, seed=5)
    assert built == [(5,)]


@pytest.mark.parametrize("fewer, extra", [(1, 1), (3, 29), (32, 968)])
def test_maximize_starts_are_rows_of_one_stream(monkeypatch, fewer, extra):
    # the first _phase_bell call scores the starts: those of `fewer` restarts
    # are the first rows of those of `fewer + extra`
    seen = []
    phase_bell = bell_oracle._phase_bell

    def spy(q, phases):
        seen.append(phases.copy())
        return phase_bell(q, phases)

    monkeypatch.setattr(bell_oracle, "_phase_bell", spy)
    starts = []
    for restarts in (fewer, fewer + extra):
        seen.clear()
        maximize_bell(UNIFORM, restarts=restarts, seed=11)
        starts.append(seen[0])
    assert starts[0].shape == (fewer, 6) and starts[1].shape == (fewer + extra, 6)
    assert np.array_equal(starts[0], starts[1][:fewer])


def test_maximize_restart_cap(monkeypatch):
    # rejected before its generator is built
    def no_generator(*args, **kwargs):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    with pytest.raises(DomainError, match="restarts"):
        maximize_bell(UNIFORM, restarts=10**8)
    with pytest.raises(DomainError, match="restarts"):
        maximize_bell(UNIFORM, restarts=_MAX_RESTARTS + 1)


def test_phase_bell_matches_bell_value():
    # the link-phase form the search scores trials with, against the 3x3 path
    rng = np.random.default_rng(67)
    for _ in range(100):
        q = random_state(rng)
        phases = rng.uniform(-np.pi, np.pi, 6)
        want = bell_value(q, _settings_from_phases(phases))
        assert abs(_phase_bell(q, phases) - want) <= 1e-13


# Zero or at least 1e-150, so each product a_k a_l is 0 or a normal float: a
# subnormal product carries an absolute rounding of 4.9e-324, which no
# relative bound can cover, on the closed form's side as much as the oracle's.
COEFFS = st.one_of(st.just(0.0), st.floats(1e-150, 1.0))


@settings(max_examples=12, deadline=None)
@given(st.tuples(COEFFS, COEFFS, COEFFS).filter(any), st.integers(0, 2**32 - 1))
@example((1.0, 1.0, 1.0), 0)
@example((1.0, 0.0, 0.0), 0)
@example((0.9, 0.3, 0.05), 3)
@example((1.0, 1e-4, 1e-8), 3)  # the smoke check of the CI workflow
@example((1.0, 1e-10, 1e-10), 0)  # a value near 6e-10 from two links of equal weight
def test_maximize_never_exceeds_the_closed_form(a, seed):
    q = QutritState(np.divide(a, math.hypot(*a)))
    want = bell_max_analytic(q)
    value = maximize_bell(q, seed=seed).value
    assert value <= want * (1.0 + 1e-12)
    assert value >= want * (1.0 - 1e-12)


@settings(max_examples=40, deadline=None)
@given(st.tuples(COEFFS, COEFFS, COEFFS).filter(any), st.integers(0, 2**32 - 1))
@example((1.0, 1.0, 1.0), 3)
@example((1.0, 1e-4, 1e-8), 3)
@example((1e-150, 1.0, 1e-150), 0)
def test_reference_settings_reproduce_the_value_on_drawn_states(a, seed):
    # absolute, not relative: the 3x3 path rounds on the scale of the largest
    # product a_k a_l, so a value made of tiny coefficients carries errors far
    # above itself
    q = QutritState(np.divide(a, math.hypot(*a)))
    result = maximize_bell(q, seed=seed)
    reference = _settings_from_phases(result.phases)
    reference.validate()
    assert abs(bell_value(q, reference) - result.value) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(COEFFS, COEFFS, COEFFS).filter(any),
    st.lists(st.floats(-math.pi, math.pi), min_size=6, max_size=6),
    st.integers(0, 1),
    st.integers(0, 2),
)
def test_exact_move_is_the_maximum_along_its_phase(a, start, party, coord):
    # the value along one phase is a sinusoid; the move lands on its peak, so
    # no point of a 64-point grid through the whole circle lies above it
    q = QutritState(np.divide(a, math.hypot(*a)))
    phases = np.array(start)
    block = slice(3 * party, 3 * party + 3)
    other = slice(3 - 3 * party, 6 - 3 * party)
    terms = _LINK_WEIGHTS * q.a * q.a[[1, 2, 0]] * _links(phases[other]) * _links(phases[block])
    moved = phases.copy()
    moved[3 * party + coord] += _exact_move(terms, coord)
    grid = np.repeat(phases[np.newaxis], 64, axis=0)
    grid[:, 3 * party + coord] += np.linspace(-np.pi, np.pi, 64, endpoint=False)
    best = _phase_bell(q, moved)
    assert best >= _phase_bell(q, phases) - 1e-14
    assert np.all(best >= _phase_bell(q, grid) - 1e-14)
