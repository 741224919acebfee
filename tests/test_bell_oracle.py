"""Correlation functions, explicit Bell evaluation and the settings search."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import schur

from gmeslab import (
    GENERATORS,
    REF_OBSERVABLE,
    SHIFT,
    DomainError,
    MeasurementSettings,
    QutritState,
    bell_max_analytic,
    bell_value,
    canonical_settings,
    correlation,
    maximize_bell,
    observable_from_params,
)
from gmeslab import bell_oracle
from gmeslab.bell_oracle import (
    _BASE_DECORATIONS,
    _LINK_WEIGHTS,
    _MAX_RESTARTS,
    _SHIFT_DIAGONALIZER,
    _exact_move,
    _links,
    _params_from_unitary,
    _phase_bell,
    _settings_from_phases,
)

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
            bell_max_analytic(q).value, abs=1e-10
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
        want = bell_max_analytic(q).value
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
    assert np.array_equal(r1.settings.params, r2.settings.params)


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(lambda a: max(a) >= 1e-3),
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(1, 6),
)
@example((1.0, 1.0, 1.0), 5, 2, 3)
def test_maximize_monotone_in_restarts(a, seed, fewer, extra):
    # per-restart seeding is derived from (seed, index) and a stopped restart
    # is frozen, so each path ignores the others: adding restarts keeps the
    # earlier paths bit for bit and can only improve the best value
    q = QutritState(np.divide(a, math.hypot(*a)))
    small = maximize_bell(q, restarts=fewer, seed=seed)
    large = maximize_bell(q, restarts=fewer + extra, seed=seed)
    assert large.value >= small.value
    if large.value == small.value:
        assert np.array_equal(large.settings.params, small.settings.params)


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
    for _ in range(10):
        seen.clear()
        maximize_bell(random_state(rng), restarts=32, seed=int(rng.integers(2**32)))
        stopped_at = np.full(32, len(seen))
        for sweep in range(len(seen) - 1, 0, -1):
            gain = seen[sweep][1] - seen[sweep - 1][1]
            stopped_at[gain <= 1e-12 * np.abs(seen[sweep - 1][1])] = sweep
        assert len(set(stopped_at.tolist())) > 1  # the restarts stop at different sweeps
        for row, sweep in enumerate(stopped_at):
            for phases, _ in seen[sweep:]:
                assert np.array_equal(phases[row], seen[sweep][0][row])


def test_maximize_sweeps_on_the_criterion_2_states(monkeypatch):
    # _phase_bell runs once on the starts and once per sweep
    calls = []
    phase_bell = bell_oracle._phase_bell

    def spy(q, phases):
        calls.append(1)
        return phase_bell(q, phases)

    monkeypatch.setattr(bell_oracle, "_phase_bell", spy)
    rng = np.random.default_rng(2024)
    for _ in range(20):
        a = rng.uniform(0.0, 1.0, 3)
        q = QutritState(a / np.linalg.norm(a))
        calls.clear()
        result = maximize_bell(q, restarts=32, seed=0)
        assert result.converged
        assert 1 <= len(calls) - 1 <= 10
        assert abs(result.value - bell_max_analytic(q).value) <= 1e-12 * result.value


def test_maximize_result_settings_reproduce_value():
    result = maximize_bell(UNIFORM, restarts=2, seed=3)
    result.settings.validate()
    assert bell_value(UNIFORM, result.settings) == pytest.approx(result.value, abs=1e-10)


def test_maximize_argument_validation():
    with pytest.raises(DomainError):
        maximize_bell(UNIFORM, restarts=0)
    with pytest.raises(DomainError):
        maximize_bell(UNIFORM, restarts=2.5)
    with pytest.raises(DomainError):
        maximize_bell(UNIFORM, tol=0.0)
    with pytest.raises(DomainError):
        maximize_bell(UNIFORM, tol=1.0)
    for seed in (-1, 2.5):
        with pytest.raises(DomainError, match="seed"):
            maximize_bell(UNIFORM, restarts=1, seed=seed)


def test_maximize_restart_cap(monkeypatch):
    # rejected before any of its generators is built
    def no_generator(*args, **kwargs):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    with pytest.raises(DomainError, match="restarts"):
        maximize_bell(UNIFORM, restarts=10**8)
    with pytest.raises(DomainError, match="restarts"):
        maximize_bell(UNIFORM, restarts=_MAX_RESTARTS + 1)


def schur_params(u):
    # reference principal logarithm through the complex Schur form
    t, z = schur(u, output="complex")
    gen = (z * np.angle(np.diag(t))) @ np.conjugate(z.T)
    gen = 0.5 * (gen + np.conjugate(gen.T))
    return np.einsum("jkl,lk->j", GENERATORS, gen).real / 2.0


def test_params_from_unitary_matches_schur():
    rng = np.random.default_rng(61)
    blocks = [np.zeros(6)] + [rng.uniform(-np.pi, np.pi, 6) for _ in range(200)]
    for phases in blocks:
        chis = _BASE_DECORATIONS + np.reshape(phases, (2, 3))[[0, 0, 1, 1]]
        for chi in chis:
            unitary = np.exp(1j * chi)[:, np.newaxis] * _SHIFT_DIAGONALIZER
            np.testing.assert_allclose(_params_from_unitary(unitary), schur_params(unitary), rtol=0, atol=1e-13)


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
    want = bell_max_analytic(q).value
    value = maximize_bell(q, seed=seed).value
    assert value <= want * (1.0 + 1e-12)
    assert value >= want * (1.0 - 1e-12)


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
