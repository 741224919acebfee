"""Fidelity, qutrit truncation and the closed-form maximal Bell value."""

import math

import mpmath
import numpy as np
import pytest

from gmeslab import (
    DegenerateInputError,
    QutritState,
    SchmidtSpectrum,
    bell_max_analytic,
    entanglement_entropy,
    fidelity,
    gmes_spectrum,
    mes_spectrum,
    qutrit_truncate,
    tmsv_spectrum,
)

UNIFORM = QutritState(np.full(3, 1.0 / math.sqrt(3.0)))


def truncated_tmsv_oracle(r):
    """(1, t, t^2)/sqrt(1 + t^2 + t^4) with t = tanh r, in high precision."""
    with mpmath.workdps(50):
        t = mpmath.tanh(mpmath.mpf(r))
        norm = mpmath.sqrt(1 + t**2 + t**4)
        return np.array([float(t**k / norm) for k in range(3)])


def truncated_gmes_oracle(b):
    with mpmath.workdps(50):
        lam = mpmath.mpf(b) ** 2
        f = [mpmath.gammainc(k + 1, 0, lam, regularized=True) / lam for k in range(3)]
        total = f[0] + f[1] + f[2]
        return np.array([float(mpmath.sqrt(fk / total)) for fk in f])


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 3, 10])
def test_fidelity_mes_self(n):
    assert fidelity(mes_spectrum(n), mes_spectrum(n)) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 9])
def test_fidelity_mes_vacuum(n):
    # only the |00> component of the uniform state overlaps the vacuum
    assert fidelity(mes_spectrum(n), tmsv_spectrum(0.0)) == pytest.approx(
        1.0 / math.sqrt(n), rel=1e-14
    )


def test_fidelity_mes_closed_form():
    # fidelity against an N-dim uniform state is (1/sqrt N) sum_{n<N} c_n
    s = gmes_spectrum(4.0)
    for n in [1, 5, 50]:
        want = float(np.sum(s.coeffs[:n])) / math.sqrt(n)
        assert fidelity(mes_spectrum(n), s) == pytest.approx(want, rel=1e-13)


def test_fidelity_bounds_and_symmetry():
    pairs = [
        (tmsv_spectrum(1.0), gmes_spectrum(1.0)),
        (tmsv_spectrum(0.3), mes_spectrum(7)),
        (gmes_spectrum(5.0), mes_spectrum(40)),
    ]
    for s, t in pairs:
        v = fidelity(s, t)
        assert 0.0 <= v <= 1.0
        assert fidelity(t, s) == v
        assert v < 1.0  # distinct spectra
    for s in [tmsv_spectrum(1.0), gmes_spectrum(2.0)]:
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# qutrit truncation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", np.linspace(0.0, 5.0, 11).tolist())
def test_qutrit_truncate_tmsv_closed_form(r):
    got = qutrit_truncate(tmsv_spectrum(r)).a
    np.testing.assert_allclose(got, truncated_tmsv_oracle(r), atol=1e-12, rtol=0)


@pytest.mark.parametrize("b", [0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0])
def test_qutrit_truncate_gmes_closed_form(b):
    got = qutrit_truncate(gmes_spectrum(b)).a
    np.testing.assert_allclose(got, truncated_gmes_oracle(b), atol=1e-12, rtol=0)


@pytest.mark.parametrize("b", [0.5, 2.0, 10.0])
def test_gmes_qutrit_denominator_identity(b):
    # b^2 (f0 + f1 + f2) = 3 - e^{-b^2}(b^4 + 4 b^2 + 6)/2, summing the CDF terms
    with mpmath.workdps(50):
        lam = mpmath.mpf(b) ** 2
        lhs = sum(mpmath.gammainc(k + 1, 0, lam, regularized=True) for k in range(3))
        rhs = 3 - mpmath.e**-lam * (lam**2 + 4 * lam + 6) / 2
        assert float(abs(lhs - rhs)) < 1e-30


def test_qutrit_truncate_uniform():
    np.testing.assert_allclose(qutrit_truncate(mes_spectrum(3)).a, UNIFORM.a, atol=1e-15)
    np.testing.assert_allclose(
        qutrit_truncate(mes_spectrum(2)).a,
        [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0],
        atol=1e-15,
    )


def test_qutrit_truncate_degenerate():
    s = SchmidtSpectrum(np.array([0.0, 0.0, 0.0, 1.0]), 0.0)
    with pytest.raises(DegenerateInputError):
        qutrit_truncate(s)


def test_qutrit_state_validation():
    from gmeslab import DomainError

    with pytest.raises(DomainError):
        QutritState(np.array([1.0, 1.0, 1.0]))  # not normalized
    with pytest.raises(DomainError):
        QutritState(np.array([-1.0, 0.0, 0.0]))
    for a in (np.array([1.0, 0.0]), np.eye(3)[:1]):  # not a 3-vector
        with pytest.raises(DomainError):
            QutritState(a)


# ---------------------------------------------------------------------------
# analytic Bell maximum
# ---------------------------------------------------------------------------


def test_bell_max_uniform():
    got = bell_max_analytic(UNIFORM)
    assert got == pytest.approx(2.872934051172335, abs=1e-12)
    assert got == pytest.approx(4.0 / 3.0 + 8.0 / (3.0 * math.sqrt(3.0)), abs=1e-14)


def test_bell_max_product_state():
    assert bell_max_analytic(QutritState(np.array([1.0, 0.0, 0.0]))) == 0.0


def test_bell_max_two_level():
    s = 1.0 / math.sqrt(2.0)
    assert bell_max_analytic(QutritState(np.array([s, s, 0.0]))) == pytest.approx(
        2.0, abs=1e-14
    )


def test_bell_max_swap_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = rng.uniform(0.05, 1.0, 3)
        a /= np.linalg.norm(a)
        swapped = a[[1, 0, 2]]
        assert (
            bell_max_analytic(QutritState(a))
            == bell_max_analytic(QutritState(swapped))
        )


# ---------------------------------------------------------------------------
# entanglement entropy
# ---------------------------------------------------------------------------


def test_entropy_examples():
    for n in [2, 3, 8]:
        assert entanglement_entropy(mes_spectrum(n)) == pytest.approx(math.log2(n), rel=1e-12)
    assert entanglement_entropy(tmsv_spectrum(0.0)) == 0.0


def test_entropy_increases_with_squeezing():
    grid = [0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    vals = [entanglement_entropy(tmsv_spectrum(r)) for r in grid]
    assert all(x < y for x, y in zip(vals, vals[1:]))
