"""Truncated Fock simulation: coherent states, mod-d components, Kerr phase."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gmeslab import (
    MAX_CUTOFF,
    DegenerateInputError,
    DomainError,
    TruncationError,
    coherent_fock,
    cross_kerr_apply,
    default_cutoff,
    kerr_mes_fidelity,
    pseudo_number_component,
    pseudo_phase_gram,
    two_mode_product,
)


def overlap(v, w):
    return complex(np.vdot(v.amps, w.amps))


def loewdin_reference(alpha, d, cutoff):
    """Overlap of the cross-Kerr output with the target, built on the two-mode Fock grid."""
    base = coherent_fock(alpha, cutoff)
    output = cross_kerr_apply(two_mode_product(base, base), d)
    number_basis = []
    for k in range(d):
        component, norm = pseudo_number_component(base, d, k)
        number_basis.append(component.amps / norm)
    rotations = np.exp(2j * np.pi * np.arange(d) / d)
    phases = np.stack([coherent_fock(alpha * rot, cutoff).amps for rot in rotations])
    eigvals, eigvecs = np.linalg.eigh(np.conjugate(phases) @ phases.T)
    inv_sqrt = (eigvecs / np.sqrt(eigvals)) @ np.conjugate(eigvecs.T)
    phase_basis = inv_sqrt.T @ phases
    target = np.einsum("ki,kj->ij", np.stack(number_basis), phase_basis) / math.sqrt(d)
    return abs(complex(np.vdot(target, output.amps)))


def rotated_gram_reference(alpha, d):
    """Gram matrix of the d rotated coherent vectors |alpha w^j>, built one by one."""
    rotations = np.exp(2j * np.pi * np.arange(d) / d)
    vecs = np.stack([coherent_fock(alpha * rot, default_cutoff(alpha)).amps for rot in rotations])
    return np.conjugate(vecs) @ vecs.T


def closed_form_oracle(alpha, d, cutoff):
    """(sum_k n_k)^2 / d at 40 digits, n_k^2 summed term by term over n = k mod d."""
    with mpmath.workdps(40):
        a2 = mpmath.mpf(alpha) ** 2
        norms = [
            mpmath.sqrt(
                mpmath.fsum(
                    mpmath.exp(-a2) * a2**n / mpmath.factorial(n) for n in range(k, cutoff + 1, d)
                )
            )
            for k in range(d)
        ]
        return float(mpmath.fsum(norms) ** 2 / d)


# ---------------------------------------------------------------------------
# coherent states
# ---------------------------------------------------------------------------


def test_coherent_vacuum():
    v = coherent_fock(0.0, cutoff=5)
    np.testing.assert_allclose(v.amps, [1.0, 0, 0, 0, 0, 0], atol=1e-15)
    assert v.loss == 0.0


def test_coherent_norm():
    v = coherent_fock(3.0, cutoff=60)
    assert v.norm() >= 1.0 - 1e-10
    assert v.loss <= 1e-10


def test_coherent_amplitudes():
    alpha = 1.5 - 0.5j
    v = coherent_fock(alpha, cutoff=30)
    for n in [0, 1, 5, 12]:
        want = (
            math.exp(-abs(alpha) ** 2 / 2.0) * alpha**n / math.sqrt(math.factorial(n))
        )
        assert v.amps[n] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("alpha,beta", [(1.0, 2.0), (2.0, -1.5), (1.0 + 1.0j, 0.5j)])
def test_coherent_overlap_formula(alpha, beta):
    cutoff = 80
    got = overlap(coherent_fock(alpha, cutoff), coherent_fock(beta, cutoff))
    want = np.exp(-(abs(alpha) ** 2 + abs(beta) ** 2) / 2.0 + np.conj(alpha) * beta)
    assert got == pytest.approx(want, abs=1e-8)


def test_coherent_cutoff_guard():
    with pytest.raises(TruncationError):
        coherent_fock(4.0, cutoff=20)  # |alpha|^2 = 16 > 20/2
    with pytest.raises(DomainError):
        coherent_fock(1.0, cutoff=-1)
    # past the cap: raised before the O(cutoff) arrays exist
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError, match="hard cap"):
            coherent_fock(1.0, cutoff=10**15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert coherent_fock(1.0, cutoff=MAX_CUTOFF).cutoff == MAX_CUTOFF


@pytest.mark.parametrize(
    "alpha", [math.nan, math.inf, -math.inf, complex(1.0, math.nan), 1e200, complex(1.5e308, 1.5e308)])
def test_coherent_non_finite_alpha(alpha):
    # 1e200 is finite, but |alpha|^2 is not, so neither is the default cutoff;
    # abs() of the last one, a complex with finite parts, raises OverflowError
    for call in (coherent_fock, default_cutoff, lambda a: coherent_fock(a, cutoff=50),
                 lambda a: kerr_mes_fidelity(a, 2)):
        with pytest.raises(DomainError):
            call(alpha)


def test_default_cutoff():
    assert default_cutoff(3.0) == math.ceil(9.0 + 24.0 + 20.0)
    assert default_cutoff(0.0) == 20


@given(st.floats(0.0, 443.0, exclude_min=True))
@example(10.0)
@example(10.000000000000002)
@example(11.0)
@example(math.sqrt(60.5))
def test_default_cutoff_passes_the_coherent_guard(alpha):
    # |alpha|^2 + 8|alpha| + 20 up to |alpha| = 10, and 2|alpha|^2 past it
    cutoff = default_cutoff(alpha)
    assert cutoff >= 2.0 * abs(alpha) ** 2
    if alpha <= 10.0:
        assert cutoff == math.ceil(alpha * alpha + 8.0 * alpha + 20.0)


def test_coherent_amplitudes_past_the_float_range():
    # alpha^n / sqrt(n!) overflows near n = |alpha|^2 from |alpha| ~ 37.74 on;
    # sqrt(P(X = n)) e^(i n arg alpha) is finite at every |alpha|
    for alpha, cutoff in ((38.0, 5000), (100.0, 20000)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            v = coherent_fock(alpha, cutoff)
        assert caught == []
        assert np.all(np.isfinite(v.amps))
        assert abs(v.norm() ** 2 - 1.0) <= v.loss + 1e-12
        lam = alpha * alpha
        with mpmath.workdps(40):
            for n in (0, 1, int(lam) // 2, int(lam), int(lam) + 7, int(lam + 5 * alpha), int(lam + 20 * alpha)):
                want = mpmath.exp((n * mpmath.log(lam) - lam - mpmath.loggamma(n + 1)) / 2)
                assert v.amps[n].imag == 0.0
                assert abs(v.amps[n].real - want) <= 1e-12 * want + 1e-300, (alpha, n)


# ---------------------------------------------------------------------------
# pseudo-number components
# ---------------------------------------------------------------------------


def test_component_d1_is_identity():
    v = coherent_fock(2.0, cutoff=40)
    comp, norm = pseudo_number_component(v, 1, 0)
    np.testing.assert_array_equal(comp.amps, v.amps)
    assert norm == pytest.approx(v.norm(), rel=1e-14)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_component_decomposition(d):
    v = coherent_fock(2.0, cutoff=40)
    comps = [pseudo_number_component(v, d, k) for k in range(d)]
    # disjoint support: exact orthogonality and exact reconstruction
    total = np.sum([c.amps for c, _ in comps], axis=0)
    np.testing.assert_array_equal(total, v.amps)
    assert sum(n**2 for _, n in comps) == pytest.approx(v.norm() ** 2, rel=1e-14)
    for i in range(d):
        for j in range(i + 1, d):
            assert overlap(comps[i][0], comps[j][0]) == 0.0


def test_component_weights_equalize_for_large_alpha():
    v = coherent_fock(6.0, cutoff=default_cutoff(6.0))
    for k in range(2):
        _, norm = pseudo_number_component(v, 2, k)
        assert norm**2 == pytest.approx(0.5, abs=1e-3)


def test_component_argument_checks():
    v = coherent_fock(1.0, cutoff=20)
    with pytest.raises(DomainError):
        pseudo_number_component(v, 0, 0)
    with pytest.raises(DomainError):
        pseudo_number_component(v, 3, 3)
    with pytest.raises(DomainError):
        pseudo_number_component(v, 3, -1)


# ---------------------------------------------------------------------------
# cross-Kerr phase
# ---------------------------------------------------------------------------


def test_cross_kerr_d1_identity():
    v = coherent_fock(1.5, cutoff=30)
    s = two_mode_product(v, v)
    out = cross_kerr_apply(s, 1)
    np.testing.assert_array_equal(out.amps, s.amps)


def test_cross_kerr_preserves_norm():
    v = coherent_fock(2.0, cutoff=40)
    s = two_mode_product(v, v)
    out = cross_kerr_apply(s, 3)
    assert abs(np.vdot(out.amps, out.amps).real - np.vdot(s.amps, s.amps).real) <= 1e-14


def test_cross_kerr_phase_values():
    v = coherent_fock(1.0, cutoff=12)
    s = two_mode_product(v, v)
    out = cross_kerr_apply(s, 4)
    # entry (2, 3): phase exp(2 pi i * 6 / 4) = exp(i pi) = -1 exactly
    assert out.amps[2, 3] == pytest.approx(-s.amps[2, 3], rel=1e-14)
    assert out.amps[0, 5] == s.amps[0, 5]


def test_two_mode_product_cutoff_mismatch():
    with pytest.raises(DomainError):
        two_mode_product(coherent_fock(1.0, cutoff=20), coherent_fock(1.0, cutoff=21))


# ---------------------------------------------------------------------------
# pseudo-phase Gram matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha,d", [(4.0, 2), (4.0, 3), (1.3, 5), (9.5, 7), (0.5, 8), (3 + 1j, 4)])
def test_gram_matches_rotated_vectors(alpha, d):
    # the circulant from d ifft(n^2) against the Gram matrix of the rotated
    # coherent vectors themselves
    gram = pseudo_phase_gram(alpha, d)
    np.testing.assert_allclose(gram, rotated_gram_reference(alpha, d), rtol=0, atol=2e-14)


@pytest.mark.parametrize("alpha,d", [(1.0, 2), (2.0, 3), (1.5, 4), (0.8, 3)])
def test_gram_off_diagonal_moduli(alpha, d):
    gram = pseudo_phase_gram(alpha, d)
    np.testing.assert_allclose(np.diag(gram), np.ones(d), atol=1e-12)
    for j in range(d):
        for k in range(d):
            want = math.exp(
                -abs(alpha) ** 2 * (1.0 - math.cos(2.0 * math.pi * (j - k) / d))
            )
            assert abs(gram[j, k]) == pytest.approx(want, abs=1e-8)


# ---------------------------------------------------------------------------
# Kerr MES fidelity
# ---------------------------------------------------------------------------


def test_kerr_fidelity_high_alpha():
    assert kerr_mes_fidelity(3.0, 2) >= 0.999
    assert kerr_mes_fidelity(4.0, 2) >= 0.999


def test_kerr_fidelity_nondecreasing_in_alpha():
    # the curve saturates at 1 within float noise from alpha ~ 3 on, so the
    # monotone claim is asserted up to a few ulps
    curve = [kerr_mes_fidelity(float(a), 2) for a in range(1, 7)]
    assert all(y >= x - 5e-15 for x, y in zip(curve, curve[1:]))
    assert curve[0] < curve[-1]


def test_kerr_fidelity_small_alpha_visibly_below_one():
    value = kerr_mes_fidelity(1.0, 3)
    assert value == pytest.approx(0.971359418968222, abs=1e-9)
    assert value < 0.99


def test_kerr_fidelity_bounds_and_guards():
    assert 0.0 <= kerr_mes_fidelity(0.5, 2) <= 1.0
    with pytest.raises(DegenerateInputError, match="negligible weight"):
        kerr_mes_fidelity(1e-8, 3)
    with pytest.raises(DomainError):
        kerr_mes_fidelity(1.0, 0)


@pytest.mark.parametrize("d", range(1, 8))
def test_kerr_fidelity_matches_loewdin_reference(d):
    for alpha in np.linspace(0.5, 9.0, 18):
        cutoff = default_cutoff(alpha)
        got = kerr_mes_fidelity(alpha, d, cutoff)
        assert got == pytest.approx(loewdin_reference(alpha, d, cutoff), abs=1e-12)


@pytest.mark.parametrize("alpha,d", [(0.27295447924020017, 8), (0.18077686769634305, 7)])
def test_kerr_fidelity_mpmath_oracle(alpha, d):
    # small alpha, large d: the last pseudo-number weights are near the Gram
    # floor, where a numerical orthonormalization loses digits
    want = closed_form_oracle(alpha, d, default_cutoff(alpha))
    assert abs(kerr_mes_fidelity(alpha, d) - want) <= 1e-15


@pytest.mark.parametrize("alpha,d", [(6.0, 4), (4.0, 3)])
def test_kerr_fidelity_never_exceeds_one(alpha, d):
    value = kerr_mes_fidelity(alpha, d)
    assert value <= 1.0
    assert value == pytest.approx(1.0, abs=1e-12)


def test_kerr_fidelity_d_past_the_cutoff():
    # levels stop at the cutoff, so residues past it are empty: raised before
    # any O(d) array exists
    tracemalloc.start()
    try:
        with pytest.raises(DegenerateInputError, match="is empty"):
            kerr_mes_fidelity(4.0, 10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    with pytest.raises(DegenerateInputError, match="is empty"):
        kerr_mes_fidelity(4.0, 42, cutoff=40)


def test_kerr_fidelity_gram_floor():
    # alpha = 1e-3: every n_k is above 1e-12, but the smallest Gram eigenvalue
    # d n_2^2 = 1.5e-12 is below the floor 1e-12 * d n_0^2
    with pytest.raises(DegenerateInputError, match="numerically dependent"):
        kerr_mes_fidelity(1e-3, 3)


@given(st.floats(0.05, 9.5), st.integers(1, 8))
@example(0.05, 8)  # floor holds: n_7^2 is about 1e-22
@example(1.0, 3)
def test_kerr_fidelity_property(alpha, d):
    # the default cutoff covers 2 alpha^2 on this range, so no TruncationError;
    # DegenerateInputError is due exactly when the analytic floor holds
    base = coherent_fock(alpha)
    weights = np.array([pseudo_number_component(base, d, k)[1] ** 2 for k in range(d)])
    if weights.min() < 1e-24 or weights.min() < 1e-12 * weights.max():
        with pytest.raises(DegenerateInputError):
            kerr_mes_fidelity(alpha, d)
    else:
        assert 0.0 <= kerr_mes_fidelity(alpha, d) <= 1.0
