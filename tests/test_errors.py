"""Integer and real arguments: nan, +-inf and ints past the float range raise DomainError, never a bare error."""

import math

import numpy as np
import pytest

from gmeslab import (
    DomainError,
    QutritState,
    coherent_fock,
    cross_kerr_apply,
    default_cutoff,
    f_coefficient,
    gmes_spectrum,
    gmms_distribution,
    kerr_mes_fidelity,
    maximize_bell,
    mes_overlaps,
    mes_spectrum,
    poisson_tail,
    pseudo_number_component,
    pseudo_phase_gram,
    solve_b_for_nbar,
    solve_r_for_nbar,
    thermal_distribution,
    tmsv_spectrum,
    two_mode_product,
)
from gmeslab.errors import check_integer, check_real

UNIFORM = QutritState(np.full(3, 1.0 / math.sqrt(3.0)))

SITES = {
    "f_coefficient n": lambda x: f_coefficient(x, 1.0),
    "mes_spectrum N": mes_spectrum,
    "coherent_fock cutoff": lambda x: coherent_fock(1.0, x),
    "pseudo_number_component k": lambda x: pseudo_number_component(coherent_fock(1.0, 10), 3, x),
    "modulus d": lambda x: kerr_mes_fidelity(1.0, x),
    "maximize_bell restarts": lambda x: maximize_bell(UNIFORM, restarts=x),
    "maximize_bell seed": lambda x: maximize_bell(UNIFORM, restarts=1, seed=x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(math.inf)])
@pytest.mark.parametrize("site", sorted(SITES))
def test_non_finite_integer_arguments_raise_domain_error(site, value):
    with pytest.raises(DomainError, match="must be an integer"):
        SITES[site](value)


def test_integral_floats_act_as_their_integers():
    # the value passed on is the checked int, so a float d or seed no longer
    # reaches numpy as an index or a seed (IndexError, TypeError before)
    pair = two_mode_product(coherent_fock(1.0, 10), coherent_fock(1.0, 10))
    assert np.array_equal(cross_kerr_apply(pair, 3.0).amps, cross_kerr_apply(pair, 3).amps)
    assert np.array_equal(pseudo_phase_gram(1.0, 3.0), pseudo_phase_gram(1.0, 3))
    got, want = maximize_bell(UNIFORM, restarts=2.0, seed=3.0), maximize_bell(UNIFORM, restarts=2, seed=3)
    assert (got.value, got.restarts_used) == (want.value, want.restarts_used)
    assert np.array_equal(got.phases, want.phases)


@pytest.mark.parametrize("lam", [0.0, 2.0, 1e4])
def test_poisson_tail_at_non_finite_n(lam):
    assert poisson_tail(-math.inf, lam) == 1.0
    assert poisson_tail(math.inf, lam) == 0.0
    with pytest.raises(DomainError, match="nan"):
        poisson_tail(math.nan, lam)


def test_check_integer():
    assert check_integer(3.0, "x", 0) == 3 and type(check_integer(3.0, "x", 0)) is int
    assert check_integer(np.int64(7), "x", 1, 7) == 7
    assert check_integer(10**400, "x", 0) == 10**400
    for value, low, high in [(2.5, 0, None), (-1, 0, None), (8, 1, 7), (0, 1, 7)]:
        with pytest.raises(DomainError, match=r"x must be an integer (>= \d|in \[)"):
            check_integer(value, "x", low, high)
    # str() of an int past 4300 digits raises ValueError, so the message names the failure instead
    with pytest.raises(DomainError, match=r"N must be an integer >= 1, got a value str\(\) refuses"):
        mes_spectrum(-(10**5000))


# Each takes a real parameter; float() of an int past the float range raises OverflowError.
REAL_SITES = {
    "tmsv_spectrum r": tmsv_spectrum,
    "gmes_spectrum b": gmes_spectrum,
    "gmms_distribution b": gmms_distribution,
    "mes_overlaps tmsv r": lambda x: mes_overlaps("tmsv", x, [1]),
    "mes_overlaps tmsv r grid": lambda x: mes_overlaps("tmsv", [1.0, x], [1]),
    "mes_overlaps gmes b": lambda x: mes_overlaps("gmes", x, [1]),
    "mes_overlaps gmes b grid": lambda x: mes_overlaps("gmes", [1.0, x], [1]),
    "poisson_tail lam": lambda x: poisson_tail(3, x),
    "f_coefficient b": lambda x: f_coefficient(0, x),
    "solve_r_for_nbar nbar": solve_r_for_nbar,
    "solve_b_for_nbar nbar": solve_b_for_nbar,
    "thermal_distribution nbar": thermal_distribution,
    "coherent_fock alpha": coherent_fock,
    "default_cutoff alpha": default_cutoff,
    "kerr_mes_fidelity alpha": lambda x: kerr_mes_fidelity(x, 2),
}


@pytest.mark.parametrize("site", sorted(REAL_SITES))
def test_int_past_the_float_range_raises_domain_error(site):
    with pytest.raises(DomainError):
        REAL_SITES[site](10**400)


def test_check_real():
    assert check_real(3, "x", 0.0) == 3.0 and type(check_real(3, "x", 0.0)) is float
    assert check_real(np.float64(0.1), "x", 0.0) == 0.1
    assert check_real(0.0, "x", 0.0) == 0.0
    assert check_real(5e-324, "x", 0.0, strict=True) == 5e-324
    for value, strict in [(0.0, True), (-5e-324, False), (math.nan, False), (math.inf, False), (-math.inf, False),
                          (10**400, False), (-(10**400), False), (10**5000, False),  # past str()'s 4300 digits
                          (1j, False), ("one", False), (None, False)]:
        with pytest.raises(DomainError, match="x must be a finite number >=? 0, got"):
            check_real(value, "x", 0.0, strict=strict)
