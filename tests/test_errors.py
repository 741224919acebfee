"""Integer arguments: nan and +-inf raise DomainError at every site, never a bare error."""

import math

import numpy as np
import pytest

from gmeslab import (
    DomainError,
    QutritState,
    coherent_fock,
    cross_kerr_apply,
    f_coefficient,
    kerr_mes_fidelity,
    maximize_bell,
    mes_spectrum,
    poisson_tail,
    pseudo_number_component,
    pseudo_phase_gram,
    two_mode_product,
)
from gmeslab.errors import check_integer

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
    assert np.array_equal(got.settings.params, want.settings.params)


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
