"""Fock-diagonal mixed states and their purifications.

The boundary-b Gaussian maximally mixed state is diagonal in photon number
with weights f(n, b); a thermal state with mean nbar has the geometric
weights nbar^n / (1 + nbar)^(n+1).  Purifying either diagonal gives a
two-mode Schmidt spectrum with coefficients sqrt(p_n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_real
from .states import (
    DEFAULT_TOL,
    MAX_CUTOFF,
    SchmidtSpectrum,
    _check_mass,
    _check_tol,
    _geometric_cut,
    bounded_f_profile,
)


@dataclass(frozen=True)
class NumberDistribution:
    """Truncated photon-number probability vector with recorded tail mass."""

    probs: np.ndarray
    tail_bound: float

    def __post_init__(self):
        probs = np.atleast_1d(np.asarray(self.probs, dtype=float))
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size == 0:
            raise DomainError("probs must be a nonempty 1-d vector")
        if not probs.min() >= 0.0 and np.any(probs < 0.0):  # min is nan if any value is
            raise DomainError("probabilities must be nonnegative")
        _check_mass(probs, float(probs.sum()), self.tail_bound)

    def __len__(self) -> int:
        return int(self.probs.size)


def gmms_distribution(b: float, tol: float = DEFAULT_TOL) -> NumberDistribution:
    """Diagonal weights p_n = f(n, b), nonincreasing in n, truncated once their sum reaches 1 - tol."""
    values, tail = bounded_f_profile(b, tol)
    return NumberDistribution(values, tail)


def thermal_distribution(nbar: float, tol: float = DEFAULT_TOL) -> NumberDistribution:
    """Thermal photon-number weights p_n = nbar^n / (1 + nbar)^(n+1).

    The geometric tail past the cutoff M is q^(M+1) with q = nbar/(1 + nbar),
    recorded exactly.
    """
    nbar = check_real(nbar, "nbar", 0.0)
    _check_tol(tol)
    if nbar == 0.0:
        return NumberDistribution(np.array([1.0]), 0.0)
    # log q = -log1p(1/nbar) with no cancellation for nbar >= 1 (the difference
    # log nbar - log1p(nbar) rounds to 0 from nbar ~ 2e14); below 1, where
    # 1/nbar can overflow, that difference is itself exact enough.
    log_q = -math.log1p(1.0 / nbar) if nbar >= 1.0 else math.log(nbar) - math.log1p(nbar)
    cut, tail = _geometric_cut(log_q, tol, MAX_CUTOFF, f"nbar={nbar}")
    n = np.arange(cut + 1, dtype=float)
    n *= log_q
    n -= math.log1p(nbar)
    return NumberDistribution(np.exp(n, out=n), tail)


def purify(d) -> SchmidtSpectrum:
    """Two-mode purification of a photon-number diagonal: c_n = sqrt(p_n).

    Accepts a NumberDistribution or a raw probability vector; for a raw
    vector any missing mass 1 - sum(p) is treated as the recorded tail.
    """
    if not isinstance(d, NumberDistribution):
        probs = NumberDistribution(d, 1.0).probs  # a tail of 1 checks all but the mass floor
        d = NumberDistribution(probs, max(0.0, 1.0 - float(probs.sum())))
    return SchmidtSpectrum(np.sqrt(d.probs), d.tail_bound)
