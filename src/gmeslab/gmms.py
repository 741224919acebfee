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

from .errors import ConfigError, DomainError, TruncationError
from .states import (
    DEFAULT_TOL,
    MAX_CUTOFF,
    SchmidtSpectrum,
    bounded_f_profile,
)

_NORM_SLACK = 1e-9


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
        if not np.all(np.isfinite(probs)) or np.any(probs < 0.0):
            raise DomainError("probabilities must be finite and nonnegative")
        if not (0.0 <= self.tail_bound <= 1.0):
            raise DomainError(f"tail_bound {self.tail_bound} outside [0, 1]")
        total = float(probs.sum())
        if total > 1.0 + _NORM_SLACK:
            raise DomainError(f"probabilities sum to {total} > 1")
        if total < 1.0 - self.tail_bound - _NORM_SLACK:
            raise DomainError(
                f"probabilities sum to {total} < 1 - tail_bound = {1.0 - self.tail_bound}"
            )

    def __len__(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True)
class GmmsDistribution(NumberDistribution):
    """Photon-number diagonal of the boundary-b Gaussian maximally mixed state."""

    b: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not math.isfinite(self.b) or self.b <= 0.0:
            raise DomainError(f"boundary radius b must be positive, got {self.b}")
        if np.any(np.diff(self.probs) > 0.0):
            raise DomainError("GMMS weights must be nonincreasing in n")


def gmms_distribution(b: float, tol: float = DEFAULT_TOL) -> GmmsDistribution:
    """Diagonal weights p_n = f(n, b), truncated once their sum reaches 1 - tol."""
    values, tail = bounded_f_profile(b, tol)
    return GmmsDistribution(values, tail, b)


def thermal_distribution(nbar: float, tol: float = DEFAULT_TOL) -> NumberDistribution:
    """Thermal photon-number weights p_n = nbar^n / (1 + nbar)^(n+1).

    The geometric tail past the cutoff M is q^(M+1) with q = nbar/(1 + nbar),
    recorded exactly.
    """
    if not math.isfinite(nbar) or nbar < 0.0:
        raise DomainError(f"nbar must be finite and nonnegative, got {nbar}")
    if not (0.0 < tol < 1.0):
        raise ConfigError(f"truncation tolerance must lie in (0, 1), got {tol}")
    if nbar == 0.0:
        return NumberDistribution(np.array([1.0]), 0.0)
    # log q = -log1p(1/nbar) with no cancellation for nbar >= 1 (the difference
    # log nbar - log1p(nbar) rounds to 0 from nbar ~ 2e14); below 1, where
    # 1/nbar can overflow, that difference is itself exact enough.
    log_q = -math.log1p(1.0 / nbar) if nbar >= 1.0 else math.log(nbar) - math.log1p(nbar)
    # a tail q^(cap+1) above tol puts the cutoff past the cap; checked first,
    # as log_q rounds to 0 for huge nbar
    if math.exp((MAX_CUTOFF + 1) * log_q) > tol:
        raise TruncationError(f"cutoff for nbar={nbar} at tol={tol} exceeds the hard cap {MAX_CUTOFF}")
    cut = max(0, math.ceil(math.log(tol) / log_q) - 1)
    while math.exp((cut + 1) * log_q) > tol:
        cut += 1
    n = np.arange(cut + 1, dtype=float)
    probs = np.exp(n * log_q - math.log1p(nbar))
    tail = math.exp((cut + 1) * log_q)
    return NumberDistribution(probs, tail)


def purify(d) -> SchmidtSpectrum:
    """Two-mode purification of a photon-number diagonal: c_n = sqrt(p_n).

    Accepts a NumberDistribution or a raw probability vector; for a raw
    vector any missing mass 1 - sum(p) is treated as the recorded tail.
    """
    if isinstance(d, NumberDistribution):
        probs, tail = d.probs, d.tail_bound
    else:
        probs = np.atleast_1d(np.asarray(d, dtype=float))
        if probs.ndim != 1 or probs.size == 0:
            raise DomainError("probability vector must be nonempty and 1-d")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0.0):
            raise DomainError("probabilities must be finite and nonnegative")
        total = float(probs.sum())
        if total > 1.0 + _NORM_SLACK:
            raise DomainError(f"probabilities sum to {total} > 1")
        tail = max(0.0, 1.0 - total)
    return SchmidtSpectrum(np.sqrt(probs), tail, "custom")
