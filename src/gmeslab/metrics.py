"""Fidelities, qutrit truncation, and the closed-form two-qutrit Bell maximum."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError, DomainError
from .states import SchmidtSpectrum

SQRT3 = math.sqrt(3.0)

# Applicability bound sqrt(18 + 9 sqrt(3))/2 ~ 2.898 on max |a_k|; any
# normalized state satisfies it, but it is still checked and reported.
COEFF_BOUND = math.sqrt(18.0 + 9.0 * SQRT3) / 2.0

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class QutritState:
    """Schmidt vector (a0, a1, a2) of a two-qutrit pure state, unit norm."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        object.__setattr__(self, "a", a)
        if a.shape != (3,):
            raise DomainError(f"qutrit coefficient vector must have shape (3,), got {a.shape}")
        if not np.all(np.isfinite(a)) or np.any(a < 0.0):
            raise DomainError("qutrit coefficients must be finite and nonnegative")
        norm_sq = float(np.dot(a, a))
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise DomainError(f"qutrit coefficients must be normalized, got |a|^2 = {norm_sq}")


class BellMax(NamedTuple):
    """Closed-form Bell maximum plus the applicability-condition report."""

    value: float
    applicable: bool


def fidelity(s: SchmidtSpectrum, t: SchmidtSpectrum) -> float:
    """Overlap sum_n c_n d_n of two Schmidt-diagonal pure states.

    The shorter spectrum is implicitly zero-padded.  The result lies in [0, 1].
    """
    m = min(s.coeffs.size, t.coeffs.size)
    value = float(np.dot(s.coeffs[:m], t.coeffs[:m]))
    return min(1.0, value)


def qutrit_truncate(s: SchmidtSpectrum) -> QutritState:
    """Project onto the first three Schmidt modes and renormalize."""
    a = np.zeros(3)
    m = min(3, s.coeffs.size)
    a[:m] = s.coeffs[:m]
    norm = math.sqrt(float(np.dot(a, a)))
    if norm == 0.0:
        raise DegenerateInputError("spectrum has no weight in the first three modes")
    return QutritState(a / norm)


def bell_form(a0, a1, a2):
    """B(a) = 4 a0 a1 + (4/sqrt(3)) (a0 a2 + a1 a2), for floats or arrays alike.

    B is homogeneous of degree 2, so B(a)/|a|^2 is the Bell maximum of the
    state along any nonnegative a, normalized or not.
    """
    return 4.0 * (a0 * a1) + (4.0 / SQRT3) * (a0 * a2 + a1 * a2)


def bell_max_analytic(q: QutritState) -> BellMax:
    """Maximal two-qutrit Bell value B(|a|) = 4|a0 a1| + (4/sqrt(3)) (|a0 a2| + |a1 a2|).

    Also reports whether max |a_k| satisfies the formula's applicability
    condition (it always does for normalized coefficients).
    """
    a0, a1, a2 = (abs(float(x)) for x in q.a)
    value = bell_form(a0, a1, a2)
    applicable = max(a0, a1, a2) <= COEFF_BOUND
    return BellMax(value, applicable)


def entanglement_entropy(s: SchmidtSpectrum) -> float:
    """Entanglement entropy -sum c_n^2 log2 c_n^2 of the truncated spectrum, in bits."""
    p = s.coeffs**2
    p = p[p > 0.0]
    return float(-np.dot(p, np.log2(p)))
