"""Schmidt spectra of the entangled-state families and their parameter solvers.

Families:

* two-mode squeezed vacuum with squeezing r: c_n = tanh(r)^n / cosh(r)
* Gaussian maximally entangled state with boundary radius b:
  c_n = sqrt(f(n, b)) where f(n, b) = P(X > n) / b^2 for X ~ Poisson(b^2)
* discrete N-dimensional maximally entangled state: c_n = 1/sqrt(N)

All spectra are truncated adaptively so the squared-norm mass beyond the
cutoff stays below a tolerance, and the discarded mass is recorded on the
result as ``tail_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import bisect
from scipy.special import gammaln

from .errors import ConfigError, DomainError, SolverError, TruncationError

# Hard cap on the adaptive Fock cutoff; spectra needing more terms raise.
MAX_CUTOFF = 200_000

# Default squared-norm mass allowed beyond the cutoff.
DEFAULT_TOL = 1e-12

# Slack for floating-point checks of sum(c_n^2) + tail_bound == 1.
_NORM_SLACK = 1e-9

_LABELS = ("tmsv", "gmes", "mes", "custom")


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Truncated Schmidt coefficients c_n of a two-mode state sum_n c_n |n>|n>.

    ``coeffs`` are real and nonnegative; ``tail_bound`` bounds the squared-norm
    mass beyond the stored cutoff, so 1 - tail_bound <= sum c_n^2 <= 1.
    ``label`` records which family produced the spectrum.
    """

    coeffs: np.ndarray
    tail_bound: float
    label: str = "custom"

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        object.__setattr__(self, "coeffs", coeffs)
        if self.label not in _LABELS:
            raise DomainError(f"unknown spectrum label {self.label!r}")
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise DomainError("coeffs must be a nonempty 1-d vector")
        if not np.all(np.isfinite(coeffs)) or np.any(coeffs < 0.0):
            raise DomainError("coeffs must be finite and nonnegative")
        if not (0.0 <= self.tail_bound <= 1.0):
            raise DomainError(f"tail_bound {self.tail_bound} outside [0, 1]")
        norm_sq = float(np.dot(coeffs, coeffs))
        if norm_sq > 1.0 + _NORM_SLACK:
            raise DomainError(f"squared norm {norm_sq} exceeds 1")
        if norm_sq < 1.0 - self.tail_bound - _NORM_SLACK:
            raise DomainError(
                f"squared norm {norm_sq} below 1 - tail_bound = {1.0 - self.tail_bound}"
            )

    def __len__(self) -> int:
        return int(self.coeffs.size)


def _check_tol(tol: float) -> None:
    if not (0.0 < tol < 1.0):
        raise ConfigError(f"truncation tolerance must lie in (0, 1), got {tol}")


# ---------------------------------------------------------------------------
# Poisson tail primitives.  f(n, b) = P(X > n)/b^2 with X ~ Poisson(b^2).
# Every tail is a sum of pmf terms from one kernel, _poisson_pmf, taken in log
# space so that no term underflows before it is negligible.  A tail that is at
# least ~0.4 (n below the mean) is 1 minus the terms up to n; a smaller one is
# the sum of the terms past n, so the far tail stays relative-accurate.
# ---------------------------------------------------------------------------


def _poisson_pmf(start: int, stop: int, lam: float) -> np.ndarray:
    """P(X = k) for k = start..stop-1 and X ~ Poisson(lam > 0)."""
    k = np.arange(start, stop, dtype=float)
    return np.exp(k * math.log(lam) - lam - gammaln(k + 1.0))


def _tail_window(lam: float) -> int:
    # Away from the mean the pmf falls at least like exp(-j^2 / (4 lam)) over
    # j steps while j < lam, and geometrically after that.  So the terms past
    # a window of 40 sqrt(lam) + 60 from the kept end sum to less than 1e-150
    # of the terms kept, for every lam, so well below 1e-18 of them.
    return int(40.0 * math.sqrt(lam) + 60.0)


def poisson_tail(n: int, lam: float) -> float:
    """P(X > n) for X ~ Poisson(lam), stable in both tails."""
    if not math.isfinite(lam) or lam < 0.0:
        raise DomainError(f"Poisson mean must be finite and nonnegative, got {lam}")
    if n < 0:
        return 1.0
    if lam == 0.0:
        return 0.0
    window = _tail_window(lam)
    if n + 1 <= lam:
        # CDF(n) is at most ~0.6 here, so the subtraction loses no precision.
        return 1.0 - min(1.0, float(_poisson_pmf(max(0, n + 1 - window), n + 1, lam).sum()))
    return float(_poisson_pmf(n + 1, n + 1 + window, lam)[::-1].sum())


def _poisson_tail_array(lam: float, nmax: int) -> np.ndarray:
    """P(X > n) for n = 0..nmax, relative-accurate in both tails."""
    pmf = _poisson_pmf(0, nmax + 1 + _tail_window(lam), lam)
    cdf = np.cumsum(pmf[: nmax + 1])
    lower = 1.0 - np.minimum(cdf, 1.0)
    # above[n] = sum_{k > n} pmf[k], summed from the small end.
    above = np.cumsum(pmf[:0:-1])[::-1][: nmax + 1]
    return np.where(cdf <= 0.5, lower, above)


def f_coefficient(n: int, b: float) -> float:
    """Photon-number weight f(n, b) of the boundary-b Gaussian mixed state.

    f(n, b) = (1 - sum_{k=0}^{n} b^{2k} e^{-b^2} / k!) / b^2, i.e. the Poisson
    upper tail P(X > n) at mean b^2, divided by b^2.
    """
    if int(n) != n or n < 0:
        raise DomainError(f"n must be a nonnegative integer, got {n}")
    if not math.isfinite(b) or b <= 0.0:
        raise DomainError(f"boundary radius b must be positive, got {b}")
    lam = b * b
    return poisson_tail(int(n), lam) / lam


def bounded_f_profile(b: float, tol: float = DEFAULT_TOL, cap: int = MAX_CUTOFF):
    """f(n, b) for n = 0..M with M the first index where the mass reaches 1 - tol.

    Returns ``(values, tail_bound)``.  Shared by the Schmidt-spectrum and the
    diagonal-distribution constructors so the two stay numerically identical.
    """
    if not math.isfinite(b) or b <= 0.0:
        raise DomainError(f"boundary radius b must be positive, got {b}")
    _check_tol(tol)
    lam = b * b
    nmax = int(lam + 12.0 * math.sqrt(lam) + 30.0)
    while True:
        nmax = min(nmax, cap)
        f = _poisson_tail_array(lam, nmax) / lam
        csum = np.cumsum(f)
        cut = int(np.searchsorted(csum, 1.0 - tol))
        if cut <= nmax:
            break
        if nmax == cap:
            raise TruncationError(
                f"cutoff for b={b} at tol={tol} exceeds the hard cap {cap}"
            )
        nmax *= 2
    values = f[: cut + 1].copy()
    tail = max(0.0, 1.0 - math.fsum(values.tolist()))
    return values, tail


def _log_tanh(r: float) -> float:
    # log(tanh r) via log1p keeps full relative accuracy for large r,
    # where 1 - tanh(r) ~ 2 exp(-2r) is tiny.
    e = math.exp(-2.0 * r)
    return math.log1p(-e) - math.log1p(e)


def _log_cosh(r: float) -> float:
    # Overflow-safe: cosh(r) itself overflows near r ~ 710.
    return r + math.log1p(math.exp(-2.0 * r)) - math.log(2.0)


def tmsv_spectrum(r: float, tol: float = DEFAULT_TOL, cap: int = MAX_CUTOFF) -> SchmidtSpectrum:
    """Schmidt spectrum of the two-mode squeezed vacuum, c_n = tanh(r)^n / cosh(r).

    The cutoff M is the smallest index whose exact geometric tail
    tanh(r)^(2(M+1)) is at most ``tol``; that tail is recorded exactly.
    """
    if not math.isfinite(r) or r < 0.0:
        raise DomainError(f"squeezing parameter r must be nonnegative, got {r}")
    _check_tol(tol)
    if r == 0.0:
        return SchmidtSpectrum(np.array([1.0]), 0.0, "tmsv")
    log_t = _log_tanh(r)
    cut = max(0, math.ceil(math.log(tol) / (2.0 * log_t)) - 1)
    while math.exp(2.0 * (cut + 1) * log_t) > tol:
        cut += 1
    if cut > cap:
        raise TruncationError(
            f"cutoff {cut} for r={r} at tol={tol} exceeds the hard cap {cap}"
        )
    n = np.arange(cut + 1, dtype=float)
    coeffs = np.exp(n * log_t - _log_cosh(r))
    tail = math.exp(2.0 * (cut + 1) * log_t)
    return SchmidtSpectrum(coeffs, tail, "tmsv")


def tmsv_partial_spectrum(r: float, n_terms: int) -> SchmidtSpectrum:
    """First ``n_terms`` two-mode-squeezed-vacuum coefficients with exact tail.

    For large r the full spectrum at the default tolerance would blow past the
    hard cutoff cap, but overlaps with an N-dimensional maximally entangled
    state only read the first N coefficients, so a partial spectrum with the
    exact geometric remainder tanh(r)^(2 n_terms) is all a sweep needs.
    """
    if not math.isfinite(r) or r < 0.0:
        raise DomainError(f"squeezing parameter r must be nonnegative, got {r}")
    if int(n_terms) != n_terms or n_terms < 1:
        raise DomainError(f"n_terms must be an integer >= 1, got {n_terms}")
    n_terms = int(n_terms)
    if r == 0.0:
        coeffs = np.zeros(n_terms)
        coeffs[0] = 1.0
        return SchmidtSpectrum(coeffs, 0.0, "tmsv")
    log_t = _log_tanh(r)
    n = np.arange(n_terms, dtype=float)
    coeffs = np.exp(n * log_t - _log_cosh(r))
    tail = math.exp(2.0 * n_terms * log_t)
    return SchmidtSpectrum(coeffs, tail, "tmsv")


def gmes_spectrum(b: float, tol: float = DEFAULT_TOL, cap: int = MAX_CUTOFF) -> SchmidtSpectrum:
    """Schmidt spectrum of the Gaussian maximally entangled state, c_n = sqrt(f(n, b))."""
    values, tail = bounded_f_profile(b, tol, cap)
    return SchmidtSpectrum(np.sqrt(values), tail, "gmes")


def mes_spectrum(N: int) -> SchmidtSpectrum:
    """Schmidt spectrum of the N-dimensional maximally entangled state."""
    if int(N) != N or N < 1:
        raise DomainError(f"N must be an integer >= 1, got {N}")
    N = int(N)
    return SchmidtSpectrum(np.full(N, 1.0 / math.sqrt(N)), 0.0, "mes")


def mean_photon(s: SchmidtSpectrum) -> float:
    """Per-mode mean photon number sum_n n c_n^2 of the truncated spectrum."""
    c = s.coeffs
    return float(np.dot(np.arange(c.size, dtype=float), c * c))


def solve_r_for_nbar(nbar: float) -> float:
    """Squeezing parameter with per-mode mean photon number ``nbar``: arcsinh(sqrt(nbar))."""
    if not math.isfinite(nbar) or nbar < 0.0:
        raise DomainError(f"nbar must be finite and nonnegative, got {nbar}")
    return math.asinh(math.sqrt(nbar))


def solve_b_for_nbar(nbar: float, tol: float = 1e-8) -> float:
    """Boundary radius whose spectrum has per-mode mean photon number ``nbar``.

    Uses bracketing plus bisection on the increasing map b -> mean_photon.
    The mean of the untruncated spectrum is exactly b^2/2 (with X ~ Poisson(b^2),
    sum_n n f(n, b) = sum_n n P(X > n) / b^2 = E[X(X-1)/2] / b^2 = b^2/2), so
    sqrt(2 nbar) seeds the bracket.
    """
    if not math.isfinite(nbar) or nbar <= 0.0:
        raise DomainError(f"nbar must be positive, got {nbar}")
    if not (0.0 < tol < 1.0):
        raise ConfigError(f"solver tolerance must lie in (0, 1), got {tol}")

    def mean_minus_target(b: float) -> float:
        return mean_photon(gmes_spectrum(b)) - nbar

    center = math.sqrt(2.0 * nbar)
    lo, hi = 0.5 * center, 2.0 * center
    for _ in range(60):
        if mean_minus_target(lo) < 0.0:
            break
        lo *= 0.5
    else:
        raise SolverError(f"could not bracket nbar={nbar} from below, tried b={lo}")
    for _ in range(60):
        if mean_minus_target(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise SolverError(f"could not bracket nbar={nbar} from above, tried b={hi}")

    b = float(bisect(mean_minus_target, lo, hi, xtol=1e-13 * max(1.0, center), maxiter=200))
    residual = mean_minus_target(b)
    if abs(residual) > tol:
        raise SolverError(
            f"bisection on bracket [{lo}, {hi}] left residual {residual} > tol {tol}"
        )
    return b
