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
import operator
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ConfigError, DomainError, SolverError, TruncationError, check_integer

# Hard cap on the adaptive Fock cutoff; spectra needing more terms raise.
MAX_CUTOFF = 200_000

# Default squared-norm mass allowed beyond the cutoff.
DEFAULT_TOL = 1e-12

# Slack of the floating-point mass checks in _check_mass, mass + tail == 1.
_NORM_SLACK = 1e-9

_LABELS = ("tmsv", "gmes", "mes", "custom")


def _check_mass(values: np.ndarray, mass: float, tail: float) -> None:
    """Truncation contract of every stored state: finite values, tail in [0, 1], 1 - tail <= mass <= 1."""
    if not np.all(np.isfinite(values)):
        raise DomainError("values must be finite")
    if not (0.0 <= tail <= 1.0):
        raise DomainError(f"tail bound {tail} outside [0, 1]")
    if mass > 1.0 + _NORM_SLACK:
        raise DomainError(f"mass {mass} exceeds 1")
    if mass < 1.0 - tail - _NORM_SLACK:
        raise DomainError(f"mass {mass} below 1 - tail bound = {1.0 - tail}")


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
        if np.any(coeffs < 0.0):
            raise DomainError("coeffs must be nonnegative")
        _check_mass(coeffs, float(np.dot(coeffs, coeffs)), self.tail_bound)

    def __len__(self) -> int:
        return int(self.coeffs.size)


def _check_tol(tol: float) -> None:
    if not (0.0 < tol < 1.0):
        raise ConfigError(f"truncation tolerance must lie in (0, 1), got {tol}")


def _check_cap(cap: int) -> None:
    # a cap past MAX_CUTOFF would let a cutoff search or its arrays run unbounded,
    # and a non-integer one would reach numpy as a slice bound or array length
    try:
        operator.index(cap)
    except TypeError:
        raise ConfigError(f"cutoff cap must be an integer, got {cap!r}") from None
    if not (0 <= cap <= MAX_CUTOFF):
        raise ConfigError(f"cutoff cap must lie in [0, {MAX_CUTOFF}], got {cap}")


# ---------------------------------------------------------------------------
# Poisson tail primitives.  f(n, b) = P(X > n)/b^2 with X ~ Poisson(b^2).
# Every tail is a sum of pmf terms from one kernel, _pmf_terms, taken in log
# space so that no term underflows before it is negligible, and run only on
# the support _pmf_support, outside which it rounds to 0.0.  A tail that is at
# least ~0.4 (n below the mean) is 1 minus the terms up to n; a smaller one is
# the sum of the terms past n, so the far tail stays relative-accurate.
# ---------------------------------------------------------------------------


_SQRT_1500 = math.sqrt(1500.0)

# log k! = gammaln(k + 1) for k = 0..4095, read-only: 32 KB that cover the whole
# pmf support of every lam <= 1600.  A larger k goes through gammaln itself.
_LOG_FACTORIAL = gammaln(np.arange(1.0, 4097.0))
_LOG_FACTORIAL.setflags(write=False)


def _pmf_support(lam: float) -> tuple[int, int]:
    """[lo, hi): the k outside it have exp(k log lam - lam - gammaln(k+1)) == 0.0.

    By the Chernoff bound log P(X = k) <= -lam h(k/lam), h(x) = x log x - x + 1,
    with h(x) >= (1 - x)^2/2 below the mean and h(x) >= (x - 1)^2/(2x) above it,
    every log-pmf outside [lo, hi) is below -750.  exp rounds anything below
    -745.13 to 0.0, and the log-pmf itself rounds by about lam log(lam) 2^-52,
    ~1e-9 at lam = 2e5, so the margin of ~5 holds for every lam below ~1e13.
    """
    spread = _SQRT_1500 * math.sqrt(lam)  # sqrt(1500 lam), finite for every finite lam
    lo = max(0, math.floor(lam - spread))
    hi = math.ceil(lam + 750.0 + math.hypot(750.0, spread)) + 1
    return lo, hi


def _pmf_terms(start: int, stop: int, lam: float) -> np.ndarray:
    """The kernel exp(k log lam - lam - gammaln(k+1)) for k = start..stop-1."""
    k = np.arange(start, stop, dtype=float)
    log_factorial = _LOG_FACTORIAL[start:stop] if stop <= _LOG_FACTORIAL.size else gammaln(k + 1.0)
    k *= math.log(lam)
    k -= lam
    k -= log_factorial
    return np.exp(k, out=k)


def _tail_window(lam: float) -> int:
    # Away from the mean the pmf falls at least like exp(-j^2 / (4 lam)) over
    # j steps while j < lam, and geometrically after that.  So the terms past
    # a window of 40 sqrt(lam) + 60 from the kept end sum to less than 1e-150
    # of the terms kept, for every lam, so well below 1e-18 of them.
    return int(40.0 * math.sqrt(lam) + 60.0)


def poisson_tail(n: int, lam: float) -> float:
    """P(X > n) for X ~ Poisson(lam), stable in both tails; a real n counts as floor(n), +-inf included."""
    if not math.isfinite(lam) or lam < 0.0:
        raise DomainError(f"Poisson mean must be finite and nonnegative, got {lam}")
    if n != n:
        raise DomainError("n must be a number, got nan")
    if n < 0:
        return 1.0
    if lam == 0.0 or n == math.inf:
        return 0.0
    # P(X > n) = P(X > floor(n)) for a real n >= 0
    return float(_poisson_tail_array(lam, int(n), int(n))[0])


def _poisson_tail_array(lam: float, nmax: int, nmin: int = 0) -> np.ndarray:
    """P(X > n) for n = nmin..nmax and X ~ Poisson(lam > 0), relative-accurate in both tails.

    Below the mean (n + 1 <= lam) the tail, at least ~0.4 there, is 1 minus the
    terms from the support's low end lo up to n; from the mean on it is the sum
    of the terms past n, from the far end min(hi, nmax + 1 + window) down.  Both
    sums are sequential, so the value at n does not depend on nmin, and on nmax
    only through terms past the window, below 1e-150 of the sum.  Below lo the
    tail is 1.0, and from the last term on 0.0.
    """
    lo, hi = _pmf_support(lam)
    end = min(hi, nmax + 1 + _tail_window(lam))
    mid = min(max(math.floor(lam), nmin), nmax + 1)  # the first n of the upper sum
    top = min(end - 1, nmax + 1)  # from n = end - 1 on no term is left above n
    first = max(lo, nmin)
    tail = np.zeros(nmax + 1 - nmin)
    tail[: first - nmin] = 1.0
    if first < mid:
        cdf = np.cumsum(_pmf_terms(lo, mid, lam))[first - lo :]
        tail[first - nmin : mid - nmin] = 1.0 - np.minimum(cdf, 1.0)
    if mid < top:
        above = np.cumsum(_pmf_terms(mid + 1, end, lam)[::-1])[::-1]
        tail[mid - nmin : top - nmin] = above[: top - mid]
    return tail


def _poisson_mean(b: float) -> float:
    # b^2, which rounds to 0 below b = 2^-537.5 ~ 1.6e-162 and overflows above ~1.3e154
    if not (b > 0.0 and 0.0 < b * b < math.inf):
        raise DomainError(f"boundary radius b needs 1.6e-162 < b < 1.3e154 (b^2 a positive float), got {b}")
    return b * b


def f_coefficient(n: int, b: float) -> float:
    """Photon-number weight f(n, b) of the boundary-b Gaussian mixed state.

    f(n, b) = (1 - sum_{k=0}^{n} b^{2k} e^{-b^2} / k!) / b^2, i.e. the Poisson
    upper tail P(X > n) at mean b^2, divided by b^2.
    """
    n = check_integer(n, "n", 0)
    lam = _poisson_mean(b)
    return poisson_tail(n, lam) / lam


def _fsum_repeated_head(values: np.ndarray, head: int) -> float:
    """math.fsum(values) where the first ``head`` < 2^26 values equal values[0].

    The head enters as head*v_hi + head*v_lo from a Veltkamp split of
    v = values[0] into two halves of at most 26 bits.  Both products are exact,
    so the correctly rounded sum is the same, from len(values) - head + 2 terms.
    """
    terms = values[head:].tolist()
    if head:
        v = float(values[0])
        scaled = 134217729.0 * v  # (2^27 + 1) v
        v_hi = scaled - (scaled - v)
        terms += (head * v_hi, head * (v - v_hi))
    return math.fsum(terms)


def bounded_f_profile(b: float, tol: float = DEFAULT_TOL, cap: int = MAX_CUTOFF):
    """f(n, b) for n = 0..M with M the first index where the mass reaches 1 - tol.

    Returns ``(values, tail_bound)``, with ``values`` a fresh buffer the caller
    may overwrite.  Shared by the Schmidt-spectrum and the diagonal-distribution
    constructors so the two stay numerically identical.
    """
    lam = _poisson_mean(b)
    _check_tol(tol)
    _check_cap(cap)
    nmax = min(int(lam + 12.0 * math.sqrt(lam) + 30.0), cap)
    # each f(n, b) is below 1/b^2, so no cutoff within the cap exists when
    # (cap + 1)/b^2 < 1 - tol; that is known before any array is built
    if (cap + 1) / lam >= 1.0 - tol:
        # one pass: the f(n, b) past lam + 12 sqrt(lam) + 30 sum to at most 7.4e-37,
        # below half an ulp of csum near 1 - tol, so no longer profile moves the cut
        f = _poisson_tail_array(lam, nmax)
        f /= lam
        csum = np.cumsum(f)
        cut = int(np.searchsorted(csum, 1.0 - tol))
        if cut <= nmax:
            del csum
            values = f[: cut + 1]
            # the f(n, b) below the pmf support all equal 1/b^2
            head = min(_pmf_support(lam)[0], cut + 1, 2**26)
            return values, max(0.0, 1.0 - _fsum_repeated_head(values, head))
        if nmax < cap:
            raise TruncationError(f"no cutoff for b={b} at tol={tol}: f(n, b) summed up to n = {nmax} is "
                                  f"{float(csum[-1])!r} < 1 - tol, short by rounding, as the rest is below 7.4e-37")
    raise TruncationError(f"cutoff for b={b} at tol={tol} exceeds the hard cap {cap}")


def _geometric_cut(log_q: float, tol: float, cap: int, what: str) -> tuple[int, float]:
    """(M, q^(M+1)) for the least M <= cap with geometric tail q^(M+1) <= tol, q = e^log_q."""
    # checked first, as log_q = 2 log tanh r rounds to 0 for r > 372 and the seed
    # would divide by it; ``what`` names the state's parameter in the error
    if math.exp((cap + 1) * log_q) > tol:
        raise TruncationError(f"cutoff for {what} at tol={tol} exceeds the hard cap {cap}")
    cut = max(0, math.ceil(math.log(tol) / log_q) - 1)
    while math.exp((cut + 1) * log_q) > tol:
        cut += 1
    return cut, math.exp((cut + 1) * log_q)


def _log_tanh(r: float) -> float:
    # log(tanh r) = log(1 - e) - log1p(e) with e = exp(-2r).  log1p(-e) keeps
    # full relative accuracy for large r, where 1 - tanh(r) ~ 2e is tiny;
    # for small r, -expm1(-2r) gives 1 - e without cancellation.
    e = math.exp(-2.0 * r)
    return (math.log1p(-e) if e < 0.5 else math.log(-math.expm1(-2.0 * r))) - math.log1p(e)


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
    _check_cap(cap)
    if r == 0.0:
        return SchmidtSpectrum(np.array([1.0]), 0.0, "tmsv")
    log_t = _log_tanh(r)
    cut, tail = _geometric_cut(2.0 * log_t, tol, cap, f"r={r}")
    n = np.arange(cut + 1, dtype=float)
    coeffs = np.exp(n * log_t - _log_cosh(r))
    return SchmidtSpectrum(coeffs, tail, "tmsv")


def gmes_spectrum(b: float, tol: float = DEFAULT_TOL, cap: int = MAX_CUTOFF) -> SchmidtSpectrum:
    """Schmidt spectrum of the Gaussian maximally entangled state, c_n = sqrt(f(n, b))."""
    values, tail = bounded_f_profile(b, tol, cap)
    return SchmidtSpectrum(np.sqrt(values, out=values), tail, "gmes")


def mes_spectrum(N: int) -> SchmidtSpectrum:
    """Schmidt spectrum of the N-dimensional maximally entangled state."""
    N = check_integer(N, "N", 1)
    return SchmidtSpectrum(np.full(N, 1.0 / math.sqrt(N)), 0.0, "mes")


def mes_overlaps(family: str, value: float, dims, cap: int = MAX_CUTOFF) -> list:
    """Overlap sum_{n<N} c_n / sqrt(N), clamped to 1, of MES_N and an untruncated state.

    One value per N in ``dims``, exact for every N (a truncated spectrum would
    lose up to sqrt(tol) of it), for ``family``:

    * "tmsv", value r: (1 - t^N) / ((1 - t) cosh(r) sqrt(N)) with t = tanh(r);
    * "gmes", value b: the prefix sum of sqrt(f(n, b)) over n < N, cut at
      n = b^2 + 40 b + 60, past which the terms add under 1e-75 of it
      (``TruncationError`` if that n exceeds ``cap``, whatever N is);
    * "mes", value M: min(N, M) / sqrt(N M).
    """
    _check_cap(cap)
    # every dimension must convert to a float, as sqrt(N) does
    sizes = [*dims, value] if family == "mes" else list(dims)
    if not all(1 <= N <= sys.float_info.max and int(N) == N for N in sizes):
        raise DomainError(f"dimensions must be integers from 1 to {sys.float_info.max:.4g}, got {sizes}")
    dims = [int(dim) for dim in dims]
    if family == "mes":
        # min(N, M) / sqrt(N M) as sqrt(min/max): N M may pass the float range
        overlaps = [math.sqrt(min(dim, value) / max(dim, value)) for dim in dims]
    elif family == "tmsv":
        if not math.isfinite(value) or value < 0.0:
            raise DomainError(f"squeezing parameter r must be nonnegative, got {value}")
        log_t = _log_tanh(value) if value > 0.0 else -math.inf
        scale = math.exp(-_log_cosh(value))
        # (1 - t^N) / (1 - t) through expm1 stays accurate as t -> 1; a t that
        # rounds to 1 leaves N equal terms
        sums = [math.expm1(dim * log_t) / math.expm1(log_t) if log_t < 0.0 else dim for dim in dims]
        overlaps = [total * scale / math.sqrt(dim) for total, dim in zip(sums, dims)]
    elif family == "gmes":
        lam = _poisson_mean(value)
        nmax = int(lam + _tail_window(lam))
        if nmax > cap:
            raise TruncationError(f"overlap sum for b={value} needs {nmax} terms, past the hard cap {cap}")
        # an overlap with MES_N reads no tail past n = N - 1
        csum = np.cumsum(np.sqrt(_poisson_tail_array(lam, min(nmax, max(dims, default=1) - 1)) / lam))
        overlaps = [float(csum[min(dim, csum.size) - 1]) / math.sqrt(dim) for dim in dims]
    else:
        raise DomainError(f"unknown family {family!r}, expected tmsv, gmes or mes")
    return [min(1.0, overlap) for overlap in overlaps]


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
    # imported here: no subcommand solves for b, so scipy.optimize stays off the import path
    from scipy.optimize import bisect

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
