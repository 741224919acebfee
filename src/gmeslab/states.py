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
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, SolverError, TruncationError, check_integer, check_real

# Hard cap on the adaptive Fock cutoff; spectra needing more terms raise.
MAX_CUTOFF = 200_000

# Default squared-norm mass allowed beyond the cutoff.
DEFAULT_TOL = 1e-12

# Slack of the floating-point mass checks in _check_mass, mass + tail == 1.
_NORM_SLACK = 1e-9


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
    """

    coeffs: np.ndarray
    tail_bound: float

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        object.__setattr__(self, "coeffs", coeffs)
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
# the sum of the terms past n, so the far tail stays relative-accurate.  The
# Kerr report takes every pmf term relative-accurate, from _pmf_saddle.
# ---------------------------------------------------------------------------


_SQRT_1500 = math.sqrt(1500.0)

# log k! for k = 0..4095, read-only: 32 KB that cover the whole pmf support of
# every lam <= 1600.  The file holds scipy.special.gammaln(arange(1, 4097)) bit
# for bit (math.lgamma is 1 ulp off in about half the entries), so no default
# call imports scipy.  A larger k goes through gammaln itself.
_LOG_FACTORIAL = np.load(Path(__file__).with_name("_log_factorial.npy"), allow_pickle=False)
_LOG_FACTORIAL.setflags(write=False)


def gammaln(x):
    """scipy.special.gammaln, imported on first use: only a pmf range past the log k! table calls it."""
    import scipy.special

    return scipy.special.gammaln(x)


def _pmf_support(lam: float) -> tuple[int, int]:
    """[lo, hi): the k outside it have exp(k log lam - lam - gammaln(k+1)) == 0.0.

    Every log-pmf outside [lo, hi) is below -750.  Below the mean the Chernoff
    bound log P(X = k) <= -lam h(k/lam), h(x) = x log x - x + 1 >= (1 - x)^2/2,
    gives that for k < lam - sqrt(1500 lam).  Above it log k! >= k log k - k +
    log(2 pi k)/2 gives log P(X = k) <= -g(k), g(k) = lam h(k/lam) + log(2 pi k)/2,
    increasing and convex for k > lam, and hi is the first k > lam with
    g(k) >= 750: Newton steps from Bernstein's h(1 + u) >= u^2/(2 + 2u/3), whose
    bound lam + 250 + sqrt(250^2 + 1500 lam) lies above it, come down to it.
    exp rounds anything below -745.13 to 0.0, and the log-pmf itself rounds by
    about lam log(lam) 2^-52, ~1e-9 at lam = 2e5, so the margin of ~5 holds for
    every lam below ~1e13; past that Bernstein's bound is kept.  Both ends are
    integers offset from floor(lam), so that they stay apart at every mean.
    """
    spread = _SQRT_1500 * math.sqrt(lam)  # sqrt(1500 lam), finite for every finite lam
    mean = math.floor(lam)
    lo = max(0, mean - math.ceil(spread))
    hi = mean + math.ceil(250.0 + math.hypot(250.0, spread)) + 1
    if lam < 1e13:
        k, log_lam = float(hi), math.log(lam)  # log k - log lam, as k/lam overflows for lam < 1e-306
        while True:
            r = math.log(k) - log_lam
            step = (k * r - k + lam + 0.5 * math.log(2.0 * math.pi * k) - 750.0) / (r + 0.5 / k)
            k -= step
            if step < 0.5:
                break
        hi = min(hi, math.ceil(k))
    return lo, hi


def _pmf_terms(start: int, stop: int, lam) -> np.ndarray:
    """The kernel exp(k log lam - lam - gammaln(k+1)) for k = start..stop-1; a column of means gives a row each."""
    k = np.arange(start, stop, dtype=float)
    log_factorial = _LOG_FACTORIAL[start:stop] if stop <= _LOG_FACTORIAL.size else gammaln(k + 1.0)
    if isinstance(lam, np.ndarray):  # math.log for every row, so that each row is its mean's own call bit for bit
        k = k * np.array([math.log(x) for x in lam.flat])[:, None]
    else:
        k *= math.log(lam)
    k -= lam
    k -= log_factorial
    return np.exp(k, out=k)


def _pmf_saddle(start: int, stop: int, lam: float) -> np.ndarray:
    """P(X = k) for k = start..stop-1, X ~ Poisson(lam > 0), within ~5e-13 relative down to 1e-300.

    Far past the mean k log lam and log k! cancel (from ~2e4 to ~-500 at lam ~ 1400), so _pmf_terms keeps
    only ~1e-11 there.  From k = 16 on this is Loader's saddle-point form exp(-bd0 - stirlerr(k)) / sqrt(2 pi k),
    bd0 = k log(k/lam) + lam - k, stirlerr(k) = log k! - (k + 1/2) log k + k - log(2 pi)/2 from its asymptotic
    series (next term below 1.1e-16).  For lam/2 < k < 2 lam, where k log(k/lam) cancels against k - lam, bd0 is
    v (k - lam + 2 k v^2 sum_j v^(2j)/(2j + 3)) with v = (k - lam)/(k + lam): |v| < 1/3, so j <= 16 reach 1e-17.
    """
    k = np.arange(max(start, 16), stop, dtype=float)
    r = 1.0 / (k * k)
    stirlerr = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / k
    diff = k - lam
    # k/lam overflows only for lam < 1e-305, where every term is 0.0 either way
    with np.errstate(over="ignore"):
        bd0 = k * np.log(k / lam) - diff
    near = (k < 2.0 * lam) & (2.0 * k > lam)
    v = diff[near] / (k[near] + lam)
    bd0[near] = v * (diff[near] + 2.0 * k[near] * v * v * np.polyval(1.0 / np.arange(35.0, 2.0, -2.0), v * v))
    terms = np.exp(-bd0 - stirlerr) / np.sqrt(2.0 * math.pi * k)
    return np.concatenate((_pmf_terms(start, min(stop, 16), lam), terms))


def _tail_window(lam: float) -> int:
    # Away from the mean the pmf falls at least like exp(-j^2 / (4 lam)) over
    # j steps while j < lam, and geometrically after that.  So the terms past
    # a window of 40 sqrt(lam) + 60 from the kept end sum to less than 1e-150
    # of the terms kept, for every lam, so well below 1e-18 of them.
    return int(40.0 * math.sqrt(lam) + 60.0)


def poisson_tail(n: int, lam: float) -> float:
    """P(X > n) for X ~ Poisson(lam), stable in both tails; a real n counts as floor(n), +-inf included."""
    lam = check_real(lam, "Poisson mean", 0.0)
    if n != n:
        raise DomainError("n must be a number, got nan")
    if n < 0:
        return 1.0
    if lam == 0.0 or n == math.inf:
        return 0.0
    # P(X > n) = P(X > floor(n)) for a real n >= 0
    return float(_poisson_tail_array(lam, int(n), int(n))[0])


def _poisson_tail_array(lam, nmax: int, nmin: int = 0) -> np.ndarray:
    """P(X > n) for n = nmin..nmax and X ~ Poisson(lam > 0), relative-accurate in both tails.

    Below the mean (n + 1 <= lam) the tail, at least ~0.4 there, is 1 minus the
    terms from the support's low end lo up to n; from the mean on it is the sum
    of the terms past n, from the far end min(hi, nmax + 1 + window) down.  Both
    sums are sequential, so the value at n does not depend on nmin, and on nmax
    only through terms past the window, below 1e-150 of the sum.  Below lo the
    tail is 1.0, and from the last term on 0.0.  ``TruncationError`` if a sum
    needs more than MAX_CUTOFF terms, before any of them is evaluated.

    A 1-d numpy array of means gives one row per mean, each its own call's
    array bit for bit.  The rows share one block of terms per sum, over the
    union of their ranges: from the least mean's lo, and up to the window end
    of the largest mean whose row reaches the upper sum.  That is exact, as a
    row's terms outside its own [lo, hi) are 0.0, and a sequential sum that
    starts with exact zeros is the sum without them.  So a row needs a mask
    only where its bounds differ from the block's: past its own window end,
    and at its split n = floor(lam) between the two sums.
    """
    rows = isinstance(lam, np.ndarray)
    if rows:
        lam = lam.astype(float)[:, None]
        mid = np.clip(np.floor(lam), nmin, nmax + 1)  # clipped before the casts: floor(lam) may pass int64
        split, stop = int(mid.min()), int(mid.max())
        low = float(lam.min())
        high = float(lam.max(initial=low, where=lam < nmax + 1))
        lo, hi = _pmf_support(low)[0], _pmf_support(high)[1]
    else:
        split = stop = min(max(math.floor(lam), nmin), nmax + 1)  # the first n of the upper sum
        low = high = lam
        lo, hi = _pmf_support(lam)
    end = min(hi, nmax + 1 + _tail_window(high))
    top = min(end - 1, nmax + 1)  # from n = end - 1 on no term is left above n
    first = max(lo, nmin)
    band = max(stop - lo if first < stop else 0, end - split - 1 if split < top else 0)
    if band > MAX_CUTOFF:
        raise TruncationError(f"P(X > n) at Poisson means up to {np.max(lam):.6g} sums {band} pmf terms, "
                              f"past the hard cap {MAX_CUTOFF}")
    tail = np.zeros((lam.size, nmax + 1 - nmin) if rows else nmax + 1 - nmin)
    tail[..., : first - nmin] = 1.0
    if first < stop:
        cdf = np.cumsum(_pmf_terms(lo, stop, lam), axis=-1)[..., first - lo :]
        below = 1.0 - np.minimum(cdf, 1.0)
        if split < stop:  # a row's lower sum ends at its own split
            below *= np.arange(first, stop) < mid
        tail[..., first - nmin : stop - nmin] = below
    if split < top:
        terms = _pmf_terms(split + 1, end, lam)
        if nmax + 1 + _tail_window(low) < end:  # a row's window may end inside the block: _tail_window per row
            terms *= np.arange(split + 1, end) < nmax + 1 + np.floor(40.0 * np.sqrt(lam) + 60.0)
        above = np.cumsum(terms[..., ::-1], axis=-1)[..., ::-1][..., : top - split]
        if split < stop:  # and is read from its own split on; below it += adds 0.0 to the lower sum
            above *= np.arange(split, top) >= mid
        tail[..., split - nmin : top - nmin] += above
    return tail


def _poisson_mean(b: float) -> float:
    # b^2, which rounds to 0 below b = 2^-537.5 ~ 1.6e-162 and overflows above ~1.3e154
    b = check_real(b, "boundary radius b", 0.0, strict=True)
    if not 0.0 < b * b < math.inf:
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


def _log_tanh(r):
    # log(tanh r) = log(1 - e) - log1p(e) with e = exp(-2r).  log1p(-e) keeps
    # full relative accuracy for large r, where 1 - tanh(r) ~ 2e is tiny;
    # for small r, -expm1(-2r) gives 1 - e without cancellation.  r = 0 gives
    # -inf; log1p(-1) for r below ~1e-16 is a branch np.where drops.  -2r
    # overflows to -inf past r ~ 9e307 in an array, and e is then 0.0 as it should be.
    with np.errstate(divide="ignore", over="ignore"):
        e = np.exp(-2.0 * r)
        return np.where(e < 0.5, np.log1p(-e), np.log(-np.expm1(-2.0 * r))) - np.log1p(e)


def _log_cosh(r):
    # Overflow-safe: cosh(r) itself overflows near r ~ 710, and -2r past r ~ 9e307.
    with np.errstate(over="ignore"):
        return r + np.log1p(np.exp(-2.0 * r)) - math.log(2.0)


def tmsv_spectrum(r: float, tol: float = DEFAULT_TOL, cap: int = MAX_CUTOFF) -> SchmidtSpectrum:
    """Schmidt spectrum of the two-mode squeezed vacuum, c_n = tanh(r)^n / cosh(r).

    The cutoff M is the smallest index whose exact geometric tail
    tanh(r)^(2(M+1)) is at most ``tol``; that tail is recorded exactly.
    """
    r = check_real(r, "squeezing parameter r", 0.0)
    _check_tol(tol)
    _check_cap(cap)
    if r == 0.0:
        return SchmidtSpectrum(np.array([1.0]), 0.0)
    log_t = _log_tanh(r)
    cut, tail = _geometric_cut(2.0 * log_t, tol, cap, f"r={r}")
    n = np.arange(cut + 1, dtype=float)
    coeffs = np.exp(n * log_t - _log_cosh(r))
    return SchmidtSpectrum(coeffs, tail)


def gmes_spectrum(b: float, tol: float = DEFAULT_TOL, cap: int = MAX_CUTOFF) -> SchmidtSpectrum:
    """Schmidt spectrum of the Gaussian maximally entangled state, c_n = sqrt(f(n, b))."""
    values, tail = bounded_f_profile(b, tol, cap)
    return SchmidtSpectrum(np.sqrt(values, out=values), tail)


def mes_spectrum(N: int) -> SchmidtSpectrum:
    """Schmidt spectrum of the N-dimensional maximally entangled state."""
    N = check_integer(N, "N", 1)
    if N > MAX_CUTOFF:
        # refused before any array; N is not shown, as str() of an int past 4300 digits raises
        raise TruncationError(f"mes dimension N exceeds the hard cap {MAX_CUTOFF}")
    return SchmidtSpectrum(np.full(N, 1.0 / math.sqrt(N)), 0.0)


def mes_overlaps(family: str, value, dims, cap: int = MAX_CUTOFF) -> list:
    """Overlap sum_{n<N} c_n / sqrt(N), clamped to 1, of MES_N and an untruncated state.

    One value per N in ``dims``, exact for every N (a truncated spectrum would
    lose up to sqrt(tol) of it), for ``family``:

    * "tmsv", value r: (1 - t^N) / ((1 - t) cosh(r) sqrt(N)) with t = tanh(r);
    * "gmes", value b: the prefix sum of sqrt(f(n, b)) over n < N, cut at
      n = b^2 + 40 b + 60, past which the terms add under 1e-75 of it
      (``TruncationError`` if that n exceeds ``cap``, whatever N is);
    * "mes", value M: min(N, M) / sqrt(N M).

    A 1-d sequence of r or b gives one such list per value, as its own call would.
    """
    _check_cap(cap)
    scalar = np.ndim(value) == 0
    if not scalar and (family == "mes" or np.ndim(value) > 1):
        raise DomainError(f"value must be a number, or for tmsv and gmes a 1-d sequence, got {value!r}")
    # every dimension must convert to a float, as sqrt(N) does
    sizes = [*dims, value] if family == "mes" else list(dims)
    if not all(1 <= N <= sys.float_info.max and int(N) == N for N in sizes):
        raise DomainError(f"dimensions must be integers from 1 to {sys.float_info.max:.4g}, got {sizes}")
    dims = [int(dim) for dim in dims]
    n = np.array(dims, dtype=float)
    if family == "mes":
        # min(N, M) / sqrt(N M) as sqrt(min/max): N M may pass the float range
        overlaps = [[math.sqrt(min(dim, value) / max(dim, value)) for dim in dims]]
    elif family == "tmsv":
        r = np.array([check_real(x, "squeezing parameter r", 0.0) for x in np.atleast_1d(value).tolist()])
        log_t = _log_tanh(r)[:, None]
        # (1 - t^N) / (1 - t) through expm1 stays accurate as t -> 1; a t that
        # rounds to 1 leaves N equal terms, where np.where drops 0/0
        with np.errstate(invalid="ignore"):
            sums = np.where(log_t < 0.0, np.expm1(n * log_t) / np.expm1(log_t), n)
        overlaps = sums * np.exp(-_log_cosh(r))[:, None] / np.sqrt(n)
    elif family == "gmes":
        radii = np.atleast_1d(value).tolist()  # each b is checked as a float by _poisson_mean
        overlaps = np.empty((len(radii), n.size))
        for row, b in zip(overlaps, radii):
            lam = _poisson_mean(b)
            nmax = int(lam + _tail_window(lam))
            if nmax > cap:
                raise TruncationError(f"overlap sum for b={b} needs {nmax} terms, past the hard cap {cap}")
            # an overlap with MES_N reads no tail past n = N - 1
            csum = np.cumsum(np.sqrt(_poisson_tail_array(lam, min(nmax, max(dims, default=1) - 1)) / lam))
            row[:] = csum[np.minimum(n, csum.size).astype(int) - 1]
        overlaps /= np.sqrt(n)
    else:
        raise DomainError(f"unknown family {family!r}, expected tmsv, gmes or mes")
    overlaps = np.minimum(overlaps, 1.0).tolist()
    return overlaps[0] if scalar else overlaps


def mean_photon(s: SchmidtSpectrum) -> float:
    """Per-mode mean photon number sum_n n c_n^2 of the truncated spectrum."""
    c = s.coeffs
    return float(np.dot(np.arange(c.size, dtype=float), c * c))


def solve_r_for_nbar(nbar: float) -> float:
    """Squeezing parameter with per-mode mean photon number ``nbar``: arcsinh(sqrt(nbar))."""
    nbar = check_real(nbar, "nbar", 0.0)
    return math.asinh(math.sqrt(nbar))


def solve_b_for_nbar(nbar: float) -> float:
    """Boundary radius whose spectrum has per-mode mean photon number ``nbar``.

    The mean of the untruncated spectrum is exactly b^2/2 (with X ~ Poisson(b^2),
    sum_n n f(n, b) = sum_n n P(X > n) / b^2 = E[X(X-1)/2] / b^2 = b^2/2), so
    b = sqrt(2 nbar), plus one Newton step on that map that adds back the mean
    the tol cutoff drops.  As 0 <= mean <= nbar up to rounding, the result lies
    in [sqrt(2 nbar), 1.5 sqrt(2 nbar)]; the upper end is reached below
    nbar ~ 1e-12, where the spectrum holds c_0 alone and its mean is 0.  A
    result whose mean misses ``nbar`` by more than 1e-8 raises ``SolverError``.
    That 1e-8 contract is tested up to nbar = 1000 and not guaranteed past
    about 5000: the mean the cutoff drops jumps with the cut index, so it
    raises at nbar = 12000, 15000 and 20000 and returns at 10000 and 18000.
    """
    nbar = check_real(nbar, "nbar", 0.0, strict=True)
    b = math.sqrt(2.0 * nbar)
    b += (nbar - mean_photon(gmes_spectrum(b))) / b
    residual = mean_photon(gmes_spectrum(b)) - nbar
    if abs(residual) > 1e-8:
        raise SolverError(f"b={b} leaves the mean photon number {residual} from nbar={nbar}, past 1e-8")
    return b
