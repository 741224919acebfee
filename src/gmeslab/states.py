"""Schmidt spectra of the entangled-state families and their parameter solvers.

Families:

* two-mode squeezed vacuum with squeezing r: c_n = tanh(r)^n / cosh(r)
* Gaussian maximally entangled state with boundary radius b:
  c_n = sqrt(f(n, b)) where f(n, b) = P(X > n) / b^2 for X ~ Poisson(b^2)
* discrete N-dimensional maximally entangled state: c_n = 1/sqrt(N)

All spectra are truncated adaptively so the squared-norm mass beyond the
cutoff stays below a tolerance, and the discarded mass is recorded on the
result as ``tail_bound``.  For GMES the cut is where a forward running sum
reaches 1 - tol, and ``tail_bound`` is 1 minus a correctly rounded sum, so
the recorded tail can pass tol by rounding: at 160 of the integer radii
1..420 (1.04e-12 at b = 60, 3.52e-12 at b = 350).  For the same reason
b = 300 and 400 raise ``TruncationError`` below the hard cap, until the cut
rule of ROADMAP item 4 lands.
"""

from __future__ import annotations

import itertools
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

# Tail-array cells of one block of mes_overlaps' gmes radii: rows x (largest top + 1) stays within it.
_OVERLAP_BLOCK_CELLS = 10240


def _check_mass(values: np.ndarray, mass: float, tail: float) -> None:
    """Truncation contract of every stored state: finite values, tail in [0, 1], 1 - tail <= mass <= 1.

    ``mass``, the dot, sum or vdot of ``values``, is inf or nan if any value is: only such a mass scans them.
    """
    if not math.isfinite(mass) and not np.all(np.isfinite(values)):
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
    mass beyond the stored cutoff, so 1 - tail_bound <= sum c_n^2 <= 1.  The
    checks take two passes, a min (nan if any value is) and the dot.
    """

    coeffs: np.ndarray
    tail_bound: float

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise DomainError("coeffs must be a nonempty 1-d vector")
        if not coeffs.min() >= 0.0 and np.any(coeffs < 0.0):
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
# Poisson tail primitives.  f(n, b) = P(X > n)/b^2 with X ~ Poisson(b^2).  Every tail is a sum of pmf terms
# from one kernel, _pmf_terms, taken in log space so that no term underflows before it is negligible.  A tail
# that is at least ~0.4 (n below the mean) is 1 minus the terms up to n; a smaller one is the sum of the terms
# past n, so the far tail stays relative-accurate; the Kerr report takes every pmf term relative-accurate, from
# _pmf_saddle.  Every range a sum runs over ends where one rule, _chernoff_range(lam, eps), puts it, each site
# naming its eps (m = max(last n + 1, lam)):
#   _pmf_support, both ends (hi refined)   750    every term outside rounds to 0.0
#   _lower_start, a lower sum's start      72     the mass below it is under e^-72
#   _far_end, an upper sum's end, from m   100    each term past it is under e^-100 P(X = m)
#   bounded_f_profile's last n             72     the f(n, b) past it sum to under 3e-36
#   mes_overlaps' last n                   99     P(X > n) < 2^-141 P(X > 0) past it
#   crosskerr's Kerr window, from m        345.4  each term past it is under 1e-150 P(X = m)
# ---------------------------------------------------------------------------


# log k! for k = 0..4095, read-only: 32 KB that cover the whole pmf support of every lam <= 1600.  The file holds
# scipy.special.gammaln(arange(1, 4097)) bit for bit (math.lgamma is 1 ulp off in about half the entries), so no
# default call imports scipy.  A larger k goes through gammaln itself.
_LOG_FACTORIAL = np.load(Path(__file__).with_name("_log_factorial.npy"), allow_pickle=False)
_LOG_FACTORIAL.setflags(write=False)


def gammaln(x):
    """scipy.special.gammaln, imported on first use: only a pmf range past the log k! table calls it."""
    import scipy.special

    return scipy.special.gammaln(x)


def _chernoff_range(lam, eps: float):
    """(lo, hi): the Poisson(lam) mass below lo and the mass from hi on are each under e^-eps.

    By Chernoff, P(X <= k) or P(X >= k) <= exp(-lam h(k/lam)) for k on either side of the mean, h(x) = x log x
    - x + 1.  With s = sqrt(2 eps lam), h(x) >= (1 - x)^2/2 passes eps from lam - k >= s on, hence lo =
    floor(lam) - ceil(s), and Bernstein's h(1 + u) >= u^2/(2 + 2u/3) from k - lam >= eps/3 + hypot(eps/3, s) on,
    hence hi.  Called at m >= the mean in place of lam, hi bounds each P(X = k)/P(X = m), k >= hi, by e^-eps:
    log P(X = k) - log P(X = m) <= (k - m) log m - log(k!/m!) <= -m h(k/m), as log(k!/m!) is at least the
    integral of log x from m to k.  Both ends are integers offset from floor(lam), apart at every mean.  An array
    ``lam`` gives each entry's ends in floats, bit for bit its own call's, as sqrt, hypot, floor and ceil round
    correctly; s is taken as sqrt(2 eps) sqrt(lam), as 2 eps lam overflows near the top of the float range.
    """
    xp = np if isinstance(lam, np.ndarray) else math
    spread = math.sqrt(2.0 * eps) * xp.sqrt(lam)
    mean = xp.floor(lam)
    lo = mean - xp.ceil(spread)
    hi = mean + xp.ceil(eps / 3.0 + xp.hypot(eps / 3.0, spread)) + 1
    return (np.maximum(lo, 0.0) if xp is np else max(0, lo)), hi


def _pmf_support(lam: float) -> tuple[int, int]:
    """[lo, hi): the k outside it have exp(k log lam - lam - gammaln(k+1)) == 0.0.

    _chernoff_range(lam, 750) puts every log-pmf outside it below -750, and exp rounds all below -745.13 to 0.0.
    Above the mean log k! >= k log k - k + log(2 pi k)/2 gives log P(X = k) <= -g(k), g(k) = lam h(k/lam) +
    log(2 pi k)/2, convex there: Newton steps from the range's hi come down to the first k > lam with g(k) >= 750.
    The log-pmf rounds by about lam log(lam) 2^-52, so that margin of ~5 holds below lam ~ 1e13; past it the
    range's hi stays.
    """
    lo, hi = _chernoff_range(lam, 750.0)
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


def poisson_tail(n: int, lam: float) -> float:
    """P(X > n) for X ~ Poisson(lam), stable in both tails; a real n counts as floor(n), +-inf included.

    ``TruncationError`` where a sum needs more than MAX_CUTOFF terms: an n at or above the mean from lam ~ 1.9993e8
    on, an n just below it from ~2.7778e8 on.  Past lam ~ 1e7 the rounding of k log lam costs about 1e-7 relative
    (7e-8 from mpmath at lam = 9.994e7, n = floor(lam); 3.4e-7 at lam = 1.9993e8).
    """
    lam = check_real(lam, "Poisson mean", 0.0)
    if n != n:
        raise DomainError("n must be a number, got nan")
    if n < 0:
        return 1.0
    if lam == 0.0 or n == math.inf:
        return 0.0
    # P(X > n) = P(X > floor(n)) for a real n >= 0
    return float(_poisson_tail_array(lam, int(n), int(n))[0])


def _lower_start(lam):
    """Where a lower sum starts, for a mean or an array of them: the mass below it is under e^-72."""
    return _chernoff_range(lam, 72.0)[0]


def _far_end(lam: float, nmax: int) -> int:
    """Where an upper sum over n <= nmax ends: the support's end, or _chernoff_range(m, 100)'s hi if nearer."""
    hi = _pmf_support(lam)[1]
    return min(hi, _chernoff_range(max(min(nmax + 1, hi), lam), 100.0)[1])  # m clipped at hi: a huge nmax is an int


def _poisson_tail_array(lam, nmax: int, nmin: int = 0) -> np.ndarray:
    """P(X > n) for n = nmin..nmax and X ~ Poisson(lam > 0), relative-accurate in both tails.

    Below the mean (n + 1 <= lam) the tail, at least ~0.4 there, is 1 minus the terms from _lower_start(lam) up to
    n; from the mean on it is the sum of the terms past n, from _far_end(lam, nmax) down.  The ranges end where the
    sums stop seeing terms: below the start the mass is under e^-72, so each tail there is 1.0 and the running sum
    merges with the one over all k long before 1 minus it could round differently, and each term past the far end
    is under e^-100 of P(X = max(nmax + 1, lam)), a term kept.  So the value at n depends on neither nmin nor, but
    for such terms, nmax.  From the last term on the tail is 0.0.  Both sums come from one kernel call and are
    summed in place.  ``TruncationError`` if a sum needs more than MAX_CUTOFF terms, before any is evaluated.

    A 1-d numpy array of means gives one row per mean, each its own call's array bit for bit where the call returns.
    The rows that read the upper sum (lam < nmax + 1) and the others are two calls, so that no row evaluates a sum
    it never reads.  The rows of one call share one block of terms over the union of their ranges, as a row's terms
    past its own hi are 0.0, and a sequential sum skips exact zeros bit for bit.  Every row that reads an upper sum
    has the same far end, anchored at m = nmax + 1 > lam, up to its own hi.  So a row is masked only below its own
    start and from its split n = floor(lam) on, where its upper sum replaces its lower one; each mask spans only the
    columns between the rows' lowest and highest such bound.  The cap is checked on that union: means 100 and 199000
    at nmax = 205000 are refused (211,338 terms), though each row's own call sums 205,001.  Both callers of this form
    stay far inside it: fig1's grid has nmax = 2, and a mes_overlaps block of two rows or more has nmax at most
    5,119, as rows x (nmax + 1) is at most _OVERLAP_BLOCK_CELLS.
    """
    rows = isinstance(lam, np.ndarray)
    if rows:
        lam = lam.astype(float)
        low, high = float(lam.min()), float(lam.max())
        if low < nmax + 1 <= high:  # some rows read the upper sum, and some do not
            up = lam < nmax + 1
            parts = _poisson_tail_array(lam[up], nmax, nmin), _poisson_tail_array(lam[~up], nmax, nmin)
            tail = np.empty((lam.size, nmax + 1 - nmin))
            tail[up], tail[~up] = parts
            return tail
        lam = lam[:, None]
        mid = np.clip(np.floor(lam), nmin, nmax + 1)  # clipped before the casts: floor(lam) may pass int64
        split, stop = int(mid.min()), int(mid.max())
        starts = _lower_start(lam)  # each row's, the same integers in floats below lam = 2^53
        lo = int(starts.min())
    else:
        split = stop = min(max(math.floor(lam), nmin), nmax + 1)  # the first n of the upper sum
        lo, high = _lower_start(lam), lam
    end = _far_end(high, nmax)
    top = min(end - 1, nmax + 1)  # from n = end - 1 on no term is left above n
    first = max(lo, nmin)
    lower, upper = first < stop, split < top
    band = max(stop - lo if lower else 0, end - split - 1 if upper else 0)
    if band > MAX_CUTOFF:
        raise TruncationError(f"P(X > n) at Poisson means up to {high:.6g} sums {band} pmf terms, "
                              f"past the hard cap {MAX_CUTOFF}")
    tail = np.zeros((lam.size, nmax + 1 - nmin) if rows else nmax + 1 - nmin)
    tail[..., : first - nmin] = 1.0
    if not (lower or upper):
        return tail
    base = lo if lower else split + 1
    terms = _pmf_terms(base, end if upper else stop, lam)
    if lower:
        cdf = terms[..., : stop - lo]
        if rows and starts.max() > lo:  # a row's sum starts at its own start, at most starts.max()
            reach = min(int(starts.max()), stop)
            cdf[..., : reach - lo] *= np.arange(lo, reach) >= starts
        # in place, unless a row's upper sum reads terms below the block's stop
        cdf = np.cumsum(cdf, axis=-1, out=cdf if split == stop else None)[..., first - lo :]
        np.minimum(cdf, 1.0, out=cdf)
        np.subtract(1.0, cdf, out=tail[..., first - nmin : stop - nmin])
    if upper:
        above = terms[..., split + 1 - base :]
        backward = above[..., ::-1]
        np.cumsum(backward, axis=-1, out=backward)
        # top >= stop here, as hi > lam; from split to stop the tails hold the lower sums, and a row's upper sum
        # takes over from its own split on
        if split < stop:
            np.copyto(tail[..., split - nmin : stop - nmin], above[..., : stop - split],
                      where=np.arange(split, stop) >= mid)
        tail[..., stop - nmin : top - nmin] = above[..., stop - split : top - split]
    return tail


def _poisson_mean(b: float) -> float:
    # b^2, which rounds to 0 below b = 2^-537.5 ~ 1.6e-162 and overflows above ~1.3e154
    b = check_real(b, "boundary radius b", 0.0, strict=True)
    if not 0.0 < b * b < math.inf:
        raise DomainError(f"boundary radius b needs 1.6e-162 < b < 1.3e154 (b^2 a positive float), got {b}")
    return b * b


def f_coefficient(n: int, b: float) -> float:
    """Photon-number weight f(n, b) of the boundary-b Gaussian mixed state.

    f(n, b) = (1 - sum_{k=0}^{n} b^{2k} e^{-b^2} / k!) / b^2, i.e. the Poisson upper tail P(X > n) at mean b^2,
    divided by b^2.  From n = floor(b^2) on it is sum_{j>=n} P(X = j)/(j + 1), as b^(2k-2)/k! = (b^(2j)/j!)/(j + 1)
    with j = k - 1: no quotient by b^2 is left to underflow after its numerator.
    """
    n = check_integer(n, "n", 0)
    lam = _poisson_mean(b)
    if n < math.floor(lam):  # there lam >= 1, and the tail at least ~0.4
        return poisson_tail(n, lam) / lam
    end = _far_end(lam, n)
    if end - n > MAX_CUTOFF:
        raise TruncationError(f"f(n, b) at b={b} sums {end - n} pmf terms, past the hard cap {MAX_CUTOFF}")
    return 0.0 if end <= n else math.fsum(_pmf_saddle(n, end, lam) / np.arange(n + 1.0, end + 1.0))


def _fsum_repeated_head(values: np.ndarray, head: int) -> float:
    """math.fsum(values) where the first ``head`` < 2^26 values equal values[0].

    The head enters as head*v_hi + head*v_lo from a Veltkamp split of
    v = values[0] into two halves of at most 26 bits.  Both products are exact,
    so the correctly rounded sum is the same, from len(values) - head + 2 terms,
    the window read in place through a memoryview.
    """
    products = ()
    if head:
        v = float(values[0])
        scaled = 134217729.0 * v  # (2^27 + 1) v
        v_hi = scaled - (scaled - v)
        products = (head * v_hi, head * (v - v_hi))
    return math.fsum(itertools.chain(memoryview(values[head:]), products))


def _repeated_sum(v: float, count: int, reach: float = math.inf) -> tuple[float, int]:
    """(np.cumsum(np.full(count, v))[k - 1], k) bit for bit, k = count or the first count whose sum reaches ``reach``.

    For v > 0 and count < 2^52, in about two steps a binade.  Inside a binade a
    step adds v rounded to its ulp u, the same multiple of u from every sum but
    at a tie, which rounds to the even sum; so once a step stays in the binade,
    every later one there adds the same d, and the walk jumps to the last sum
    below the binade's top 2^53 u, and below ``reach``, at once.
    """
    s, k, u_s = 0.0, 0, 0.0
    while k < count and s < reach:
        t = s + v
        k += 1
        u = math.ulp(t)
        if u == u_s and t < reach:
            d = (t + v) - t
            jump = min(count - k, -int((t - min(reach, u * 2.0**53)) // d) - 1)
            k, t = k + jump, t + jump * d
        s, u_s = t, u
    return s, k


def bounded_f_profile(b: float, tol: float = DEFAULT_TOL, cap: int = MAX_CUTOFF):
    """f(n, b) for n = 0..M with M the first index where the mass reaches 1 - tol.

    Returns ``(values, tail_bound)``, with ``values`` a fresh buffer the caller may overwrite.  Shared by the
    Schmidt-spectrum and the diagonal-distribution constructors so the two stay numerically identical.  The f(n, b)
    below h = _lower_start(b^2) all equal 1/b^2: that head is a fill, its running sum comes from _repeated_sum, and
    the tail array runs on the window past it only.  ``tail_bound`` is 1 minus the correctly rounded sum of values.
    """
    lam = _poisson_mean(b)
    _check_tol(tol)
    _check_cap(cap)
    start, end = _chernoff_range(lam, 72.0)
    nmax = min(end, cap)
    # each f(n, b) is below 1/b^2, so no cutoff within the cap exists when (cap + 1)/b^2 < 1 - tol, seen first
    if (cap + 1) / lam >= 1.0 - tol:
        head = min(start, nmax + 1)  # <= cap + 1 < 2^26, as _fsum_repeated_head needs
        carry, count = _repeated_sum(1.0 / lam, head, 1.0 - tol)
        if carry >= 1.0 - tol:  # the cut lies inside the head
            values = np.full(count, 1.0 / lam)
            return values, max(0.0, 1.0 - _fsum_repeated_head(values, count))
        # one pass: the f(n, b) past nmax sum to under 3e-36, below half an ulp of csum near 1 - tol, so no longer
        # profile moves the cut
        f = _poisson_tail_array(lam, nmax, head)
        f /= lam
        csum = np.cumsum(np.concatenate(([carry], f)))  # csum[i] sums the first head + i values
        count = head + int(np.searchsorted(csum, 1.0 - tol))
        if count <= nmax + 1:
            values = np.empty(count)
            values[:head] = 1.0 / lam
            values[head:] = f[: count - head]
            return values, max(0.0, 1.0 - _fsum_repeated_head(values, head))
        if nmax < cap:
            raise TruncationError(f"no cutoff for b={b} at tol={tol}: f(n, b) summed up to n = {nmax} is "
                                  f"{float(csum[-1])!r} < 1 - tol, short by rounding, as the rest is below 3e-36")
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
    n *= log_t
    n -= _log_cosh(r)
    return SchmidtSpectrum(np.exp(n, out=n), tail)


def gmes_spectrum(b: float, tol: float = DEFAULT_TOL, cap: int = MAX_CUTOFF) -> SchmidtSpectrum:
    """Schmidt spectrum of the Gaussian maximally entangled state, c_n = sqrt(f(n, b))."""
    values, tail = bounded_f_profile(b, tol, cap)
    # the head, every f(n, b) = 1/b^2, is a fill at its correctly rounded root: only the window takes np.sqrt
    lam = _poisson_mean(b)
    head = min(_lower_start(lam), values.size)
    values[:head] = math.sqrt(1.0 / lam)
    np.sqrt(values[head:], out=values[head:])
    return SchmidtSpectrum(values, tail)


def mes_spectrum(N: int) -> SchmidtSpectrum:
    """Schmidt spectrum of the N-dimensional maximally entangled state."""
    N = check_integer(N, "N", 1)
    if N > MAX_CUTOFF:
        # refused before any array; N is not shown, as str() of an int past 4300 digits raises
        raise TruncationError(f"mes dimension N exceeds the hard cap {MAX_CUTOFF}")
    return SchmidtSpectrum(np.full(N, 1.0 / math.sqrt(N)), 0.0)


def mes_overlaps(family: str, value, dims, cap: int = MAX_CUTOFF) -> list:
    """Overlap sum_{n<N} c_n / sqrt(N), clamped to 1, of MES_N and an untruncated state.

    One value per N in ``dims``, exact for every N (a truncated spectrum would lose up to sqrt(tol) of it), for
    ``family``:

    * "tmsv", value r: (1 - t^N) / ((1 - t) cosh(r) sqrt(N)) with t = tanh(r);
    * "gmes", value b: the prefix sum of sqrt(f(n, b)) over n < N, cut at n = _chernoff_range(b^2, 99)'s hi
      (``TruncationError`` if that n exceeds ``cap``, whatever N is).  There P(X > n) < e^-99, under
      2^-141 P(X > 0) (P(X > 0) >= 1 - 1/e for b >= 1, and n >= 67 for every b), so every later sqrt(f(n, b)) is
      under half an ulp of the running sum, and the cut sum is the whole one bit for bit;
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
        # every b is checked, in grid order, before any array is built
        lams, tops, reach = [], [], max(dims, default=1) - 1  # an overlap with MES_N reads no tail past n = N - 1
        for b in np.atleast_1d(value).tolist():  # each b is checked as a float by _poisson_mean
            lam = _poisson_mean(b)
            nmax = _chernoff_range(lam, 99.0)[1]
            if nmax > cap:
                raise TruncationError(f"overlap sum for b={b} needs {nmax} terms, past the hard cap {cap}")
            lams.append(lam)
            tops.append(min(nmax, reach))
        # blocks of neighbouring means, one tail array each.  The tops rise with lam, so a block's last row has
        # its largest top; a row's tails up to its own top are its own call's, as a tail depends on nmax only
        # through terms far below those kept (see _poisson_tail_array)
        order = sorted(range(len(lams)), key=lams.__getitem__)  # stable
        cuts = [0] if order else []
        for i, row in enumerate(order):
            if i > cuts[-1] and (i + 1 - cuts[-1]) * (tops[row] + 1) > _OVERLAP_BLOCK_CELLS:
                cuts.append(i)
        lams, tops = np.array(lams)[order], np.array(tops, dtype=int)[order]
        cols = np.minimum(n, tops[:, None] + 1).astype(int) - 1  # each row's prefix sums end at its own top
        overlaps = np.empty((len(order), n.size))
        for start, stop in zip(cuts, [*cuts[1:], len(order)]):
            block = lams[start:stop] if stop - start > 1 else float(lams[start])  # one row: the lighter scalar form
            csum = np.atleast_2d(_poisson_tail_array(block, int(tops[stop - 1])))
            csum /= lams[start:stop, None]
            np.sqrt(csum, out=csum)
            np.cumsum(csum, axis=1, out=csum)
            overlaps[start:stop] = csum[np.arange(stop - start)[:, None], cols[start:stop]]
            del csum  # freed before the next block's array is built
        overlaps[order] = overlaps / np.sqrt(n)
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
