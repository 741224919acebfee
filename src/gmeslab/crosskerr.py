"""Cross-Kerr generation of a discrete maximally entangled state from coherent light.

Two coherent states fed through a cross-Kerr phase exp(2 pi i n1 n2 / d)
come out as sum_k (P_k |alpha>) (x) |alpha e^(2 pi i k/d)>, where P_k projects
onto Fock indices congruent to k mod d (the pseudo-number components).  The
ideal d x d maximally entangled target pairs the normalized pseudo-number
components |k_d> with a Loewdin-orthonormalized set of the d phase-shifted
coherent states; ``kerr_mes_fidelity`` returns the overlap magnitude with that
target.

That overlap has the closed form (sum_k n_k)^2 / d, with n_k = ||P_k |alpha>||.
Rotating alpha by w^j = e^(2 pi i j/d) multiplies Fock level n by w^(jn), so
|alpha w^j> = sum_k w^(jk) n_k |k_d> exactly, in the truncated space too.
The Gram matrix of these phase states has eigenvalues d n_k^2, and their
Loewdin (polar) orthonormalization is |e_j> = (1/sqrt(d)) sum_k w^(jk) |k_d>,
the discrete Fourier transform of the number basis.  So <e_j | alpha w^j> =
(1/sqrt(d)) sum_k n_k for every j, and the output sum_j n_j |j_d> (x)
|alpha w^j> overlaps the target by (1/d) (sum_k n_k)^2.  Their Gram matrix
G_jk = sum_m n_m^2 w^((k-j)m) is the circulant whose first row is
exp(|alpha|^2 (w^k - 1)) less the pmf terms past the cutoff.  Both n_k^2 and
those terms are the Poisson(|alpha|^2) pmf folded mod d, so one evaluation of
it, and no amplitude vector, gives the whole Kerr report; the two-mode
helpers below stay for tests that rebuild the overlap directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, TruncationError, check_integer, check_real
from .states import MAX_CUTOFF, _check_mass, _chernoff_range, _pmf_saddle, _pmf_support

# Phase states whose Gram matrix has min/max eigenvalue ratio below this are
# numerically dependent.
_GRAM_EIG_FLOOR = 1e-12


@dataclass(frozen=True)
class FockVector:
    """Single-mode state amplitudes over Fock levels 0..cutoff.

    ``loss`` in [0, 1] is a declared bound on the squared-norm mass missing
    from the stored window, so 1 - sum |amps|^2 <= loss.
    """

    amps: np.ndarray
    cutoff: int
    loss: float = 0.0

    def __post_init__(self):
        amps = np.atleast_1d(np.asarray(self.amps, dtype=complex))
        object.__setattr__(self, "amps", amps)
        if amps.ndim != 1 or amps.size != self.cutoff + 1:
            raise DomainError(
                f"amps must be a vector of length cutoff+1 = {self.cutoff + 1}, got {amps.shape}"
            )
        _check_mass(amps, float(np.vdot(amps, amps).real), self.loss)

    def norm(self) -> float:
        return math.sqrt(float(np.vdot(self.amps, self.amps).real))


@dataclass(frozen=True)
class TwoModeFock:
    """Two-mode state amplitudes, indexed [n1, n2] over 0..cutoff each."""

    amps: np.ndarray
    cutoff: int
    loss: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        object.__setattr__(self, "amps", amps)
        side = self.cutoff + 1
        if amps.shape != (side, side):
            raise DomainError(f"amps must have shape ({side}, {side}), got {amps.shape}")
        _check_mass(amps, float(np.vdot(amps, amps).real), self.loss)


def _modulus(alpha: complex) -> float:
    """|alpha| as a float, or ``DomainError`` unless alpha is finite with 2|alpha|^2 below the float range."""
    try:
        a = check_real(abs(alpha), "|alpha|", 0.0)
    except OverflowError:  # abs() of a Python complex whose modulus passes the float range
        a = math.inf
    if not math.isfinite(2.0 * a * a):
        raise DomainError(f"alpha must be finite with 2|alpha|^2 below the float range, got {alpha}")
    return a


def default_cutoff(alpha: complex) -> int:
    """Fock cutoff |alpha|^2 + 8|alpha| + 20 (~1e-10 loss), and at least 2|alpha|^2, the truncation policy."""
    a = _modulus(alpha)
    # 2 a**2 as the policy computes |alpha|^2: a * a can be one ulp below a**2
    return math.ceil(max(a * a + 8.0 * a + 20.0, 2.0 * a**2))


def _mean_and_cutoff(alpha: complex, cutoff: int | None) -> tuple[float, int]:
    """(|alpha|^2, cutoff or the default), both checked, and the policy cutoff >= 2|alpha|^2 enforced."""
    lam = _modulus(alpha) ** 2
    cutoff = check_integer(default_cutoff(alpha) if cutoff is None else cutoff, "cutoff", 0)
    if cutoff > MAX_CUTOFF:
        raise TruncationError(f"cutoff {cutoff} exceeds the hard cap {MAX_CUTOFF}")
    if lam > cutoff / 2.0:
        raise TruncationError(f"cutoff {cutoff} is too small for |alpha|^2 = {lam:.3f}; need at least 2|alpha|^2")
    return lam, cutoff


def _folded_pmf(lam: float, d: int, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """P(X = n), X ~ Poisson(lam), summed over each residue n mod d: over n <= cutoff, and over n > cutoff."""
    if lam == 0.0:  # the vacuum: P(X = 0) = 1, where the kernel would take log 0
        lo, pmf = 0, np.ones(1)
    else:  # one kernel call; past the window each term is under 1e-150 of P(X = cutoff + 1), as cutoff >= 2 lam
        lo, hi = _pmf_support(lam)
        pmf = _pmf_saddle(lo, min(hi, _chernoff_range(cutoff + 1, 150.0 * math.log(10.0))[1]), lam)
    residues = np.arange(lo, lo + pmf.size) % d
    cut = cutoff + 1 - lo
    return np.bincount(residues[:cut], pmf[:cut], d), np.bincount(residues[cut:], pmf[cut:], d)


def coherent_fock(alpha: complex, cutoff: int | None = None) -> FockVector:
    """Coherent-state amplitudes e^(-|alpha|^2/2) alpha^n / sqrt(n!) up to ``cutoff``.

    They are sqrt(P(X = n)) e^(i n arg alpha), X ~ Poisson(|alpha|^2), finite at
    every |alpha|; the pmf past the cutoff is recorded as the loss.
    """
    lam, cutoff = _mean_and_cutoff(alpha, cutoff)
    probs, past = _folded_pmf(lam, cutoff + 1, cutoff)  # mod cutoff + 1 every n <= cutoff is its own residue
    amps = np.sqrt(probs) * np.exp(1j * np.angle(complex(alpha)) * np.arange(cutoff + 1))
    return FockVector(amps, cutoff, float(past.sum()))


def two_mode_product(v1: FockVector, v2: FockVector) -> TwoModeFock:
    """Product state |v1> (x) |v2> on a common cutoff."""
    if v1.cutoff != v2.cutoff:
        raise DomainError(f"cutoffs differ: {v1.cutoff} vs {v2.cutoff}")
    amps = np.outer(v1.amps, v2.amps)
    loss = min(1.0, v1.loss + v2.loss)
    return TwoModeFock(amps, v1.cutoff, loss)


def pseudo_number_component(v: FockVector, d: int, k: int):
    """Unnormalized projection of ``v`` onto Fock levels congruent to k mod d.

    Returns ``(component, norm)``.  Components for k = 0..d-1 have disjoint
    support, so they are exactly orthogonal and their squared norms add up to
    the squared norm of ``v``.
    """
    d = check_integer(d, "modulus d", 1)
    k = check_integer(k, "residue k", 0, d - 1)
    mask = (np.arange(v.cutoff + 1) % d) == k
    amps = np.where(mask, v.amps, 0.0)
    norm = math.sqrt(float(np.vdot(amps, amps).real))
    component = FockVector(amps, v.cutoff, max(v.loss, 1.0 - norm * norm))
    return component, norm


def cross_kerr_apply(s: TwoModeFock, d: int) -> TwoModeFock:
    """Apply the cross-Kerr phase exp(2 pi i n1 n2 / d) entrywise.

    The phase exponent is reduced mod d in integer arithmetic, so d = 1 is
    exactly the identity and the norm is preserved to machine precision.
    """
    d = check_integer(d, "modulus d", 1)
    n = np.arange(s.cutoff + 1, dtype=np.int64)
    residues = np.outer(n, n) % d
    phases = np.exp(2j * np.pi * np.arange(d) / d)
    return TwoModeFock(s.amps * phases[residues], s.cutoff, s.loss)


def _gram_row(lam: float, past: np.ndarray) -> np.ndarray:
    """First Gram row sum_{n <= cutoff} P(X = n) w^(kn): exp(lam (w^k - 1)), of modulus exp(-2 lam sin^2(pi k/d))
    and free of cancellation where d ifft(n^2) is not, less ``past``, the pmf past the cutoff folded mod d."""
    d = past.size
    return np.exp(lam * np.expm1(2j * np.pi * np.arange(d) / d)) - d * np.fft.ifft(past)


def pseudo_phase_gram(alpha: complex, d: int, cutoff: int | None = None) -> np.ndarray:
    """Gram matrix G_jk = <alpha e^(2 pi i j/d) | alpha e^(2 pi i k/d)> in the truncated space.

    It is the circulant with first row exp(|alpha|^2 (w^k - 1)) less the pmf terms past the cutoff
    (see the module docstring), so its magnitudes are exp(-|alpha|^2 (1 - cos(2 pi (k-j)/d))) up to that tail.
    """
    d = check_integer(d, "modulus d", 1)
    lam, cutoff = _mean_and_cutoff(alpha, cutoff)
    first_row = _gram_row(lam, _folded_pmf(lam, d, cutoff)[1])
    return np.stack([np.roll(first_row, j) for j in range(d)])


def _kerr_row(alpha: complex, d: int, cutoff: int | None):
    """(fidelity, n_k^2, first Gram row) of the Kerr report, from one pmf evaluation."""
    d = check_integer(d, "modulus d", 1)
    lam, cutoff = _mean_and_cutoff(alpha, cutoff)
    if d > cutoff + 1:  # checked before the O(d) weights exist
        raise DegenerateInputError(f"component k={cutoff + 1} is empty: d = {d} > cutoff + 1")
    # n_k^2, the squared norms of the pseudo-number components
    weights, past = _folded_pmf(lam, d, cutoff)
    if weights.min() < 1e-24:
        raise DegenerateInputError(f"pseudo-number component k={weights.argmin()} has negligible weight "
                                   f"for alpha={complex(alpha)}")
    if weights.min() < _GRAM_EIG_FLOOR * weights.max():
        raise DegenerateInputError(f"pseudo-phase states are numerically dependent (Gram eigenvalue "
                                   f"{d * weights.min():.3e})")
    return min(1.0, float(np.sqrt(weights).sum()) ** 2 / d), weights, _gram_row(lam, past)


def kerr_mes_fidelity(alpha: complex, d: int, cutoff: int | None = None) -> float:
    """Fidelity of the cross-Kerr output of |alpha>|alpha> with the ideal d x d target.

    The target is (1/sqrt(d)) sum_k |k_d> (x) |e_k>, with |k_d> the normalized
    pseudo-number components of |alpha> and |e_k> the Loewdin-orthonormalized
    phase-shifted coherent states.  The overlap equals (sum_k n_k)^2 / d with
    n_k the pseudo-number norms (see the module docstring); rounding can push
    that sum past 1, so it is clamped to 1.

    Raises ``DegenerateInputError`` when d > cutoff + 1 or some n_k is below
    1e-12, or when the phase states are numerically dependent: their Gram
    eigenvalues are d n_k^2, so when min n_k^2 < 1e-12 max n_k^2.
    """
    return _kerr_row(alpha, d, cutoff)[0]
