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
G_jk = sum_m n_m^2 w^((k-j)m) is the circulant with first row d ifft(n^2), so
one coherent vector, not d rotated ones, gives the whole Kerr report; the
two-mode helpers below stay for tests that rebuild the overlap directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, TruncationError, check_integer
from .states import MAX_CUTOFF, _check_mass, poisson_tail

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


def default_cutoff(alpha: complex) -> int:
    """Fock cutoff |alpha|^2 + 8|alpha| + 20, ample for ~1e-10 truncation loss."""
    a = abs(alpha)
    cutoff = a * a + 8.0 * a + 20.0
    if not math.isfinite(cutoff):
        raise DomainError(f"alpha must be finite with |alpha|^2 below the float range, got {alpha}")
    return math.ceil(cutoff)


def coherent_fock(alpha: complex, cutoff: int | None = None) -> FockVector:
    """Coherent-state amplitudes e^(-|alpha|^2/2) alpha^n / sqrt(n!) up to ``cutoff``.

    Amplitudes come from the stable recurrence a_{n+1} = a_n alpha/sqrt(n+1);
    the exact Poisson tail past the cutoff is recorded as the loss.
    """
    alpha = complex(alpha)
    if not math.isfinite(abs(alpha)):
        raise DomainError(f"|alpha| must be finite, got {alpha}")
    if cutoff is None:
        cutoff = default_cutoff(alpha)
    cutoff = check_integer(cutoff, "cutoff", 0)
    if cutoff > MAX_CUTOFF:
        raise TruncationError(f"cutoff {cutoff} exceeds the hard cap {MAX_CUTOFF}")
    mag_sq = abs(alpha) ** 2
    if mag_sq > cutoff / 2.0:
        raise TruncationError(
            f"cutoff {cutoff} is too small for |alpha|^2 = {mag_sq:.3f}; need at least 2|alpha|^2"
        )
    ratios = np.ones(cutoff + 1, dtype=complex)
    if cutoff > 0:
        ratios[1:] = alpha / np.sqrt(np.arange(1.0, cutoff + 1.0))
    amps = math.exp(-mag_sq / 2.0) * np.cumprod(ratios)
    loss = poisson_tail(cutoff, mag_sq)
    return FockVector(amps, cutoff, loss)


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


def _pseudo_number_weights(v: FockVector, d: int) -> np.ndarray:
    """Squared norms n_k^2 of the pseudo-number components of ``v``, k = 0..d-1."""
    return np.bincount(np.arange(v.cutoff + 1) % d, weights=(v.amps * v.amps.conj()).real, minlength=d)


def pseudo_phase_gram(alpha: complex, d: int, cutoff: int | None = None) -> np.ndarray:
    """Gram matrix G_jk = <alpha e^(2 pi i j/d) | alpha e^(2 pi i k/d)> in the truncated space.

    It is the circulant with first row d ifft(n^2) (see the module docstring).
    The exact magnitudes are exp(-|alpha|^2 (1 - cos(2 pi (k-j)/d))).
    """
    d = check_integer(d, "modulus d", 1)
    first_row = d * np.fft.ifft(_pseudo_number_weights(coherent_fock(alpha, cutoff), d))
    return np.stack([np.roll(first_row, j) for j in range(d)])


def _kerr_row(alpha: complex, d: int, cutoff: int | None):
    """(fidelity, n_k^2, first Gram row) of the Kerr report, from one coherent vector."""
    d = check_integer(d, "modulus d", 1)
    base = coherent_fock(alpha, cutoff)
    if d > base.cutoff + 1:  # checked before the O(d) weights exist
        raise DegenerateInputError(f"component k={base.cutoff + 1} is empty: d = {d} > cutoff + 1")
    weights = _pseudo_number_weights(base, d)
    if weights.min() < 1e-24:
        raise DegenerateInputError(
            f"pseudo-number component k={weights.argmin()} has negligible weight for alpha={complex(alpha)}"
        )
    if weights.min() < _GRAM_EIG_FLOOR * weights.max():
        raise DegenerateInputError(
            f"pseudo-phase states are numerically dependent (Gram eigenvalue {d * weights.min():.3e})"
        )
    return min(1.0, float(np.sqrt(weights).sum()) ** 2 / d), weights, d * np.fft.ifft(weights)


def kerr_mes_fidelity(alpha: complex, d: int, cutoff: int | None = None) -> float:
    """Fidelity of the cross-Kerr output of |alpha>|alpha> with the ideal d x d target.

    The target is (1/sqrt(d)) sum_k |k_d> (x) |e_k>, with |k_d> the normalized
    pseudo-number components of |alpha> and |e_k> the Loewdin-orthonormalized
    phase-shifted coherent states.  The overlap equals (sum_k n_k)^2 / d with
    n_k the pseudo-number norms (see the module docstring), so it costs
    O(cutoff); rounding can push that sum past 1, so it is clamped to 1.

    Raises ``DegenerateInputError`` when d > cutoff + 1 or some n_k is below
    1e-12, or when the phase states are numerically dependent: their Gram
    eigenvalues are d n_k^2, so when min n_k^2 < 1e-12 max n_k^2.
    """
    return _kerr_row(alpha, d, cutoff)[0]
