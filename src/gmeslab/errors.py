"""Exception types shared across the package, and the integer- and real-argument checks.

The CLI maps domain/config/truncation/degeneracy problems to exit 2; no
subcommand calls the one solver that raises ``SolverError``.
"""

import math


class GmeslabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(GmeslabError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ConfigError(GmeslabError, ValueError):
    """A tolerance, grid, or configuration value is invalid."""


class TruncationError(GmeslabError):
    """A requested cutoff is too small, or an adaptive cutoff exceeds the hard cap."""


class SolverError(GmeslabError):
    """A root solve or numerical search failed to converge or to bracket."""


class DegenerateInputError(GmeslabError, ValueError):
    """Input is too degenerate for the operation (e.g. near-zero amplitude set)."""


def check_integer(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int, or ``DomainError`` unless it is an integer in [low, high].

    nan and +-inf are refused like any other non-integer, where int() alone
    would raise a bare ValueError or OverflowError.
    """
    try:
        whole = int(value) == value
    except (ValueError, OverflowError):
        whole = False
    if not (whole and low <= value and (high is None or value <= high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        try:
            shown = str(value)
        except ValueError as exc:  # str() of an int past 4300 digits raises
            shown = f"a value str() refuses ({exc})"
        raise DomainError(f"{name} must be an integer {bounds}, got {shown}")
    return int(value)


def check_real(value, name: str, low: float, *, strict: bool = False) -> float:
    """``value`` as a float, or ``DomainError`` unless it converts, is finite and is >= low (> low if ``strict``)."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError) as exc:  # an int past the float range, say
        # the message names the failure, not the value: str() of an int past 4300 digits raises
        x, value = math.nan, f"a value float() refuses ({exc})"
    if not (math.isfinite(x) and (x > low if strict else x >= low)):
        raise DomainError(f"{name} must be a finite number {'>' if strict else '>='} {low:g}, got {value}")
    return x
