"""Exception types shared across the package, and the integer-argument check.

The CLI maps domain/config/truncation/degeneracy problems to exit 2; no
subcommand calls the one solver that raises ``SolverError``.
"""


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
        raise DomainError(f"{name} must be an integer {bounds}, got {value}")
    return int(value)
