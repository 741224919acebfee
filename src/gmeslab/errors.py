"""Exception types shared across the package.

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
