"""Schmidt spectra, Bell values and fidelities for Gaussian-mode entangled states."""

from .errors import (
    ConfigError,
    DegenerateInputError,
    DomainError,
    GmeslabError,
    SolverError,
    TruncationError,
)
from .states import (
    DEFAULT_TOL,
    MAX_CUTOFF,
    SchmidtSpectrum,
    f_coefficient,
    gmes_spectrum,
    mean_photon,
    mes_overlaps,
    mes_spectrum,
    poisson_tail,
    solve_b_for_nbar,
    solve_r_for_nbar,
    tmsv_spectrum,
)
from .gmms import (
    NumberDistribution,
    gmms_distribution,
    purify,
    thermal_distribution,
)
from .metrics import (
    QutritState,
    bell_max_analytic,
    entanglement_entropy,
    fidelity,
    qutrit_truncate,
)
from .bell_oracle import BellResult, maximize_bell
from .crosskerr import (
    FockVector,
    TwoModeFock,
    coherent_fock,
    cross_kerr_apply,
    default_cutoff,
    kerr_mes_fidelity,
    pseudo_number_component,
    pseudo_phase_gram,
    two_mode_product,
)

__version__ = "0.1.0"

__all__ = [
    "BellResult",
    "ConfigError",
    "DEFAULT_TOL",
    "DegenerateInputError",
    "DomainError",
    "FockVector",
    "GmeslabError",
    "MAX_CUTOFF",
    "NumberDistribution",
    "QutritState",
    "SchmidtSpectrum",
    "SolverError",
    "TruncationError",
    "TwoModeFock",
    "bell_max_analytic",
    "coherent_fock",
    "cross_kerr_apply",
    "default_cutoff",
    "entanglement_entropy",
    "f_coefficient",
    "fidelity",
    "gmes_spectrum",
    "gmms_distribution",
    "kerr_mes_fidelity",
    "maximize_bell",
    "mean_photon",
    "mes_overlaps",
    "mes_spectrum",
    "poisson_tail",
    "pseudo_number_component",
    "pseudo_phase_gram",
    "purify",
    "qutrit_truncate",
    "solve_b_for_nbar",
    "solve_r_for_nbar",
    "thermal_distribution",
    "tmsv_spectrum",
    "two_mode_product",
    "__version__",
]
