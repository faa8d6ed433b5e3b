"""Transversal (rainbow) Hamilton paths and cycles in tournament collections.

The package splits into a data model (`core`), named and random instance
builders (`generators`), exact search (`oracle`), the constructive lemma
toolbox (`constructive`), end-to-end solvers (`pipeline`), and verification
suites plus the CLI (`harness`, `cli`).
"""

from .core import (
    ColoredDigraph,
    RainbowCycle,
    RainbowPath,
    Tournament,
    TournamentCollection,
    induced_collection,
    is_strongly_connected,
    majority_subtournament,
    validate_transversal,
)
from .errors import (
    AbsorberConstructionError,
    AbsorptionFailedError,
    ExceptionalConfigurationError,
    InsufficientColorsError,
    NoProgressError,
    StageFailure,
)
from .oracle import (
    OracleOutcome,
    SearchBudget,
    exact_transversal_ham_cycle,
    exact_transversal_ham_path,
)
from .pipeline import (
    transversal_ham_cycle,
    transversal_ham_path,
)

__version__ = "0.1.0"

__all__ = [
    "ColoredDigraph",
    "RainbowCycle",
    "RainbowPath",
    "Tournament",
    "TournamentCollection",
    "induced_collection",
    "is_strongly_connected",
    "majority_subtournament",
    "validate_transversal",
    "AbsorberConstructionError",
    "AbsorptionFailedError",
    "ExceptionalConfigurationError",
    "InsufficientColorsError",
    "NoProgressError",
    "StageFailure",
    "OracleOutcome",
    "SearchBudget",
    "exact_transversal_ham_cycle",
    "exact_transversal_ham_path",
    "transversal_ham_cycle",
    "transversal_ham_path",
    "__version__",
]
