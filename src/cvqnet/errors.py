"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: config/input problems -> 2,
numerical or physicality problems (a singular heterodyne conditioning
among them) -> 3, guard refusals (a decomposition table over its row cap)
-> 4.
"""


class CVQNetError(Exception):
    """Base class for all package errors."""


class ValidationError(CVQNetError, ValueError):
    """Invalid argument, matrix, or parameter set."""


class UnphysicalStateError(ValidationError):
    """Covariance matrix violates the uncertainty relation beyond tolerance."""


class NumericalError(CVQNetError):
    """Numerical routine failed (eigensolver non-convergence, singular conditioning)."""


class ModelError(CVQNetError):
    """Network model produced an inconsistent or unphysical object."""


class GuardRefusalError(CVQNetError):
    """Request refused by an explicit safety/size guard."""


class ConfigError(CVQNetError):
    """Config file or CLI input could not be parsed or is inconsistent."""


class CorruptInputError(ConfigError):
    """A data file is truncated or fails header validation."""
