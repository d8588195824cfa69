"""Exception types shared across the package."""


class FgmoptError(Exception):
    """Base class for all package errors."""


class GeneOutOfBounds(FgmoptError, ValueError):
    """A gene value lies outside its declared [lo, hi] interval."""


class OutOfDomain(FgmoptError, ValueError):
    """A query point lies outside the plate domain."""


class PhiOutOfRange(FgmoptError, ValueError):
    """A volume fraction is outside [0, 1]."""


class SingularSystem(FgmoptError, RuntimeError):
    """The assembled linear system is singular (missing boundary conditions)."""


class DimensionMismatch(FgmoptError, ValueError):
    """Array shape does not match the network layer or the plate it is used with."""


class ZeroVariance(FgmoptError, ValueError):
    """Targets have zero variance; R-squared is undefined."""


class EmptyDataset(FgmoptError, ValueError):
    """A training set with no samples was supplied."""


class TrainingDiverged(FgmoptError, RuntimeError):
    """A parameter became NaN/Inf during training."""


class MissingSummary(FgmoptError, KeyError):
    """A constraint references a quantity the evaluation did not produce."""


class MissingModel(FgmoptError, FileNotFoundError):
    """A surrogate-path experiment references a model file that does not exist."""


class SolveFailure(FgmoptError, RuntimeError):
    """A finite-element solve failed for one dataset sample."""
