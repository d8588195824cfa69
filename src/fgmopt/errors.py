"""Exception types shared across the package, and the number test and file prefix of its checks."""

import contextlib


def is_number(value) -> bool:
    """An int or a float, the numbers JSON reads; a bool is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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


class MissingModel(FgmoptError, FileNotFoundError):
    """A surrogate-path experiment references a model file that does not exist."""


class SolveFailure(FgmoptError, RuntimeError):
    """A finite-element solve failed for one dataset sample."""


@contextlib.contextmanager
def naming(source):
    """Re-raise a ValueError or MissingModel inside as ``"<source>: <message>"``, ``source`` a
    file or ``file:line``, of its own type if a package error, and a KeyError as "needs the key"."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{source}: needs the key {exc.args[0]!r}") from None
    except (ValueError, MissingModel) as exc:
        kind = type(exc) if isinstance(exc, FgmoptError) else ValueError
        raise kind(f"{source}: {exc}") from exc
