"""Gradation-profile optimization for two-phase thermoelastic plates."""

__version__ = "0.1.0"


def version_fingerprint(**extra) -> dict:
    """Package name and version, plus ``extra``, stamped on every artefact."""
    return {"package": "fgmopt", "version": __version__, **extra}


from . import errors, profiles, rng  # noqa: E402, F401
from . import fem, ga, neural, pipeline, problems, verification  # noqa: E402, F401
