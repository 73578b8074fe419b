"""Exception types and the count check shared across the package."""

import numpy as np


def _require_counts(owner, **minimums: int) -> None:
    """Raise ``ValueError`` naming the first field of ``owner`` that is not an integer of at least its minimum.

    Fields are checked in the order ``minimums`` names them; numpy integers count, ``bool`` does not.
    """
    for name, minimum in minimums.items():
        value = getattr(owner, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, not {value!r}")
        if value < minimum:
            raise ValueError(f"{name} must be at least {minimum}")


class DimensionMismatchError(ValueError):
    """Inputs whose shapes cannot be reconciled (wrong point dimension, unequal vector lengths)."""


class SingularKernelError(ArithmeticError):
    """Covariance matrix could not be factorized even after the jitter ladder was exhausted."""


class FitFailureError(RuntimeError):
    """Every hyperparameter restart failed to produce a finite model evidence."""


class EvaluatorFaultError(RuntimeError):
    """An objective or constraint evaluation returned a non-finite value."""


class ConfigError(ValueError):
    """Invalid or unknown configuration entry; the message names the offending key."""


class ProtocolError(RuntimeError):
    """The external evaluator violated the JSON-lines wire protocol."""
