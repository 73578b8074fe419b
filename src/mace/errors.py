"""Exception types and the count check shared across the package."""

import numpy as np


def _require_count(name: str, value, minimum: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer of at least ``minimum``; numpy integers count, ``bool`` does not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")


def _require_counts(owner, **minimums: int) -> None:
    """``_require_count`` over fields of ``owner``, in the order ``minimums`` names them."""
    for name, minimum in minimums.items():
        _require_count(name, getattr(owner, name), minimum)


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
