"""Exception types shared across the package."""


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
