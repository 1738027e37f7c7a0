"""Exception types shared across the package."""


class LevyLabError(Exception):
    """Base class for all package errors."""


class ParameterError(LevyLabError, ValueError):
    """A parameter is outside its admissible domain."""


class DivergenceError(LevyLabError, ValueError):
    """An integral against the Levy measure diverges; message names the endpoint."""


class EvaluationError(LevyLabError, ValueError):
    """A coefficient returned a non-finite value; message carries the location."""


class ExtrapolationError(LevyLabError, ValueError):
    """A grid function was evaluated too far outside its domain."""


class ContractionError(LevyLabError, RuntimeError):
    """The drift-removing map violates the 1/2 contraction condition."""

    def __init__(self, message, sup_u=None, sup_grad=None):
        super().__init__(message)
        self.sup_u = sup_u
        self.sup_grad = sup_grad


class SignalTooWeakError(LevyLabError, RuntimeError):
    """A statistical signal sits below its noise floor."""


class TailAccuracyError(LevyLabError, RuntimeError):
    """Quadrature unreliable this far in the tail; carries the asymptotic value."""

    def __init__(self, message, tail_value=None):
        super().__init__(message)
        self.tail_value = tail_value


class SampleStarvedError(LevyLabError, RuntimeError):
    """Too few surviving samples to produce an estimate."""


class TruncationError(LevyLabError, RuntimeError):
    """A path simulation hit its step budget before reaching the horizon."""


class SchemaError(LevyLabError, ValueError):
    """An experiment config failed validation; message lists offending fields."""

    def __init__(self, message, fields=()):
        super().__init__(message)
        self.fields = list(fields)
