"""Exception types shared across the laboratory."""


class LabError(Exception):
    """Base class for all isaacslab errors."""


class NotFoundError(LabError):
    """A named resource (instance, experiment) does not exist."""


class ConfigError(LabError):
    """A configuration file or argument is malformed."""


class EvaluationError(LabError):
    """A user-supplied coefficient could not be evaluated.

    Carries the offending evaluation point in ``point``.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class DivergenceError(LabError):
    """A simulated path or a grid value field left the admissible range.

    ``path_index`` and ``step`` name the first offending path; for a grid
    sweep ``step`` is the time index of the first non-finite slice.
    """

    def __init__(self, message, path_index=None, step=None):
        super().__init__(message)
        self.path_index = path_index
        self.step = step


class CflError(LabError):
    """The explicit time step is longer than the stencil's monotonicity allows.

    ``required_dt`` is the largest stable step, ``required_nt`` the smallest
    admissible number of time steps.
    """

    def __init__(self, message, required_dt=None, required_nt=None):
        super().__init__(message)
        self.required_dt = required_dt
        self.required_nt = required_nt


class PreconditionError(LabError):
    """An operation was called with data violating its contract."""


class FitError(LabError):
    """Not enough data points for a regression fit."""
