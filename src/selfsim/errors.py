"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1,
ConvergenceError -> 2, ResourceCapError -> 3.  ``_refuse_unknown`` is the
one check of a config's and an inline system's keys.
"""


class SelfsimError(Exception):
    """Base class for package errors."""


class ConfigError(SelfsimError):
    """Invalid configuration, argument, or system description."""


class ConvergenceError(SelfsimError):
    """An iterative solver exhausted its iteration budget before meeting tol.

    Carries the last observed step size in ``last_delta``, and what that
    size measures in ``metric``, so callers can report how far from
    converged the run was.
    """

    def __init__(self, message: str, last_delta: float | None = None, metric: str = "change"):
        super().__init__(message)
        self.last_delta = last_delta
        self.metric = metric


class ResourceCapError(SelfsimError):
    """A computation would exceed a configured size cap (enumeration, atoms, ...)."""


class CompatibilityError(ConfigError):
    """A component system's substitution matrix has no admissible mass vector."""


def _refuse_unknown(spec, known, what: str) -> None:
    """Refuse a dict ``spec`` with keys outside ``known``, naming them."""
    unknown = set(spec) - set(known) if isinstance(spec, dict) else ()
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(sorted(unknown))}")
