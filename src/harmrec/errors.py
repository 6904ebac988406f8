"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Bad user input: geometry, configuration, or data that violates a precondition."""


class SolverError(RuntimeError):
    """Numerical failure: a non-finite field, fit or artifact, or a failed factorisation."""
