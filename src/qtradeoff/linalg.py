"""The solver's convergence exception."""


class ConvergenceError(RuntimeError):
    """An iterative routine stopped before it had an iterate to return."""
