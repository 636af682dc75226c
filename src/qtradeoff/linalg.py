"""The solver's convergence exception."""


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach its stopping criterion.

    `iterate` is the last iterate the routine trusted when it stopped, or
    None: for solve_lmi, the pair (y, Z) whose S and Z last passed Cholesky.
    """

    def __init__(self, message: str, iterate=None):
        super().__init__(message)
        self.iterate = iterate
