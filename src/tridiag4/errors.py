"""Exception and warning types shared across the solver."""


class SolverError(Exception):
    """Base class for all solver failures."""


class Unsolved(SolverError):
    """All solution paths, including the perturbation ladder, failed."""


class ParseError(ValueError):
    """Malformed matrix input."""


class UnstableCountWarning(UserWarning):
    """A degree-count experiment disagreed across random retries."""
