"""Exception and warning types shared across the solver."""


class Unsolved(Exception):
    """All solution paths, including the perturbation ladder, failed."""


class ParseError(ValueError):
    """Malformed matrix input."""


class UnstableCountWarning(UserWarning):
    """A degree-count experiment disagreed across random retries."""
