"""Exception types shared across the package.

The CLI maps these onto exit codes: domain outcomes (infeasible or
unstabilizable instances) are distinct from bad input and from numerical
failures.
"""


class MultinoiseError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(MultinoiseError, ValueError):
    """Matrix or vector dimensions are inconsistent."""


class NotMeanSquareStableError(MultinoiseError):
    """An operation required a mean-square stable instance and got none."""


class UnstabilizableError(MultinoiseError):
    """No stabilizing gain exists at the requested noise parameters."""


class SingularPencilError(MultinoiseError):
    """Right-hand matrix of a generalized eigenproblem is not positive
    definite, so the maximum generalized eigenvalue is unbounded."""


class NumericalError(MultinoiseError):
    """A numerical routine failed to produce a trustworthy result."""


class GridSizeError(MultinoiseError, ValueError):
    """A requested verification grid has fewer than two samples per
    direction or exceeds the hard size limit."""


class ProblemFormatError(MultinoiseError, ValueError):
    """A problem or result document failed validation; the message names
    the offending field."""
