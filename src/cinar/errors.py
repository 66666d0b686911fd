"""Exception hierarchy shared across the package.

The split mirrors how failures are reported at the command line: validation
problems (bad parameters, malformed input) are distinct from numerical
failures (singular systems, non-finite objectives).  An optimizer that did
not converge is not an error: fits report it in their diagnostics.
"""

__all__ = ["CinarError", "ValidationError", "NumericalError"]


class CinarError(Exception):
    """Base class for all package errors."""


class ValidationError(CinarError):
    """Invalid parameters, malformed input, or violated preconditions."""


class NumericalError(CinarError):
    """Singular linear systems, non-finite values, failed factorizations."""
