"""Exception hierarchy shared by all backends.

The command line maps these onto exit codes: input problems exit 2, resource
cap overruns exit 3, failed verifications exit 1; any other exception is an
internal error and exits 4.
"""


class TidyscaleError(Exception):
    """Base class for all library errors."""


class InputError(TidyscaleError):
    """Malformed or inconsistent input data."""


class SingularityError(InputError):
    """A matrix or polynomial is singular where an invertible one is required."""


class SlopeSeparabilityError(TidyscaleError):
    """An irreducible characteristic factor mixes several root valuations."""

    def __init__(self, factor, message=None):
        self.factor = factor
        super().__init__(message or f"factor {factor} has a multi-slope Newton polygon")


class CommensurabilityError(TidyscaleError):
    """Two lattices span different subspaces, so no index comparison exists."""


class InfiniteIndexError(TidyscaleError):
    """A subgroup index is infinite; carries both objects for diagnostics."""

    def __init__(self, big, small, message=None):
        self.big = big
        self.small = small
        super().__init__(message or "index is infinite: tail subgroups differ")


class NormalizationError(TidyscaleError):
    """An element fails to normalize the declared automorphism family."""


class ResourceCapError(TidyscaleError):
    """An enumeration exceeded the configured element cap."""

    def __init__(self, needed, cap, message=None):
        self.needed = needed
        self.cap = cap
        super().__init__(message or f"enumeration needs {needed} elements, cap is {cap}")


class UnsupportedInputError(TidyscaleError):
    """Input outside the supported fragment (for example mixed-slope blocks)."""
