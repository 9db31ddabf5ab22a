"""Exception types shared across the package."""


class DpcPermError(Exception):
    """Base class for all errors raised by dpc_perm."""


class NumericallySingular(DpcPermError):
    """A matrix is too close to singular for the requested operation."""


class InvalidPermutation(DpcPermError):
    """An order vector is not a bijection of 0..n-1."""


class OrderSpaceTooLarge(DpcPermError):
    """Exhaustive order enumeration was requested for too many users."""


class DegenerateGain(DpcPermError):
    """A gain or signal vector is identically zero where it must not be."""


class InfeasibleBlocking(DpcPermError):
    """Block diagonalization has no null space left for some user group."""


class LengthMismatch(DpcPermError):
    """Two sequences that must have compatible lengths do not."""


class ConfigError(DpcPermError):
    """An experiment configuration is missing fields or holds bad values."""


class WorkerCrashed(DpcPermError):
    """A worker process of a parallel sweep died before returning its chunk."""
