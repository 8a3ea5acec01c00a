"""Exception types shared across the package."""


class JuntagapError(ValueError):
    """Base class for all errors raised by juntagap."""


class CoordinateRangeError(JuntagapError):
    """A coordinate index lies outside {1, ..., width}."""


class ArityError(JuntagapError):
    """A word's width does not match the arity a function expects."""


class EnumerationCapError(JuntagapError):
    """An exact enumeration was requested above the enumerable-mode cap."""


class InfeasibleSubsetError(JuntagapError):
    """A fixed-size subset was requested with size exceeding the universe."""


class WorkBudgetError(JuntagapError):
    """An exhaustive search would exceed its configured work budget."""


class SamplerConfigError(JuntagapError):
    """A Monte Carlo sample count, seed, or worker count is out of range."""


class FamilyFormatError(JuntagapError):
    """A family or plan document is malformed or violates an invariant."""


class ClaimFailedError(Exception):
    """A machine-checked claim did not hold.

    Deliberately not a :class:`JuntagapError`: this is not a usage problem
    but a genuine discovery or implementation bug, and the CLI reports it
    with its own exit code.
    """
