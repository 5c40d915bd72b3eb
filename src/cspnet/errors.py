"""Exception taxonomy shared by all cspnet modules.

Usage/config mistakes raise ParameterError or ValidationError; broken files
raise FormatError or CorruptionError; numerical breakdowns raise
NumericalError. The CLI picks its exit code by phase, not by class: any
of these raised while a command resolves its inputs and configuration
(loading the dataset, checking filter counts, building each backbone at
the data's shape, where a BuildError says the trials are too short for
it) exits 2, and any raised once the work has started exits 1.
"""


class CspnetError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(CspnetError):
    """An argument value is outside its documented domain."""


class ValidationError(CspnetError):
    """Input data violates a structural invariant."""


class DegenerateInputError(CspnetError):
    """Input is formally valid but numerically degenerate (e.g. all-zero trial)."""


class FormatError(CspnetError):
    """A file or directory does not follow the expected on-disk layout."""


class CorruptionError(CspnetError):
    """On-disk metadata and payload disagree."""


class WriteError(CspnetError):
    """An output file could not be written."""


class BuildError(CspnetError):
    """A model graph cannot be assembled from the given specification."""


class NumericalError(CspnetError):
    """A numerical routine failed (singular factorization, non-finite values)."""
