"""Exception hierarchy.

Every error carries a short machine-readable ``code`` so the CLI can map
failures to exit codes and JSON fields without string matching.
"""


class CprError(Exception):
    """Base class; ``code`` identifies the failure kind."""

    code = "error"

    def __init__(self, message, code=None):
        super().__init__(message)
        if code is not None:
            self.code = code


class DimensionMismatchError(CprError):
    code = "DimensionMismatch"


class ValidationError(CprError):
    """Bad input values (non-finite entries, wrong shapes, bad parameters)."""

    code = "Validation"


class FileFormatError(CprError):
    """Malformed or inconsistent on-disk data; message names the offending field."""

    code = "FileFormat"


class UnderdeterminedError(CprError):
    """Lifted system has a nullspace; the linear route cannot be used."""

    code = "Underdetermined"


class NotPSDError(CprError):
    """Lift estimate has a significantly negative eigenvalue."""

    code = "NotPSD"


class NoKernelError(CprError):
    """Exact falsification requested but the lift kernel holds no realizable matrix.

    Either the lifted operator is injective, or its kernel is one line
    spanned by a matrix with three eigenvalues of one sign.
    """

    code = "NoKernel"


class DefiniteInputError(CprError):
    """Witness target has no realization by a pair.

    It is one-signed, or it has three eigenvalues of one sign: not a
    difference of two rank-<=2 PSD matrices.
    """

    code = "DefiniteInput"


class WrongDimensionError(CprError):
    code = "WrongDimension"
