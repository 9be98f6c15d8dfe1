"""Shared exception types."""


class NilformError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(NilformError):
    pass


class NotNilpotent(NilformError):
    pass


class SingularTransform(NilformError):
    pass


class NotAnIdeal(NilformError):
    pass


class VectorInDerivedAlgebra(NilformError):
    pass


class InvalidDimension(NilformError):
    pass


class MissingParameter(NilformError):
    pass


class MalformedFile(NilformError, ValueError):
    """An algebra file that is not valid JSON or has a bad field."""


class TemplateMismatch(NilformError):
    """A bracket violates the generic filiform-chain template shape."""
