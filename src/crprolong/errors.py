"""Error taxonomy shared by the whole package.

The CLI maps these onto exit codes: domain failures (a mathematically
well-posed "no") exit 1, malformed input exits 2, violated internal
assertions (closure, Jacobi) exit 3, and so does a prolongation not
terminated below the degree cap, with its own wording.
"""


class CRProlongError(Exception):
    """Base class for all package errors."""


class InputError(CRProlongError):
    """Malformed or unparseable input (bad JSON, bad scalar text, bad schema)."""


class DimensionError(InputError):
    """Shape mismatch between objects that must share (n, k)."""


class ValidationError(CRProlongError):
    """A model failed validation and the requested operation needs a valid one."""


class DegenerateModelError(ValidationError):
    """Validation detected a degenerate model (dependent forms / common kernel)."""


class AlgebraError(CRProlongError):
    """An abstract algebra object violates its structural invariants."""


class InternalCheckError(CRProlongError):
    """An internal consistency assertion failed (closure, Jacobi, membership)."""


class NonterminationError(InternalCheckError):
    """The prolongation failed to terminate below the degree cap."""
