"""Exception types raised by the simulator."""


class QetkdError(Exception):
    """Base class for all package errors."""


class ModelParameterError(QetkdError, ValueError):
    """A model parameter lies outside the range the model accepts."""


class DegenerateGroundError(QetkdError):
    """Ground level is degenerate; no unique resource state exists."""


class PartitionViolationError(QetkdError):
    """Alice's projector fails to commute with the receiver's Hamiltonian."""

    def __init__(self, defect: float, message: str | None = None):
        self.defect = defect
        super().__init__(message or f"[P_A, H_B] has Frobenius norm {defect:.3e}")


class ImaginaryResidueError(QetkdError):
    """An expectation that must be real carries a large imaginary part."""


class DegenerateObjectiveError(QetkdError):
    """Feedback-axis objective vanishes; no energy can be extracted."""


class CompletenessViolationError(QetkdError, ValueError):
    """Kraus operators do not sum to the identity channel."""


class SupportViolationError(QetkdError, ValueError):
    """A noise operator acts on a site reserved for a protocol party."""


class TooManyErasuresError(QetkdError):
    """Session aborted: erasure fraction exceeded the configured limit."""
