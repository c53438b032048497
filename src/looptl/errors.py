"""Exception types shared across the package."""


class LoopTLError(Exception):
    """Base class for all package-specific errors."""


class PoleAtSpecialValue(LoopTLError):
    """A generic scalar has a pole at the requested special loop weight."""


class SignatureMismatch(LoopTLError):
    """Diagram or morphism signatures are incompatible for the operation."""


class IndexOutOfRange(LoopTLError):
    """A strand, generator or column index lies outside the valid range."""


class MismatchAtGrade(LoopTLError):
    """A structural identity failed at a specific grade during verification."""


class StateSpaceTooLarge(LoopTLError):
    """The requested state space exceeds the configured capacity cap."""


class ComponentCapExceeded(LoopTLError):
    """Component exploration exceeded the configured state cap."""


class InconsistentCycle(LoopTLError):
    """Ratio propagation found a cycle whose amplitude ratios do not close."""


class WindowDoesNotFit(LoopTLError):
    """The lattice is too coarse to host the requested constraint window."""


class ConfigInvalid(LoopTLError):
    """A configuration file or CLI parameter combination is invalid."""
